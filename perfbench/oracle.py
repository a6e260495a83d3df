"""Independent reference values for the benchmark's correctness gates.

Integrates the 2n x 2n Hamiltonian flow with scipy's DOP853 at tight
tolerances, restarting at every coefficient kink, and evaluates the
closed-form initial value Pi(0) of the steering problem with scipy's linear
algebra. Nothing here calls covsteer, so the values check the package rather
than repeat it.

    python3 perfbench/oracle.py     # rewrites perfbench/reference.json

scipy is needed only to run this file and the benchmark's tests; the
benchmark itself reads the stored reference.json.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import eigh, solve

HERE = Path(__file__).resolve().parent
RTOL, ATOL = 1e-12, 1e-14


def _sqrt_spd(s: np.ndarray) -> np.ndarray:
    w, v = eigh(0.5 * (s + s.T))
    return (v * np.sqrt(w)) @ v.T


def _integrate(rhs, y0: np.ndarray, breaks) -> np.ndarray:
    """DOP853 from 0 to 1, restarting at each break so kinks never fall inside a step."""
    knots = sorted({0.0, 1.0, *(float(b) for b in breaks if 0.0 < b < 1.0)})
    y = np.asarray(y0, dtype=float).ravel()
    for lo, hi in zip(knots, knots[1:]):
        sol = solve_ivp(rhs, (lo, hi), y, method="DOP853", rtol=RTOL, atol=ATOL,
                        args=((lo + hi) / 2,))
        if not sol.success:
            raise RuntimeError(f"DOP853 failed on [{lo}, {hi}]: {sol.message}")
        y = sol.y[:, -1]
    return y.reshape(np.shape(y0))


def hamiltonian_transition(coef, n: int, breaks=()) -> np.ndarray:
    """Phi(1, 0) of dPhi/dt = M(t) Phi, M = [[A, -B R^-1 B'], [-Q, -A']].

    coef(t, mid) returns (A, B, Q, R) at t; mid is the midpoint of the
    current piece, so piecewise coefficients take that piece's value at its
    end points.
    """
    def rhs(t, y, mid):
        a, b, q, r = coef(t, mid)
        m = np.block([[a, -b @ solve(r, b.T)], [-q, -a.T]])
        return (m @ y.reshape(2 * n, 2 * n)).ravel()

    return _integrate(rhs, np.eye(2 * n), breaks)


def closed_form_pi0(phi: np.ndarray, sigma0, sigma1, epsilon: float) -> np.ndarray:
    """Pi(0) on the escape-free root of the boundary coupling.

    Pi0 = -Phi12^-1 Phi11 - S0^-1/2 (eps^2/4 I + S0^1/2 Phi12^-1 S1 Phi12^-T S0^1/2)^1/2 S0^-1/2
          + eps/2 S0^-1
    """
    n = phi.shape[0] // 2
    p11, p12 = phi[:n, :n], phi[:n, n:]
    eye = np.eye(n)
    s0 = np.asarray(sigma0, dtype=float)
    inv12 = solve(p12, eye)
    s0_half = _sqrt_spd(s0)
    s0_inv_half = solve(s0_half, eye)
    core = _sqrt_spd(0.25 * epsilon**2 * eye + s0_half @ inv12 @ np.asarray(sigma1) @ inv12.T @ s0_half)
    pi0 = -inv12 @ p11 - s0_inv_half @ core @ s0_inv_half + 0.5 * epsilon * solve(s0, eye)
    return 0.5 * (pi0 + pi0.T)


def terminal_covariance(coef, n: int, sigma0, pi0, epsilon: float, breaks=()) -> np.ndarray:
    """Sigma(1) under the feedback K = R^-1 B' Pi with noise eps B B' (valid for R = I).

    Integrates Pi and Sigma jointly; a reference Pi0 is the solution only if
    this lands on Sigma1.
    """
    def rhs(t, y, mid):
        a, b, q, r = coef(t, mid)
        if not np.allclose(r, np.eye(len(r))):
            raise ValueError("terminal_covariance assumes R = I")
        pi, sig = y.reshape(2, n, n)
        quad = b @ b.T
        d_pi = -(a.T @ pi + pi @ a - pi @ quad @ pi + q)
        a_cl = a - quad @ pi
        d_sig = a_cl @ sig + sig @ a_cl.T + epsilon * quad
        return np.stack([d_pi, d_sig]).ravel()

    y = _integrate(rhs, np.stack([pi0, np.asarray(sigma0, dtype=float)]), breaks)
    return y[1]


def double_integrator(q_scale: float):
    a = np.array([[0.0, 1.0], [0.0, 0.0]])
    b = np.array([[0.0], [1.0]])
    q = q_scale * np.eye(2)
    r = np.eye(1)
    return lambda t, mid: (a, b, q, r)


def tv_coefficients(data: dict):
    """(A, B, Q, R) maps of a time-varying problem given as raw arrays.

    A and B interpolate linearly between knots; Q is constant on each piece.
    """
    knots, a_vals, b_vals = data["knots"], data["a"], data["b"]
    q_breaks, q_vals = data["q_breaks"], data["q"]
    eye_m = np.eye(b_vals.shape[2])

    def coef(t, mid):
        i = min(np.searchsorted(knots, mid, side="right") - 1, len(knots) - 2)
        w = (t - knots[i]) / (knots[i + 1] - knots[i])
        j = min(np.searchsorted(q_breaks, mid, side="right") - 1, len(q_vals) - 1)
        return ((1 - w) * a_vals[i] + w * a_vals[i + 1],
                (1 - w) * b_vals[i] + w * b_vals[i + 1], q_vals[j], eye_m)

    return coef, [*knots, *q_breaks]


def tv_pi0(data: dict, epsilon: float = 1.0) -> np.ndarray:
    coef, breaks = tv_coefficients(data)
    n = data["a"].shape[1]
    phi = hamiltonian_transition(coef, n, breaks)
    return closed_form_pi0(phi, data["sigma0"], data["sigma1"], epsilon)


def main() -> int:
    sys.path.insert(0, str(HERE))
    from harness import LTI_CASES, SIGMA0, SIGMA1

    cases = {}
    for label, q_scale, eps in LTI_CASES:
        coef = double_integrator(q_scale)
        pi0 = closed_form_pi0(hamiltonian_transition(coef, 2), SIGMA0, SIGMA1, eps)
        sig1 = terminal_covariance(coef, 2, SIGMA0, pi0, eps)
        miss = float(np.linalg.norm(sig1 - SIGMA1) / np.linalg.norm(SIGMA1))
        if not (miss <= 1e-9):
            raise RuntimeError(f"{label}: reference Pi0 misses Sigma1 by {miss:.3e}")
        cases[label] = {"pi0": pi0.tolist(), "terminal_miss": miss}
    out = {
        "method": "scipy DOP853 (rtol 1e-12, atol 1e-14) Hamiltonian flow + closed-form Pi0, "
                  "checked by a DOP853 forward pass of Pi and Sigma",
        "cases": cases,
    }
    (HERE / "reference.json").write_text(json.dumps(out, indent=1) + "\n", encoding="utf-8")
    for label, case in cases.items():
        print(f"{label}: Sigma(1) miss {case['terminal_miss']:.2e}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
