"""Propagation of the 2n x 2n Hamiltonian transition matrix and its block identities.

The flow dPhi/dt = M(t) Phi with

    M(t) = [[ A(t), -B(t) R(t)^-1 B(t)' ],
            [ -Q(t),             -A(t)' ]]

linearizes both Riccati flows of the steering problem. Its blocks satisfy
symplectic identities (M J + J M' = 0 with J the canonical skew form), which
are exposed here as checkable residuals, together with the symmetric ratio
T(t, s) = Phi11^-1 Phi12 whose negativity/monotonicity underpins invertibility
of the blocks on controllable systems.

M is assembled in one place, :func:`hamiltonian_stack`, at an array of times:
one A, B, Q and R call for the whole array and one batched solve for B R^-1 B'.
:func:`hamiltonian_rhs` feeds it to an RK4 pass page by page
(see :func:`covsteer.integrate.stage_sampler`), so a pass over an N-step
grid samples the coefficients once at each of its 2N + 1 stage times, and
:func:`hamiltonian_matrix` is the one-time case.
"""

from __future__ import annotations

import numpy as np

from .errors import CovsteerError, DomainError, SingularMatrixError
from .integrate import Rhs, rk4_grid, stage_sampler, steps_for_span
from .systems import (
    DEFAULT_STEPS_PER_UNIT,
    TimeVaryingLinearSystem,
    _check_time,
    input_quad,
    symmetrize,
)

COND_LIMIT = 1e12  # largest condition number of Phi11 or Phi12 that is inverted


def blocks(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Views (Phi11, Phi12, Phi21, Phi22) of a 2n x 2n matrix or of each matrix in a stack."""
    n = phi.shape[-1] // 2
    return phi[..., :n, :n], phi[..., :n, n:], phi[..., n:, :n], phi[..., n:, n:]


def hamiltonian_matrix(sys: TimeVaryingLinearSystem, t: float) -> np.ndarray:
    """Assemble M(t); the (1, 2) block uses R(t)^-1 (identity R gives -BB')."""
    return hamiltonian_stack(sys, [t])[0]


def hamiltonian_stack(sys: TimeVaryingLinearSystem, ts) -> np.ndarray:
    """M(t) for each time in ts, shape (len(ts), 2n, 2n).

    Calls A, B, Q and R once on the array ts and forms every B R^-1 B' with
    one batched solve; raises SingularMatrixError on a singular R.
    """
    ts = _check_time(ts)
    a = sys.A(ts)
    return np.block([[a, -input_quad(sys, ts)], [-sys.Q(ts), -np.swapaxes(a, -1, -2)]])


def hamiltonian_rhs(sys: TimeVaryingLinearSystem, grid: np.ndarray) -> Rhs:
    """(t, y) -> M(t) @ y for one pass of rk4_grid over grid, M sampled once per stage time."""
    m_at = stage_sampler(grid, lambda ts: hamiltonian_stack(sys, ts))
    return lambda t, y: m_at(t) @ y


def propagate(
    sys: TimeVaryingLinearSystem,
    s: float,
    t: float,
    steps_per_unit: int = DEFAULT_STEPS_PER_UNIT,
) -> tuple[np.ndarray, np.ndarray]:
    """Phi(., s) at every node of a uniform grid over [s, t], from Phi(s, s) = I.

    Returns (times, phi): the grid of steps_for_span(steps_per_unit, s, t) RK4
    steps and the (len(times), 2n, 2n) stack of Phi(times[k], s), so phi[-1] is
    Phi(t, s).
    """
    s, t = _check_time(s), _check_time(t)
    if s > t:
        raise DomainError("propagate requires s <= t")
    times = np.linspace(s, t, steps_for_span(steps_per_unit, s, t) + 1)
    return times, rk4_grid(hamiltonian_rhs(sys, times), np.eye(2 * sys.dim_state), times)


def symplectic_residual(phi: np.ndarray) -> float:
    """Max-abs entry over the six block identities implied by the symplectic flow.

    phi is one 2n x 2n matrix or a stack of them; a stack gives the maximum over all.
    """
    p11, p12, p21, p22 = blocks(phi)
    t11, t21, t12, t22 = blocks(np.swapaxes(phi, -1, -2))  # tij is the transpose of pij
    eye = np.eye(p11.shape[-1])
    residuals = (
        t11 @ p22 - t21 @ p12 - eye,
        t12 @ p22 - t22 @ p12,
        t21 @ p11 - t11 @ p21,
        p11 @ t22 - p12 @ t21 - eye,
        p12 @ t11 - p11 @ t12,
        p21 @ t22 - p22 @ t21,
    )
    return max(float(np.abs(r).max()) for r in residuals)


def _checked_inverse(
    mat: np.ndarray, name: str, error: type[CovsteerError] = SingularMatrixError
) -> np.ndarray:
    """mat^-1, or raise error when the condition number is non-finite or above COND_LIMIT."""
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise error(f"{name} is too ill-conditioned to invert (condition number {cond:.3e})")
    return np.linalg.inv(mat)


def ratio_T(phi: np.ndarray) -> np.ndarray:
    """Symmetric ratio T(t, s) = Phi11^-1 Phi12 of one Phi(t, s); zero at t = s.

    Negative definite for t > s on controllable systems, and monotonically
    nonincreasing in t in the positive-definite order.
    """
    p11, p12, _, _ = blocks(phi)
    return symmetrize(_checked_inverse(p11, "Phi11") @ p12)
