"""Coupled-Riccati solver steering a Gaussian state law between two covariances.

Two matrix Riccati flows Pi(t) and H(t) share the dynamics' coefficients but
are coupled only through their boundary conditions

    Pi(0) + H(0) = eps * Sigma0^-1,    Pi(1) + H(1) = eps * Sigma1^-1,

where eps >= 0 is the noise intensity (eps = 0 is the deterministic
mass-transport limit). The boundary problem has a closed-form initial value:
linearizing both flows through the Hamiltonian transition matrix reduces the
coupling to a quadratic matrix equation whose two symmetric roots are written
explicitly in terms of the Phi blocks; only the smaller root yields flows
free of finite escape on [0, 1]. Given (Pi0, H0), one pass of the same linear
flow from Y(0) = [[I, I], [Pi0, -H0]] gives Y(t) = [[X1, X2], [Y1, Y2]], and
Pi = Y1 X1^-1, H = -Y2 X2^-1. The flow conserves X1' Y2 - Y1' X2 =
-eps Sigma0^-1, so the state covariance eps (Pi + H)^-1 is X2 Sigma0 X1' for
every eps >= 0, free of the inverse that cancels catastrophically at tiny eps.

The noise enters through the control channel scaled by the input weight,

    dx = (A x + B u) dt + sqrt(eps) B R^-1/2 dw,

which is the model the coupling roots assume; R = I gives sqrt(eps) B dw.
:func:`covsteer.systems.noise_channel` is B R^-1/2, and
:func:`covsteer.systems.input_quad` is B R^-1 B', both the control weight and
the diffusion. The controllability Gramian integrates the same channel.

Phi(t, 0) and the controllability of (A, B) depend on the system alone, not
on eps, so :func:`epsilon_sweep` propagates once and solves every eps on the
same transitions; the full Phi stack is released once each eps has its
roots and its plus-root escape scan. The Y pass integrates the same flow on
the same grid as Phi, so it samples no coefficient: it multiplies Y(0)
through the RK4 step matrices E_k that :func:`covsteer.hamiltonian.propagate`
built, which are released as soon as the pass returns. The Y pass is linear
too, so one pass serves every eps of a sweep: with k values of eps its state
is the 2n x 2nk matrix

    Y(0) = [[I,          I,           I,          I,           ...],
            [Pi0(eps_1), -H0(eps_1),  Pi0(eps_2), -H0(eps_2),  ...]],

and eps_i is read from columns [2n i, 2n (i + 1)). The columns do not mix, so
each eps's flow is the one a standalone solve integrates; with k = 1 the state
is the 2n x 2n Y(0) above.

A zero of det X1 or det X2 inside the horizon is a conjugate point of the
flow: past it Pi or H escapes and the expected cost is unbounded below, so no
optimal law exists. An indefinite Q can reach one, and the solver raises
ConjugatePointError at the first grid interval where either determinant
changes sign. The same gate stands in for a definiteness check of
Sigma(t) = X2 Sigma0 X1': Sigma(0) = Sigma0 is positive definite, and an
eigenvalue of Sigma(t) can change sign only where det Sigma(t) =
det X2 det Sigma0 det X1 vanishes. So Sigma(t) is never inverted or tested.
X1 is the minus root's X, so the gate's det X1 is that root's escape scan.
Pi and H take one batched inverse each of X1 and X2, the only per-node
inverses the solver forms. Pi + H - eps Sigma^-1 is not read: with this
Sigma it measures only the discrete flow's departure from symplecticity,
which :func:`covsteer.hamiltonian.symplectic_residual` reads on Phi(1, 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .errors import (
    BoundaryResidualError,
    ConditioningError,
    ConjugatePointError,
    CovsteerError,
    DefinitenessError,
    DomainError,
    SingularMatrixError,
)
from .hamiltonian import (
    _checked_inverse,
    blocks,
    propagate,
    symplectic_residual,
)
from .integrate import horizon_grid, is_real, rk4_grid, stage_times
from .systems import (
    TimeVaryingLinearSystem,
    _spd_eigh,
    _sqrt_spd_pair,
    reachability_gramian,
    require_controllable,
    solve_r,
    state_transition,
    symmetrize,
)

RESIDUAL_TOL = 1e-4  # largest relative Frobenius miss of Sigma(1) against Sigma1


def sqrt_spd(s: np.ndarray) -> np.ndarray:
    """Unique SPD square root via spectral decomposition."""
    root, _ = _sqrt_spd_pair(s)
    return root


def _inv_spd(s: np.ndarray) -> np.ndarray:
    """S^-1 of an SPD matrix, or of each matrix in a stack."""
    w, v = _spd_eigh(s)
    return symmetrize((v / w[..., None, :]) @ np.swapaxes(v, -1, -2))


def _refined_root_pair(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S^1/2, S^-1/2) with one Newton correction on top of the spectral root.

    The correction solves the Sylvester equation R*D + D*R = S - R@R in the
    eigenbasis, recovering the digits eigh loses on ill-conditioned input.
    """
    w, v = _spd_eigh(s, 0.0)
    sw = np.sqrt(w)
    root = (v * sw) @ v.T
    resid = v.T @ (s - root @ root) @ v
    root = symmetrize(root + v @ (resid / np.add.outer(sw, sw)) @ v.T)
    inv_root = symmetrize((v / sw) @ v.T)
    return root, inv_root


def lemma1_residual(x: np.ndarray, y: np.ndarray) -> float:
    """Max-abs difference between the two equivalent SPD square-root expressions

        Y^1/2 (Y^-1/2 X^-1 Y^-1/2 + 1/4 Y^-1/2 X^-1 Y^-1 X^-1 Y^-1/2)^1/2 Y^1/2
      = X^-1/2 (I/4 + X^1/2 Y X^1/2)^1/2 X^-1/2

    for SPD X, Y. Zero in exact arithmetic; the return value measures
    floating-point drift only.
    """
    x = symmetrize(np.asarray(x, dtype=float))
    y = symmetrize(np.asarray(y, dtype=float))
    if x.shape != y.shape:
        raise DomainError("X and Y must have equal shapes")
    y_h, y_ih = _refined_root_pair(y)
    x_h, x_ih = _refined_root_pair(x)
    # The left inner matrix is C + C^2/4 with C = Y^-1/2 X^-1 Y^-1/2, so its
    # square root shares C's eigenvectors and follows from the scalar map
    # sqrt(l + l^2/4). C itself is G'G for G = X^-1/2 Y^-1/2; an SVD of G
    # delivers C's small eigenvalues to high relative accuracy, where a
    # direct eigh of the squared-condition-number C would not.
    g = x_ih @ y_ih
    _, sv, vt = np.linalg.svd(g)
    cw = sv[::-1] ** 2
    cv = vt[::-1].T
    left = y_h @ ((cv * np.sqrt(cw + 0.25 * cw**2)) @ cv.T) @ y_h
    # Same treatment on the right with D = X^1/2 Y X^1/2 = G'G, G = Y^1/2 X^1/2.
    g = y_h @ x_h
    _, sv, vt = np.linalg.svd(g)
    dw = sv[::-1] ** 2
    dv = vt[::-1].T
    right = x_ih @ ((dv * np.sqrt(0.25 + dw)) @ dv.T) @ x_ih
    return float(np.abs(left - right).max())


@dataclass(frozen=True)
class SteeringProblem:
    """System plus SPD boundary covariances and noise intensity eps >= 0."""

    sys: TimeVaryingLinearSystem
    sigma0: np.ndarray
    sigma1: np.ndarray
    epsilon: float = 1.0

    def __post_init__(self):
        n = self.sys.dim_state
        s0 = np.asarray(self.sigma0, dtype=float)
        s1 = np.asarray(self.sigma1, dtype=float)
        if s0.shape != (n, n) or s1.shape != (n, n):
            raise DomainError("boundary covariances must be n x n")
        s0, s1 = symmetrize(s0), symmetrize(s1)
        for name, s in (("sigma0", s0), ("sigma1", s1)):
            _spd_eigh(s, name=name)
        object.__setattr__(self, "sigma0", s0)
        object.__setattr__(self, "sigma1", s1)
        object.__setattr__(self, "epsilon", _checked_epsilon(self.epsilon))


def _checked_epsilon(value, where: str = "") -> float:
    """value as a float; DomainError unless it is a finite, nonnegative real number.

    where leads the error's message, as "eps_list[1]: " does for a sweep's entry.
    """
    if not is_real(value):
        raise DomainError(f"{where}epsilon must be a real number, got {value!r}")
    eps = float(value)
    if not 0.0 <= eps < np.inf:
        raise DomainError(f"{where}epsilon must be finite and nonnegative, got {eps}")
    return eps


def _checked_eps_list(eps_list) -> list[float]:
    """The entries of eps_list as floats, each an eps :class:`SteeringProblem` accepts.

    Raises DomainError on an entry that is not, its message led by
    "eps_list[i]: ", and unless the entries are sorted descending.
    """
    values = [_checked_epsilon(eps, f"eps_list[{i}]: ") for i, eps in enumerate(eps_list)]
    if any(b > a for a, b in zip(values, values[1:])):
        raise DomainError("eps_list must be sorted descending")
    return values


@dataclass(frozen=True)
class CouplingRoots:
    """Both symmetric roots of the boundary-coupling quadratic.

    z_minus is the usable branch; z_plus produces a flow with finite escape
    inside (0, 1) and is retained for the escape diagnostic. t_weight is the
    SPD matrix (Phi12' Sigma1^-1 Phi12)^-1 central to the derivation.
    """

    z_minus: np.ndarray
    z_plus: np.ndarray
    t_weight: np.ndarray


def coupling_roots(
    sigma0: np.ndarray,
    sigma1: np.ndarray,
    phi: np.ndarray,
    epsilon: float = 1.0,
) -> CouplingRoots:
    """Closed-form roots of the boundary coupling for noise level eps.

        Z+- = -Phi12^-1 Phi11
              +- S0^-1/2 (eps^2 I / 4 + S0^1/2 Phi12^-1 S1 Phi12^-T S0^1/2)^1/2 S0^-1/2

    evaluated on phi = Phi(1, 0), one 2n x 2n array. For eps != 1 the
    boundary covariances enter through the scaled conditions eps * Sigma^-1,
    which folds into the eps^2 I / 4 term above. eps must be a finite,
    nonnegative real number, as in :class:`SteeringProblem`.
    """
    epsilon = _checked_epsilon(epsilon)
    sigma0 = symmetrize(np.asarray(sigma0, dtype=float))
    sigma1 = symmetrize(np.asarray(sigma1, dtype=float))
    phi11, phi12, _, _ = blocks(phi)
    inv12 = _checked_inverse(phi12, "Phi12", ConditioningError)
    base = symmetrize(-inv12 @ phi11)
    mapped = symmetrize(inv12 @ sigma1 @ inv12.T)  # (Phi12' Sigma1^-1 Phi12)^-1
    s0_half, s0_inv_half = _sqrt_spd_pair(sigma0)
    eye = np.eye(sigma0.shape[0])
    inner = 0.25 * epsilon**2 * eye + symmetrize(s0_half @ mapped @ s0_half)
    try:  # inner is SPD whenever Phi12 is invertible, so a failure here is conditioning
        core = sqrt_spd(inner)
    except DefinitenessError as exc:
        raise ConditioningError(
            f"the coupling core is too ill-conditioned for its square root "
            f"(condition number {np.linalg.cond(inner):.3e})"
        ) from exc
    offset = symmetrize(s0_inv_half @ core @ s0_inv_half)
    return CouplingRoots(
        z_minus=symmetrize(base - offset),
        z_plus=symmetrize(base + offset),
        t_weight=mapped,
    )


def initial_conditions(
    problem: SteeringProblem, phi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Initial values (Pi0, H0) selecting the escape-free branch, from phi = Phi(1, 0).

    Pi0 = Z- + eps/2 * Sigma0^-1 and H0 = eps * Sigma0^-1 - Pi0; at eps = 0
    this degenerates to H0 = -Pi0 and only Pi0 drives the control.
    """
    roots = coupling_roots(problem.sigma0, problem.sigma1, phi, problem.epsilon)
    return _initial_values(problem, roots)


def _initial_values(
    problem: SteeringProblem, roots: CouplingRoots
) -> tuple[np.ndarray, np.ndarray]:
    s0_inv = _inv_spd(problem.sigma0)
    pi0 = symmetrize(roots.z_minus + 0.5 * problem.epsilon * s0_inv)
    h0 = symmetrize(problem.epsilon * s0_inv - pi0)
    return pi0, h0


@dataclass(frozen=True)
class BridgeSolution:
    """Solved trajectories on a uniform grid over [0, 1].

    Arrays are indexed by grid point: pi, h, sigma are (N+1, n, n) and the
    feedback gain k = R^-1 B' Pi is (N+1, m, n). boundary_residuals holds the
    relative Frobenius mismatch of sigma at t = 0 (zero by construction) and
    t = 1. diagnostics holds, at every eps, symplectic_residual (of Phi(1, 0))
    and the escape scans escape_minus and escape_plus, as EscapeReports.
    """

    grid: np.ndarray
    pi: np.ndarray
    h: np.ndarray
    k: np.ndarray
    sigma: np.ndarray
    boundary_residuals: tuple[float, float]
    epsilon: float
    diagnostics: dict = field(default_factory=dict)


def solve(problem: SteeringProblem, grid_size: int = 1000) -> BridgeSolution:
    """Solve the steering problem end-to-end on a uniform RK4 grid.

    Propagates Phi(t, 0), forms the closed-form (Pi0, H0), reads Pi, H and
    Sigma off one linear pass from Y(0) = [[I, I], [Pi0, -H0]] (see the module
    docstring), and records the boundary residuals, the symplectic residual of
    Phi(1, 0) and the escape scans of both roots. Raises SingularMatrixError
    if X1 or X2 is singular on the grid, ConjugatePointError if det X1 or
    det X2 changes sign between two grid nodes, and BoundaryResidualError
    (solution attached, its message naming max |Sigma(1)|) if the terminal
    covariance misses sigma1 by more than RESIDUAL_TOL in relative Frobenius
    norm, or if Pi, H or Sigma is not finite on the grid. Raises DomainError
    unless grid_size is a positive integer. Sigma(t) is not inverted, so no
    DefinitenessError comes from it: its definiteness follows from the
    conjugate-point gate (see the module docstring).
    """
    return _solve_each([problem], grid_size)[1][0]


def _solve_each(
    problems: Sequence[SteeringProblem], grid_size: int
) -> tuple[np.ndarray, list[BridgeSolution]]:
    """Phi(1, 0) and the solutions of :func:`solve` for problems that differ only in eps.

    The eps-free work runs once: the controllability check, which refuses a
    grid_size that is not a positive integer first, and the propagation of
    Phi. Each eps then takes its roots and its plus-root escape scan from the
    full Phi stack, which is released before the Y pass. One Y pass serves
    every problem: problem i's Y(0) = [[I, I], [Pi0, -H0]] fills columns
    [2n i, 2n (i + 1)) of one 2n x 2nk state, and the pass multiplies
    the step matrices E_k of the Phi pass, which are released as soon as it
    returns. The solutions, and the error raised, are those a loop of
    :func:`solve` calls would give: the roots and then the flows are taken in
    eps order, and when eps_j's fail, eps_1 .. eps_{j-1} are gated in order
    before eps_j's error is raised.
    """
    sys = problems[0].sys
    require_controllable(sys, grid_size)
    grid, phi, e_k = propagate(sys, grid_size)
    phi1 = phi[-1].copy()  # a view would keep the whole stack alive

    def start(problem):
        roots = coupling_roots(problem.sigma0, problem.sigma1, phi1, problem.epsilon)
        plus = spurious_root_escape(problem, (grid, phi), roots.z_plus)
        return (problem, plus, *_initial_values(problem, roots))

    starts, error = _until_error(start, problems)
    del phi  # the Y pass and the diagnostics read no node of Phi but the last
    flows = []
    if starts:
        n = sys.dim_state
        eye = np.eye(n)
        y0 = np.block([[eye, eye] * len(starts),
                       [m for _, _, pi0, h0 in starts for m in (pi0, -h0)]])
        y_t = rk4_grid(e_k, y0)
        del e_k  # no E_k outlives the pass
        flows, read_error = _until_error(
            lambda i: _read_flows(y_t[:, :, 2 * n * i:2 * n * (i + 1)], problems[i], grid),
            range(len(starts)),
        )
        del y_t  # lowers the peak memory of the diagnostics below
        error = read_error or error
    # sampled after the reads, whose peak memory they would raise
    b_t, r_t = sys.B(grid), sys.R(grid)
    solutions = [_gated_solution(problem, *flow, plus, phi1, grid, b_t, r_t)
                 for (problem, plus, _, _), flow in zip(starts, flows)]
    if error is not None:
        raise error
    return phi1, solutions


def _until_error(fn, items) -> tuple[list, CovsteerError | None]:
    """[fn(x) for x in items] up to the first CovsteerError, and that error or None."""
    out = []
    for x in items:
        try:
            out.append(fn(x))
        except CovsteerError as exc:
            return out, exc
    return out, None


def _read_flows(
    y_t: np.ndarray, problem: SteeringProblem, grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, EscapeReport]:
    """(Pi, H, Sigma) from Y(t) = [[X1, X2], [Y1, Y2]] of one eps, and escape_minus.

    Pi = sym(Y1 X1^-1) and H = -sym(Y2 X2^-1) come from one batched inverse
    each of X1 and X2, Sigma = sym(X2 Sigma0 X1'), and escape_minus is the
    gate's det X1 as an :class:`EscapeReport`. Raises SingularMatrixError if
    X1 or X2 is singular at a node, and ConjugatePointError if det X1 or
    det X2 changes sign between two nodes.
    """
    x1, x2, y1, y2 = blocks(y_t)
    # a non-finite Y fails the finiteness gate, so its arithmetic need not warn
    with np.errstate(invalid="ignore", over="ignore"):
        pi_t = symmetrize(y1 @ _inverse_on_grid(x1, "X1", grid))
        h_t = symmetrize(y2 @ _inverse_on_grid(x2, "X2", grid))
        np.negative(h_t, out=h_t)
        dets = np.linalg.det(x1), np.linalg.det(x2)
        _require_no_conjugate_point(*dets, grid)
        sigma_t = symmetrize(x2 @ problem.sigma0 @ np.swapaxes(x1, -1, -2))
    return pi_t, h_t, sigma_t, _escape_report(grid, dets[0])


def _inverse_on_grid(x: np.ndarray, name: str, grid: np.ndarray) -> np.ndarray:
    """x^-1 at every node; SingularMatrixError naming the node where det x is smallest."""
    try:
        return np.linalg.inv(x)
    except np.linalg.LinAlgError as exc:
        k = np.argmin(np.abs(np.linalg.det(x)))
        raise SingularMatrixError(
            f"{name}(t) is singular on the grid, at t = {grid[k]:.6g}") from exc


def _require_no_conjugate_point(det1: np.ndarray, det2: np.ndarray, grid: np.ndarray) -> None:
    """Raise ConjugatePointError at the first grid interval where det X1 or det X2 flips sign.

    det1 and det2 are their values at the nodes. Past a zero of det X the flow
    has reached a conjugate point, where Pi or H escapes and the expected cost
    is unbounded below. Only a strict sign change counts; a NaN determinant is
    left to the finiteness gate.
    """
    signs = np.sign([det1, det2])
    flips = signs[:, :-1] * signs[:, 1:] < 0
    hits = np.flatnonzero(flips.any(axis=0))
    if len(hits):
        k = hits[0]
        name = "X1" if flips[0, k] else "X2"
        raise ConjugatePointError(
            f"the flow reaches a conjugate point: det {name}(t) changes sign between "
            f"t = {grid[k]:.6g} and t = {grid[k + 1]:.6g}, so no optimal law exists",
            interval=(float(grid[k]), float(grid[k + 1])),
        )


def _scaled_norm(a: np.ndarray) -> tuple[float, float]:
    """(||a / s||_F, s), s the power of two in (max |a| / 2, max |a|]; 1 at max |a| 0 or inf."""
    peak = float(np.abs(a).max())
    s = math.ldexp(1.0, math.frexp(peak)[1] - 1) if 0.0 < peak < math.inf else 1.0
    return float(np.linalg.norm(a / s)), s


def _relative_miss(x: np.ndarray, target: np.ndarray) -> float:
    """||x - target||_F / ||target||_F from the two norms of :func:`_scaled_norm`.

    The scales are powers of two, so the quotient reads as the unscaled one does
    wherever that one neither overflows nor underflows, while an x past about
    1e154, whose squares overflow, gives a finite miss and no RuntimeWarning.
    """
    (miss, s_miss), (ref, s_ref) = _scaled_norm(x - target), _scaled_norm(target)
    return miss / ref * (s_miss / s_ref)


def _gated_solution(
    problem: SteeringProblem,
    pi_t: np.ndarray,
    h_t: np.ndarray,
    sigma_t: np.ndarray,
    escape_minus: EscapeReport,
    escape_plus: EscapeReport,
    phi1: np.ndarray,
    grid: np.ndarray,
    b_t: np.ndarray,
    r_t: np.ndarray,
) -> BridgeSolution:
    """Gains, residuals and diagnostics of one eps's flows, and the solution's gates.

    escape_minus is what :func:`_read_flows` read, escape_plus is the plus
    root's scan and phi1 is Phi(1, 0).
    """
    finite = all(np.isfinite(arr).all() for arr in (pi_t, h_t, sigma_t))
    gains = solve_r(r_t, np.swapaxes(b_t, -1, -2) @ pi_t, grid)

    res0 = _relative_miss(sigma_t[0], problem.sigma0)
    res1 = _relative_miss(sigma_t[-1], problem.sigma1)

    diagnostics = {
        "symplectic_residual": symplectic_residual(phi1),
        "escape_minus": escape_minus,
        "escape_plus": escape_plus,
    }

    solution = BridgeSolution(
        grid=grid,
        pi=pi_t,
        h=h_t,
        k=gains,
        sigma=sigma_t,
        boundary_residuals=(res0, res1),
        epsilon=problem.epsilon,
        diagnostics=diagnostics,
    )
    if not (res1 <= RESIDUAL_TOL):
        raise BoundaryResidualError(
            f"terminal covariance residual {res1:.3e} exceeds {RESIDUAL_TOL:.3e}; "
            f"max |Sigma(1)| = {np.abs(sigma_t[-1]).max():.3e}",
            solution=solution,
        )
    if not finite:
        raise BoundaryResidualError(
            "Pi, H or Sigma has non-finite entries on the grid", solution=solution
        )
    return solution


@dataclass(frozen=True)
class EscapeReport:
    """Determinant track of X(t) = Phi11(t,0) + Phi12(t,0)(eps/2 Sigma0^-1 + Z).

    A determinant sign change on (0, 1) witnesses an interior singularity of
    the linearized flow, i.e. finite escape of the corresponding Riccati
    solution. Expected for the plus root and absent for the minus root, whose
    X is the X1 of the solver's Y pass.
    """

    times: np.ndarray
    determinants: np.ndarray
    min_abs_determinant: float
    sign_change: bool


def spurious_root_escape(
    problem: SteeringProblem,
    transitions: tuple[np.ndarray, np.ndarray],
    root: np.ndarray,
) -> EscapeReport:
    """Scan det X(t) for one coupling root along transitions = (times, Phi(times, 0))."""
    times, phi = transitions
    if len(times) == 0:
        raise DomainError("escape scan needs at least one node")
    y0 = 0.5 * problem.epsilon * _inv_spd(problem.sigma0) + root
    phi11, phi12, _, _ = blocks(phi)
    # det X can overflow below PHI_LIMIT; an infinite det keeps its sign, and
    # min |det X| includes X(0) = I
    with np.errstate(over="ignore"):
        return _escape_report(times, np.linalg.det(phi11 + phi12 @ y0))


def _escape_report(times: np.ndarray, dets: np.ndarray) -> EscapeReport:
    """The report of dets = det X(times); a sign change counts at times in (0, 1] only."""
    signs = np.sign(dets[(times > 0.0) & (times < 1.0 + 1e-12)])  # dets' products could underflow
    return EscapeReport(times=times, determinants=dets,
                        min_abs_determinant=float(np.abs(dets).min()),
                        sign_change=bool(np.any(signs[:-1] * signs[1:] < 0)))


def corollary_q_zero(problem: SteeringProblem, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Gramian-route initial values for zero state penalty.

    With Q = 0 the Hamiltonian blocks collapse to Phi11 = Psi(1, 0) and
    Phi12 = -M(1, 0) Psi(1, 0)^-T, so Pi0 follows from the drift transition
    matrix and the reachability Gramian alone (general R folds into the
    Gramian, which integrates the channel B R^-1/2). Must agree with
    :func:`initial_conditions` on the same problem. Both passes run on the
    horizon's grid of grid_size steps, and Q is checked at each of its stage
    times. Raises DomainError unless grid_size is a positive integer.
    """
    sys = problem.sys
    if np.abs(sys.Q(stage_times(horizon_grid(grid_size)))).max() > 1e-12:
        raise DomainError("corollary_q_zero requires Q = 0")

    psi = state_transition(sys, grid_size)
    gram = reachability_gramian(sys, grid_size)
    gram_inv = _inv_spd(gram)

    eps = problem.epsilon
    s0_inv = _inv_spd(problem.sigma0)
    s0_half, s0_inv_half = _sqrt_spd_pair(problem.sigma0)
    mid = symmetrize(psi.T @ gram_inv @ problem.sigma1 @ gram_inv @ psi)
    eye = np.eye(sys.dim_state)
    core = sqrt_spd(0.25 * eps**2 * eye + symmetrize(s0_half @ mid @ s0_half))
    pi0 = symmetrize(
        0.5 * eps * s0_inv
        + psi.T @ gram_inv @ psi
        - s0_inv_half @ core @ s0_inv_half
    )
    h0 = symmetrize(eps * s0_inv - pi0)
    return pi0, h0


@dataclass(frozen=True)
class SweepRow:
    epsilon: float
    pi0: np.ndarray
    gap: float
    boundary_residuals: tuple[float, float]


def epsilon_sweep(
    problem: SteeringProblem,
    eps_list: Sequence[float],
    grid_size: int = 1000,
) -> list[SweepRow]:
    """Solve at each eps: Pi0(eps), its Frobenius gap to the zero-noise Pi0, residuals.

    Each row equals a standalone :func:`solve` at that eps. The controllability
    check and the Hamiltonian transition matrix do not depend on eps, so one
    propagation serves every solve of the sweep, and one Y pass integrates
    every eps's Y(0) side by side (see the module docstring). The error raised
    is the one the first failing standalone solve would raise. eps_list must
    be nonempty and pass :func:`_checked_eps_list`, the check the CLI applies
    to its config's eps_list; the gap column is expected to decrease
    monotonically and scale O(eps).
    """
    problems = [replace(problem, epsilon=eps) for eps in _checked_eps_list(eps_list)]
    if len(problems) == 0:
        raise DomainError("eps_list must not be empty")

    phi1, solutions = _solve_each(problems, grid_size)
    pi0_limit = initial_conditions(replace(problem, epsilon=0.0), phi1)[0]
    rows = []
    for sol in solutions:
        pi0 = sol.pi[0].copy()
        gap = float(np.linalg.norm(pi0 - pi0_limit))
        rows.append(SweepRow(sol.epsilon, pi0, gap, sol.boundary_residuals))
    return rows
