"""Coupled-Riccati solver steering a Gaussian state law between two covariances.

Two matrix Riccati flows Pi(t) and H(t) share the dynamics' coefficients but
are coupled only through their boundary conditions

    Pi(0) + H(0) = eps * Sigma0^-1,    Pi(1) + H(1) = eps * Sigma1^-1,

where eps >= 0 is the noise intensity (eps = 0 is the deterministic
mass-transport limit). The boundary problem has a closed-form initial value:
linearizing both flows through the Hamiltonian transition matrix reduces the
coupling to a quadratic matrix equation whose two symmetric roots are written
explicitly in terms of the Phi blocks; only the smaller root yields flows
free of finite escape on [0, 1]. :func:`_roots` is that closed form and
:func:`_start` a root's (Pi0, H0); the Phi route and the Gramian route
(Q = 0) feed them alike. Given (Pi0, H0), one pass of the same linear
flow from Y(0) = [[I, I], [Pi0, -H0]] gives Y(t) = [[X1, X2], [Y1, Y2]], and
Pi = Y1 X1^-1, H = -Y2 X2^-1. The flow conserves X1' Y2 - Y1' X2 =
-eps Sigma0^-1, so the state covariance eps (Pi + H)^-1 is X2 Sigma0 X1' for
every eps >= 0, free of the inverse that cancels catastrophically at tiny eps.

The noise enters through the control channel scaled by the input weight,

    dx = (A x + B u) dt + sqrt(eps) B R^-1/2 dw,

which is the model the coupling roots assume; R = I gives sqrt(eps) B dw.
:func:`covsteer.systems.noise_channel` is B R^-1/2, and
:func:`covsteer.systems.input_quad` is B R^-1 B', both the control weight and
the diffusion; :func:`covsteer.systems.gain_factor` is the gains' R^-1 B'. All
three come from one checked R^-1/2. The controllability Gramian integrates
the same channel.

Phi(t, 0) and the controllability of (A, B) depend on the system alone, not
on eps, so :func:`epsilon_sweep` propagates once and solves every eps on the
same transitions and one symplectic residual of Phi(1, 0); the Phi stack
is released as soon as Phi(1, 0) is copied. The Y pass integrates the same
flow on the same grid as Phi, so it samples no coefficient: it multiplies
Y(0) through the RK4 step matrices E_k that
:func:`covsteer.hamiltonian.propagate` built, which are released as soon as
the pass returns. The Y pass is linear
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
changes sign; a Q that is positive semidefinite at every stage time cannot,
so there a sign change is rounding and raises ConditioningError. The same
gate stands in for a definiteness check of Sigma(t) = X2 Sigma0 X1':
Sigma(0) = Sigma0 is positive definite, and an eigenvalue of Sigma(t) can
change sign only where det Sigma(t) = det X2 det Sigma0 det X1 vanishes. So
Sigma(t) is never inverted or tested.
X1 is the minus root's X, so the gate's det X1 is that root's escape scan.
The plus root's escape is the problem's, not a solve's: ``covsteer verify``
scans it with :func:`spurious_root_escape` on propagate's Phi stack.
Pi, H and both determinants come from one LU factorization each of X1 and
X2 at each node, and no inverse. Pi + H - eps Sigma^-1 is not read: with this
Sigma it measures only the discrete flow's departure from symplecticity,
which :func:`covsteer.hamiltonian.symplectic_residual` reads on Phi(1, 0).
"""

from __future__ import annotations

import math
from types import MappingProxyType
from typing import Mapping, NamedTuple, Sequence

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
from .integrate import horizon_grid, is_real, once, rk4_grid, stage_times
from .systems import (
    PD_TOL,
    TimeVaryingLinearSystem,
    _spd_eigh,
    _sqrt_spd_pair,
    gain_factor,
    reachability_gramian,
    require_controllable,
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


class _SteeringProblemFields(NamedTuple):
    sys: TimeVaryingLinearSystem
    sigma0: np.ndarray
    sigma1: np.ndarray
    epsilon: float = 1.0


class SteeringProblem(_SteeringProblemFields):
    """System plus SPD boundary covariances and noise intensity eps >= 0.

    Construction stores sigma0 and sigma1 symmetrized, as floats, and eps as a
    float. It raises DomainError on a covariance that is not n x n or not
    finite and on an eps that :func:`_checked_epsilon` refuses, and
    DefinitenessError on a covariance that fails the scale-free SPD rule of
    :func:`covsteer.systems._spd_eigh`.
    problem._replace(epsilon=...) builds its copy through the same checks.
    """

    __slots__ = ()

    def __new__(cls, sys, sigma0, sigma1, epsilon=1.0):
        n = sys.dim_state
        s0 = np.asarray(sigma0, dtype=float)
        s1 = np.asarray(sigma1, dtype=float)
        if s0.shape != (n, n) or s1.shape != (n, n):
            raise DomainError("boundary covariances must be n x n")
        s0, s1 = symmetrize(s0), symmetrize(s1)
        for name, s in (("sigma0", s0), ("sigma1", s1)):
            _spd_eigh(s, name=name)
        return super().__new__(cls, sys, s0, s1, _checked_epsilon(epsilon))

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


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


class CouplingRoots(NamedTuple):
    """Both symmetric roots of the boundary-coupling quadratic.

    z_minus is the usable branch; z_plus produces a flow with finite escape
    inside (0, 1) and is retained for the escape diagnostic. t_weight is the
    SPD matrix mapped = (Phi12' Sigma1^-1 Phi12)^-1 of :func:`_roots`.
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
    """:func:`_roots` at noise level eps, read off phi = Phi(1, 0).

    base = -Phi12^-1 Phi11 and mapped = Phi12^-1 Sigma1 Phi12^-T. eps must be
    an eps :class:`SteeringProblem` takes. Phi12 past a condition number of
    COND_LIMIT raises ConditioningError.
    """
    epsilon = _checked_epsilon(epsilon)
    sigma0 = symmetrize(np.asarray(sigma0, dtype=float))
    sigma1 = symmetrize(np.asarray(sigma1, dtype=float))
    phi11, phi12, _, _ = blocks(phi)
    inv12 = _checked_inverse(phi12, "Phi12")
    return _roots(symmetrize(-inv12 @ phi11), symmetrize(inv12 @ sigma1 @ inv12.T),
                  sigma0, epsilon)


def _roots(base: np.ndarray, mapped: np.ndarray, sigma0: np.ndarray,
           epsilon: float) -> CouplingRoots:
    """The coupling's closed form: Z+- = base +- S0^-1/2 C S0^-1/2, t_weight = mapped.

    C = (eps^2 I / 4 + S0^1/2 mapped S0^1/2)^1/2 is the core, and S0 = Sigma0;
    eps != 1 scales the boundary conditions to eps * Sigma^-1, which folds into
    eps^2 I / 4. The core is SPD when mapped is, so where it fails
    :func:`covsteer.systems._spd_eigh`'s rule it raises ConditioningError.
    """
    s0_half, s0_inv_half = _sqrt_spd_pair(sigma0)
    inner = 0.25 * epsilon**2 * np.eye(len(sigma0)) + symmetrize(s0_half @ mapped @ s0_half)
    try:
        core = _sqrt_spd_pair(inner)[0]
    except DefinitenessError as exc:
        raise ConditioningError(
            f"the coupling core is too ill-conditioned for its square root "
            f"(condition number {np.linalg.cond(inner):.3e})"
        ) from exc
    offset = symmetrize(s0_inv_half @ core @ s0_inv_half)
    return CouplingRoots(symmetrize(base - offset), symmetrize(base + offset), mapped)


def _start(root: np.ndarray, problem: SteeringProblem) -> tuple[np.ndarray, np.ndarray]:
    """(Pi0, H0) of a coupling root Z: Pi0 = Z + eps/2 Sigma0^-1, H0 = eps Sigma0^-1 - Pi0."""
    s0_inv = _inv_spd(problem.sigma0)
    pi0 = symmetrize(root + 0.5 * problem.epsilon * s0_inv)
    return pi0, symmetrize(problem.epsilon * s0_inv - pi0)


def initial_conditions(
    problem: SteeringProblem, phi: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(Pi0, H0) of :func:`_start` on the escape-free root Z- of phi = Phi(1, 0).

    At eps = 0, H0 = -Pi0 and only Pi0 drives the control.
    """
    roots = coupling_roots(problem.sigma0, problem.sigma1, phi, problem.epsilon)
    return _start(roots.z_minus, problem)


class BridgeSolution(NamedTuple):
    """Solved trajectories on a uniform grid over [0, 1].

    Arrays are indexed by grid point: pi, h, sigma are (N+1, n, n) and the
    feedback gain k = R^-1 B' Pi is (N+1, m, n). boundary_residuals holds the
    relative Frobenius mismatch of sigma at t = 0 (zero by construction) and
    t = 1. diagnostics holds symplectic_residual (of Phi(1, 0)) and the minus
    root's escape scan escape_minus, an EscapeReport; built without it, it is
    an empty read-only mapping.
    """

    grid: np.ndarray
    pi: np.ndarray
    h: np.ndarray
    k: np.ndarray
    sigma: np.ndarray
    boundary_residuals: tuple[float, float]
    epsilon: float
    diagnostics: Mapping = MappingProxyType({})


def solve(problem: SteeringProblem, grid_size: int = 1000) -> BridgeSolution:
    """Solve the steering problem end-to-end on a uniform RK4 grid.

    Propagates Phi(t, 0), forms the closed-form (Pi0, H0), reads Pi, H and
    Sigma off one linear pass from Y(0) = [[I, I], [Pi0, -H0]] (see the module
    docstring), and records the boundary residuals, the symplectic residual of
    Phi(1, 0) and the minus root's escape scan. Raises SingularMatrixError
    if X1 or X2 is singular on the grid, ConjugatePointError if det X1 or
    det X2 changes sign between two grid nodes (ConditioningError under a
    positive semidefinite Q), and BoundaryResidualError
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
    grid_size that is not a positive integer first, the propagation of Phi,
    whose stack goes once Phi(1, 0) is copied, and Phi(1, 0)'s symplectic
    residual. Each eps takes its roots from Phi(1, 0). One Y pass serves
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
    del phi  # no reading takes a node of Phi but the last
    symplectic = symplectic_residual(phi1)

    starts, error = _until_error(lambda problem: initial_conditions(problem, phi1), problems)
    flows = []
    if starts:
        n = sys.dim_state
        eye = np.eye(n)
        y0 = np.block([[eye, eye] * len(starts),
                       [m for pi0, h0 in starts for m in (pi0, -h0)]])
        y_t = rk4_grid(e_k, y0)
        del e_k  # no E_k outlives the pass
        flows, read_error = _until_error(
            lambda i: _read_flows(y_t[:, :, 2 * n * i:2 * n * (i + 1)], problems[i], grid,
                                  phi1),
            range(len(starts)),
        )
        del y_t  # lowers the peak memory of the diagnostics below
        error = read_error or error
    # sampled after the reads, whose peak memory it would raise
    r_inv_bt = gain_factor(sys, grid)
    solutions = [_gated_solution(problem, *flow, symplectic, grid, r_inv_bt)
                 for problem, flow in zip(problems, flows)]
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
    y_t: np.ndarray, problem: SteeringProblem, grid: np.ndarray, phi1: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, EscapeReport]:
    """(Pi, H, Sigma) from Y(t) = [[X1, X2], [Y1, Y2]] of one eps, and escape_minus.

    Pi = sym(Y1 X1^-1), H = -sym(Y2 X2^-1) and the gate's det X1 and det X2
    come from :func:`_quotient_on_grid`, Sigma = sym(X2 Sigma0 X1'), and
    escape_minus is det X1 as an :class:`EscapeReport`. Raises
    SingularMatrixError if X1 or X2 is singular at a node, and, if det X1 or
    det X2 changes sign between two nodes, the error of
    :func:`_require_no_conjugate_point`.
    """
    x1, x2, y1, y2 = blocks(y_t)
    pi_t, det1 = _quotient_on_grid(x1, y1, "X1", grid)
    h_t, det2 = _quotient_on_grid(x2, y2, "X2", grid)
    np.negative(h_t, out=h_t)
    _require_no_conjugate_point(det1, det2, grid, problem.sys, phi1)
    # a non-finite Y fails the finiteness gate, so its arithmetic need not warn
    with np.errstate(invalid="ignore", over="ignore"):
        sigma_t = symmetrize(x2 @ problem.sigma0 @ np.swapaxes(x1, -1, -2))
    return pi_t, h_t, sigma_t, _escape_report(grid, det1)


def _quotient_on_grid(
    x: np.ndarray, y: np.ndarray, name: str, grid: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(sym(y x^-1), det x) at every node of the (N, n, n) stacks x and y.

    LU with partial pivoting of x' at all nodes at once, carrying y' along;
    det x is the signed product of the pivots. The first node with a zero
    pivot raises SingularMatrixError; a non-finite node gives NaN or inf, unwarned.
    """
    n = x.shape[-1]
    a = np.transpose(x, (2, 1, 0)).copy()  # a[:, :, j] is x' at node j
    b = np.transpose(y, (2, 1, 0)).copy()
    odd = np.zeros(len(grid), dtype=bool)  # an odd number of row swaps at the node
    tmp = np.empty_like(b[0])  # scratch: each row update's product, so none allocates
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(n - 1):
            _swap_in_pivot_rows(a, b, k, odd, tmp)
            for i in range(k + 1, n):
                a[i, k] /= a[k, k]  # the multiplier, kept in the place it eliminates
                a[i, k + 1:] -= np.multiply(a[i, k], a[k, k + 1:], out=tmp[k + 1:])
                b[i] -= np.multiply(a[i, k], b[k], out=tmp)
        for k in reversed(range(n)):
            for j in range(k + 1, n):
                b[k] -= np.multiply(a[k, j], b[j], out=tmp)
            b[k] /= a[k, k]
        del tmp
        pivots = np.diagonal(a, axis1=0, axis2=1)  # (N, n)
        det = np.prod(pivots, axis=-1)
    np.negative(det, out=det, where=odd)
    singular = (pivots == 0.0).any(axis=-1)
    if singular.any():
        raise SingularMatrixError(
            f"{name}(t) is singular on the grid, at t = {grid[np.argmax(singular)]:.6g}")
    del a, pivots
    # symmetrize's arithmetic, nodes last; each copy is freed before the next is made
    q = np.swapaxes(b, 0, 1).copy()
    q += b
    del b
    q *= 0.5
    return np.transpose(q, (2, 0, 1)).copy(), det


def _swap_in_pivot_rows(a: np.ndarray, b: np.ndarray, k: int, odd: np.ndarray,
                        tmp: np.ndarray) -> None:
    """Swap row k of a and b with the row i >= k of the first largest |a[i, k]|
    at each node, as LAPACK pivots; odd flips there. tmp is scratch."""
    rows, best, entry = np.full(len(odd), k), np.abs(a[k, k], out=tmp[0]), tmp[1]
    for i in range(k + 1, len(a)):
        rows[np.abs(a[i, k], out=entry) > best] = i
        np.fmax(best, entry, out=best)
    nodes = np.flatnonzero(rows != k)
    rows = rows[nodes]
    for m in (a[:, k:], b):  # the multipliers left of column k are spent
        row_k = m[k][:, nodes]
        m[k][:, nodes] = m[rows, :, nodes].T
        m[rows, :, nodes] = row_k.T
    odd[nodes] ^= True


def _require_no_conjugate_point(
    det1: np.ndarray,
    det2: np.ndarray,
    grid: np.ndarray,
    sys: TimeVaryingLinearSystem,
    phi1: np.ndarray,
) -> None:
    """Raise ConjugatePointError at the first grid interval where det X1 or det X2 flips sign.

    det1 and det2 are their values at the nodes. Past a zero of det X the flow
    has reached a conjugate point, where Pi or H escapes and the expected cost
    is unbounded below. Only a strict sign change counts; a NaN determinant is
    left to the finiteness gate. A Q that is positive semidefinite at every
    stage time reaches none, so there the flip is rounding: ConditioningError
    naming max |phi1|, phi1 being Phi(1, 0).
    """
    signs = np.sign([det1, det2])
    flips = signs[:, :-1] * signs[:, 1:] < 0
    hits = np.flatnonzero(flips.any(axis=0))
    if len(hits):
        k = hits[0]
        flip = (f"det {'X1' if flips[0, k] else 'X2'}(t) changes sign between "
                f"t = {grid[k]:.6g} and t = {grid[k + 1]:.6g}")
        w = once(np.linalg.eigvalsh, sys.Q(stage_times(grid)))  # on this path alone
        if (w[..., 0] >= -PD_TOL * np.abs(w).max(axis=-1)).all():  # Q >= 0 up to rounding
            raise ConditioningError(
                f"{flip}, but Q(t) is positive semidefinite, so the flow has no conjugate "
                f"point and the sign change is rounding: the flow is too ill-conditioned "
                f"(max |Phi(1, 0)| = {np.abs(phi1).max():.3e})")
        raise ConjugatePointError(
            f"the flow reaches a conjugate point: {flip}, so no optimal law exists",
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
    symplectic: float,
    grid: np.ndarray,
    r_inv_bt: np.ndarray,
) -> BridgeSolution:
    """Gains, residuals and diagnostics of one eps's flows, and the solution's gates.

    escape_minus is what :func:`_read_flows` read, symplectic is the
    symplectic residual of Phi(1, 0), and r_inv_bt is R^-1 B' on the grid.
    """
    finite = all(np.isfinite(arr).all() for arr in (pi_t, h_t, sigma_t))
    gains = r_inv_bt @ pi_t

    res0 = _relative_miss(sigma_t[0], problem.sigma0)
    res1 = _relative_miss(sigma_t[-1], problem.sigma1)

    diagnostics = {"symplectic_residual": symplectic, "escape_minus": escape_minus}

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


class EscapeReport(NamedTuple):
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
    """Scan det(Phi11 + Phi12 Pi0), Pi0 :func:`_start`'s of root, along (times, Phi(times, 0))."""
    times, phi = transitions
    if len(times) == 0:
        raise DomainError("escape scan needs at least one node")
    phi11, phi12, _, _ = blocks(phi)
    # det X can overflow below PHI_LIMIT; an infinite det keeps its sign, and
    # min |det X| includes X(0) = I
    with np.errstate(over="ignore"):
        return _escape_report(times, np.linalg.det(phi11 + phi12 @ _start(root, problem)[0]))


def _escape_report(times: np.ndarray, dets: np.ndarray) -> EscapeReport:
    """The report of dets = det X(times); a sign change counts at times in (0, 1] only."""
    signs = np.sign(dets[(times > 0.0) & (times < 1.0 + 1e-12)])  # dets' products could underflow
    return EscapeReport(times=times, determinants=dets,
                        min_abs_determinant=float(np.abs(dets).min()),
                        sign_change=bool(np.any(signs[:-1] * signs[1:] < 0)))


def corollary_q_zero(problem: SteeringProblem, grid_size: int) -> tuple[np.ndarray, np.ndarray]:
    """(Pi0, H0) of :func:`initial_conditions` for Q = 0, by the Gramian route.

    With Q = 0, Phi11 = Psi(1, 0) and Phi12 = -G Psi(1, 0)^-T, G the
    reachability Gramian (of the channel B R^-1/2), so :func:`_roots` takes
    base = Psi' G^-1 Psi and mapped = Psi' G^-1 Sigma1 G^-1 Psi. G is inverted
    by Phi12's rule, so both routes refuse alike. Both passes run on the
    horizon's grid of grid_size steps, and Q is checked at each of its stage
    times. Raises DomainError unless Q is exactly 0 there and grid_size is a
    positive integer.
    """
    sys = problem.sys
    if (sys.Q(stage_times(horizon_grid(grid_size))) != 0.0).any():
        raise DomainError("corollary_q_zero requires Q = 0")

    psi = state_transition(sys, grid_size)
    gram = reachability_gramian(sys, grid_size)
    inv12 = psi.T @ _checked_inverse(gram, "the Gramian")  # -Phi12^-1
    roots = _roots(symmetrize(inv12 @ psi), symmetrize(inv12 @ problem.sigma1 @ inv12.T),
                   problem.sigma0, problem.epsilon)
    return _start(roots.z_minus, problem)


class SweepRow(NamedTuple):
    """One eps of :func:`epsilon_sweep`.

    epsilon is the noise intensity, pi0 is Pi(0) at it, gap is the Frobenius
    norm of pi0 minus the zero-noise Pi(0), and boundary_residuals are the
    solve's relative Sigma mismatches at t = 0 and t = 1.
    """

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
    problems = [problem._replace(epsilon=eps) for eps in _checked_eps_list(eps_list)]
    if len(problems) == 0:
        raise DomainError("eps_list must not be empty")

    phi1, solutions = _solve_each(problems, grid_size)
    pi0_limit = initial_conditions(problem._replace(epsilon=0.0), phi1)[0]
    rows = []
    for sol in solutions:
        pi0 = sol.pi[0].copy()
        gap = float(np.linalg.norm(pi0 - pi0_limit))
        rows.append(SweepRow(sol.epsilon, pi0, gap, sol.boundary_residuals))
    return rows
