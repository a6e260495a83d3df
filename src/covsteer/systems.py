"""Time-varying linear system coefficients, the drift transition and the Gramian.

A system is a quadruple of matrix-valued coefficient maps on [0, 1]:
state drift A(t) (n x n), input/noise channel B(t) (n x m), state penalty
Q(t) (symmetric n x n, any sign) and input weight R(t) (SPD m x m).
Coefficients may be constant matrices, closed-form callables,
piecewise-constant tables or linearly interpolated sample grids. Every map
of a built system also takes a 1-d array of times, so the drift transition
and the Gramian's sweep hand A, or -A', to :func:`covsteer.integrate.step_stack`
as its sampler and A is evaluated once per stage time of each pass. A
constant map returns one matrix repeated with zero stride along time, and
keeps it through symmetrization, -A', B R^-1 B' and B R^-1/2, so a pass
over a constant A samples it once. The controllability Gramian integrates
the channel B R^-1/2 that the solver uses, not B.

The horizon is the one interval [0, 1]: the drift transition is Psi(1, 0),
the Gramian is taken over (0, 1), and both run on the grid_size steps of
:func:`covsteer.integrate.horizon_grid`, as the solver's own passes do.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ControllabilityError, DefinitenessError, DomainError, SingularMatrixError
from .integrate import horizon_grid, is_constant, once, rk4_grid, simpson_uniform, step_stack

MatrixMap = Callable[[float], np.ndarray]  # built maps also take a 1-d array of times

PD_TOL = 1e-12  # an SPD matrix needs min eigenvalue > PD_TOL * max(1, max eigenvalue)
CONTROLLABILITY_TOL = 1e-9  # (A, B) is controllable if the Gramian's min eigenvalue exceeds it


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return (M + M') / 2 of a float matrix or of each matrix in a stack, as a new array.

    M' is copied and M added to it in place: a sum of M and its transposed view
    would make numpy allocate a 64 KiB iteration buffer on top of the result.
    """
    out = np.swapaxes(m, -1, -2).copy()
    out += m
    out *= 0.5
    return out


def _spd_eigh(s, tol: float = PD_TOL, name: str = "matrix") -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a symmetric positive definite matrix or stack.

    The input is symmetrized first. Raises DomainError on non-finite entries
    and DefinitenessError when an eigenvalue is at or below
    tol * max(1, largest eigenvalue) of its matrix.
    """
    s = symmetrize(np.asarray(s, dtype=float))
    if not np.isfinite(s).all():
        raise DomainError(f"{name} has non-finite entries")
    w, v = np.linalg.eigh(s)  # eigenvalues ascending
    bad = w[..., 0] <= tol * np.maximum(1.0, w[..., -1])
    if np.any(bad):
        lam, top = w[bad][0, [0, -1]].tolist()  # the first matrix that fails
        raise DefinitenessError(
            f"{name} is not positive definite (min eigenvalue {lam:.3e} is not above "
            f"{tol:g} * max(1, max eigenvalue {top:.3e}))",
            min_eigenvalue=lam,
        )
    return w, v


def _sqrt_spd_pair(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S^1/2, S^-1/2) from one eigendecomposition, of a matrix or of each matrix in a stack."""
    w, v = _spd_eigh(s)
    sw = np.sqrt(w)[..., None, :]
    vt = np.swapaxes(v, -1, -2)
    return symmetrize((v * sw) @ vt), symmetrize((v / sw) @ vt)


def _in_range(t, lo: float, hi: float, what: str):
    """t clipped to [lo, hi], a float or an array like t; DomainError if a time lies
    more than 1e-12 outside."""
    ts = np.asarray(t, dtype=float)
    outside = ~((ts >= lo - 1e-12) & (ts <= hi + 1e-12))  # NaN is outside
    if outside.any():
        raise DomainError(f"time {ts[outside].flat[0]} outside {what} [{lo:g}, {hi:g}]")
    return float(min(max(ts, lo), hi)) if ts.ndim == 0 else np.minimum(np.maximum(ts, lo), hi)


def _check_time(t):
    return _in_range(t, 0.0, 1.0, "the horizon")


def _vectorized(f: MatrixMap) -> MatrixMap:
    """Mark f as a map that takes a time and returns a matrix, or takes a 1-d array
    of times and returns their stack in one call."""
    f.vectorized = True
    return f


def constant_coefficient(value) -> MatrixMap:
    """The matrix itself at a time, and a read-only broadcast stack at an array of times.

    Raises DomainError unless value is a 2-d matrix of finite values.
    """
    mat = np.array(value, dtype=float)
    if mat.ndim != 2:
        raise DomainError("constant coefficient must be a 2-d matrix")
    if not np.isfinite(mat).all():
        raise DomainError("constant coefficient values must be finite")

    def f(t):
        return mat if np.ndim(t) == 0 else np.broadcast_to(mat, np.shape(t) + mat.shape)

    return _vectorized(f)


def piecewise_constant_coefficient(breaks: Sequence[float], values) -> MatrixMap:
    """Coefficient equal to values[i] on [breaks[i], breaks[i+1]).

    breaks has len(values) + 1 entries and must cover the query range.
    """
    bk = np.asarray(breaks, dtype=float)
    vals = np.array(values, dtype=float)
    if vals.ndim != 3 or len(bk) != len(vals) + 1:
        raise DomainError("piecewise coefficient needs len(values)+1 breakpoints")
    if not np.all(np.diff(bk) > 0):
        raise DomainError("piecewise breakpoints must be strictly increasing")
    if not np.isfinite(vals).all():
        raise DomainError("piecewise coefficient values must be finite")

    def f(t):
        t = _in_range(t, bk[0], bk[-1], "piecewise range")
        return vals[np.minimum(bk.searchsorted(t, side="right") - 1, len(vals) - 1)]

    return _vectorized(f)


def sampled_coefficient(times: Sequence[float], values) -> MatrixMap:
    """Coefficient linearly interpolated between samples.

    Evaluation outside [times[0], times[-1]] is a domain error.
    """
    ts = np.asarray(times, dtype=float)
    vals = np.array(values, dtype=float)
    if vals.ndim != 3 or len(ts) != len(vals) or len(ts) < 2:
        raise DomainError("sampled coefficient needs matching times/values, >= 2 samples")
    if not np.all(np.diff(ts) > 0):
        raise DomainError("sample times must be strictly increasing")
    if not np.isfinite(vals).all():
        raise DomainError("sampled coefficient values must be finite")

    def f(t):
        t = _in_range(t, ts[0], ts[-1], "sample range")
        i = np.minimum(ts.searchsorted(t, side="right") - 1, len(ts) - 2)
        w = ((t - ts[i]) / (ts[i + 1] - ts[i]))[..., None, None]
        return (1.0 - w) * vals[i] + w * vals[i + 1]

    return _vectorized(f)


def as_coefficient(spec) -> MatrixMap:
    """A map that takes a time or a 1-d array of times (see :func:`_vectorized`).

    A non-callable spec is a constant matrix and a marked map passes through.
    Any other callable is taken to map one time to a matrix; at an array of
    times it is called once per time.
    """
    if not callable(spec):
        return constant_coefficient(spec)
    if getattr(spec, "vectorized", False):
        return spec

    def per_time(t):
        if np.ndim(t) == 0:
            return spec(t)
        return np.array([spec(tau) for tau in np.asarray(t).tolist()], dtype=float)

    return _vectorized(per_time)


def _symmetric_coefficient(spec) -> MatrixMap:
    """Coefficient whose every value, or stack, is symmetrized; a constant is symmetrized once.

    A constant stack of a callable keeps its zero stride: its one matrix is
    symmetrized and broadcast along time (see :func:`covsteer.integrate.once`).
    """
    coef = as_coefficient(spec)
    if not callable(spec):
        return constant_coefficient(symmetrize(coef(0.0)))
    return _vectorized(lambda t: once(symmetrize, np.asarray(coef(t), dtype=float)))


@dataclass(frozen=True)
class TimeVaryingLinearSystem:
    """Immutable bundle of coefficient maps; build via :func:`make_system`."""

    dim_state: int
    dim_input: int
    A: MatrixMap
    B: MatrixMap
    Q: MatrixMap = field(repr=False)
    R: MatrixMap = field(repr=False)


def make_system(A, B, Q=None, R=None) -> TimeVaryingLinearSystem:
    """Build a validated system from coefficient specs.

    Each of A, B, Q, R may be a constant matrix or a callable (see
    :func:`as_coefficient`, :func:`piecewise_constant_coefficient` and
    :func:`sampled_coefficient`); every map of the built system takes a time
    or a 1-d array of times. Q defaults to zero and R to the identity; both
    are symmetrized, a constant once and a callable on every evaluation. All
    four are sampled at t = 0, 0.1, ..., 1: every sample must be finite and
    of the right shape, and each R sample's smallest eigenvalue must exceed
    PD_TOL * max(1, its largest eigenvalue).
    """
    a_map, b_map = as_coefficient(A), as_coefficient(B)
    ts = np.linspace(0.0, 1.0, 11)
    a, b = np.asarray(a_map(ts), dtype=float), np.asarray(b_map(ts), dtype=float)
    n, m = a.shape[-1], b.shape[-1]
    q_map = _symmetric_coefficient(np.zeros((n, n)) if Q is None else Q)
    r_map = _symmetric_coefficient(np.eye(m) if R is None else R)
    r = r_map(ts)
    for name, vals, shape in (("A", a, (n, n)), ("B", b, (n, m)), ("Q", q_map(ts), (n, n)),
                              ("R", r, (m, m))):
        if vals.shape != (len(ts), *shape):
            raise DomainError(f"{name}(t) has shape {vals.shape[1:]}, expected {shape}")
        finite = np.isfinite(vals).all(axis=(-2, -1))
        if not finite.all():
            raise DomainError(f"{name}({ts[~finite][0]:g}) has non-finite entries")
    _spd_eigh(r, name="R(t)")
    return TimeVaryingLinearSystem(n, m, a_map, b_map, q_map, r_map)


def input_quad(sys: TimeVaryingLinearSystem, t) -> np.ndarray:
    """B(t) R(t)^-1 B(t)': the control weight of both Riccati flows and the noise diffusion.

    At a 1-d array of times it is a stack (see :func:`solve_r`); a constant B
    and R give it once, broadcast along time. Raises SingularMatrixError
    naming the time of the most nearly singular R.
    """
    return once(lambda b, r: b @ solve_r(r, np.swapaxes(b, -1, -2), t), sys.B(t), sys.R(t))


def solve_r(r, rhs, t) -> np.ndarray:
    """R^-1 rhs for r = R(t) and rhs at a time t, or for their stacks at a 1-d array t.

    A stack that repeats one matrix with zero stride along time, as a
    constant coefficient returns it, is factored once: its one inverse
    multiplies every right-hand side. Any other stack takes a batched solve.
    Raises SingularMatrixError naming the time of the most nearly singular R.
    """
    r = np.asarray(r)
    try:
        if is_constant(r):
            return np.linalg.inv(r[0]) @ rhs
        return np.linalg.solve(r, rhs)
    except np.linalg.LinAlgError as exc:
        worst = np.reshape(t, -1)[np.argmin(np.abs(np.linalg.det(r)))]
        raise SingularMatrixError(f"R({worst}) is singular") from exc


def noise_channel(b: np.ndarray, r: np.ndarray) -> np.ndarray:
    """B R^-1/2: the channel of the control and of the noise sqrt(eps) dw; B and R may be stacks.

    A constant R stack is factored once, as in :func:`solve_r`, and a
    constant B with it gives one product, broadcast along time.
    """
    inv_root = once(lambda r: _sqrt_spd_pair(r)[1], np.asarray(r))
    return once(np.matmul, b, inv_root)


def state_transition(sys: TimeVaryingLinearSystem, grid_size: int) -> np.ndarray:
    """Psi(1, 0), the drift's transition over the horizon: dPsi/dt = A(t) Psi, Psi(0, 0) = I.

    One RK4 pass over :func:`covsteer.integrate.horizon_grid`'s grid_size steps.
    """
    grid = horizon_grid(grid_size)
    return rk4_grid(step_stack(sys.A, grid), np.eye(sys.dim_state))[-1]


def reachability_gramian(sys: TimeVaryingLinearSystem, grid_size: int) -> np.ndarray:
    """Gramian of the solver's input channel over (0, 1) by composite Simpson quadrature.

    The channel is G = B R^-1/2 (:func:`noise_channel`), so the Gramian
    depends on B R^-1 B' alone and not on the units of B and R. Integrand is
    Psi(1, tau) G(tau) G(tau)' Psi(1, tau)' on grid_size steps; the family
    Psi(1, tau)' is produced by one backward sweep of d/dtau Psi(1, tau)' =
    -A(tau)' Psi(1, tau)' from Psi(1, 1)' = I. A constant A keeps its zero
    stride through the transpose, so the sweep samples it once (see
    :func:`covsteer.integrate.step_stack`). Raises DomainError unless
    grid_size is a positive integer.
    """
    taus = 1.0 - horizon_grid(grid_size)  # the bytes of np.linspace(1, 0, grid_size + 1)
    minus_a_t = step_stack(lambda ts: once(lambda a: -np.swapaxes(a, -1, -2), sys.A(ts)), taus)
    gt = rk4_grid(minus_a_t, np.eye(sys.dim_state))
    del minus_a_t  # the E_k held through the quadrature below would raise its peak memory
    gb = np.swapaxes(gt, -1, -2) @ noise_channel(sys.B(taus), sys.R(taus))
    # reverse so the Simpson weights run from 0 to 1
    gram = simpson_uniform((gb @ np.swapaxes(gb, -1, -2))[::-1], 1.0 / grid_size)
    return symmetrize(gram)


def require_controllable(sys: TimeVaryingLinearSystem, grid_size: int) -> None:
    """Raise ControllabilityError unless the smallest eigenvalue of the Gramian over
    (0, 1) exceeds CONTROLLABILITY_TOL; a NaN does not."""
    lam = float(np.linalg.eigvalsh(reachability_gramian(sys, grid_size)).min())
    if not lam > CONTROLLABILITY_TOL:
        raise ControllabilityError(f"FAIL gramian on (0, 1): min eig {lam:.6e}")
