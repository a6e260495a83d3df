"""Time-varying linear system coefficients, transition matrices and Gramians.

A system is a quadruple of matrix-valued coefficient maps on [0, 1]:
state drift A(t) (n x n), input/noise channel B(t) (n x m), state penalty
Q(t) (symmetric n x n, any sign) and input weight R(t) (SPD m x m).
Coefficients may be constant matrices, closed-form callables,
piecewise-constant tables or linearly interpolated sample grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .errors import ControllabilityError, DefinitenessError, DomainError, SingularMatrixError
from .integrate import rk4_grid, simpson_uniform, stage_sampler, steps_for_span

MatrixMap = Callable[[float], np.ndarray]  # built maps also take a 1-d array of times

DEFAULT_STEPS_PER_UNIT = 1000
PD_TOL = 1e-12  # an SPD matrix needs min eigenvalue > PD_TOL * max(1, max eigenvalue)
CONTROLLABILITY_TOL = 1e-9  # (A, B) is controllable if the Gramian's min eigenvalue exceeds it


def symmetrize(m: np.ndarray) -> np.ndarray:
    """Return (M + M') / 2 of a matrix or of each matrix in a stack."""
    return 0.5 * (m + np.swapaxes(m, -1, -2))


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
    """The matrix itself at a time, and a read-only broadcast stack at an array of times."""
    mat = np.array(value, dtype=float)
    if mat.ndim != 2:
        raise DomainError("constant coefficient must be a 2-d matrix")

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
    """Coefficient whose every value, or stack, is symmetrized; a constant is symmetrized once."""
    coef = as_coefficient(spec)
    if not callable(spec):
        return constant_coefficient(symmetrize(coef(0.0)))
    return _vectorized(lambda t: symmetrize(np.asarray(coef(t), dtype=float)))


@dataclass(frozen=True)
class TimeVaryingLinearSystem:
    """Immutable bundle of coefficient maps; build via :func:`make_system`."""

    dim_state: int
    dim_input: int
    A: MatrixMap
    B: MatrixMap
    Q: MatrixMap = field(repr=False, default=None)
    R: MatrixMap = field(repr=False, default=None)


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

    At a 1-d array of times it is a stack, from one batched solve. Raises
    SingularMatrixError naming the time of the most nearly singular R.
    """
    b, r = sys.B(t), sys.R(t)
    try:
        return b @ np.linalg.solve(r, np.swapaxes(b, -1, -2))
    except np.linalg.LinAlgError as exc:
        worst = np.reshape(t, -1)[np.argmin(np.abs(np.linalg.det(r)))]
        raise SingularMatrixError(f"R({worst}) is singular") from exc


def state_transition(
    sys: TimeVaryingLinearSystem,
    t: float,
    s: float,
    steps_per_unit: int = DEFAULT_STEPS_PER_UNIT,
) -> np.ndarray:
    """Transition matrix of the drift: dPsi/dt = A(t) Psi, Psi(s, s) = I."""
    t, s = _check_time(t), _check_time(s)
    if s > t:
        raise DomainError("state_transition requires s <= t")
    if t == s:
        return np.eye(sys.dim_state)
    grid = np.linspace(s, t, steps_for_span(steps_per_unit, s, t) + 1)
    a_at = stage_sampler(grid, sys.A)
    return rk4_grid(lambda tau, psi: a_at(tau) @ psi, np.eye(sys.dim_state), grid)[-1]


def reachability_gramian(
    sys: TimeVaryingLinearSystem,
    t: float,
    s: float,
    steps_per_unit: int = DEFAULT_STEPS_PER_UNIT,
) -> np.ndarray:
    """Gramian of the input channel over (s, t) by composite Simpson quadrature.

    Integrand is Psi(t, tau) B(tau) B(tau)' Psi(t, tau)'; the family
    Psi(t, tau) is produced by one backward sweep of dG/dtau = -G A(tau)
    from G(t) = I.
    """
    t, s = _check_time(t), _check_time(s)
    if s >= t:
        raise DomainError("reachability_gramian requires s < t")
    n_int = steps_for_span(steps_per_unit, s, t)
    taus = np.linspace(t, s, n_int + 1)
    a_at = stage_sampler(taus, sys.A)
    g = rk4_grid(lambda tau, y: -y @ a_at(tau), np.eye(sys.dim_state), taus)
    gb = g @ sys.B(taus)
    # reverse so the Simpson weights run from s to t
    gram = simpson_uniform((gb @ np.swapaxes(gb, -1, -2))[::-1], (t - s) / n_int)
    return symmetrize(gram)


@dataclass(frozen=True)
class ControllabilityEntry:
    s: float
    t: float
    min_eigenvalue: float
    ok: bool


@dataclass(frozen=True)
class ControllabilityReport:
    entries: tuple[ControllabilityEntry, ...]
    tol: float

    @property
    def passed(self) -> bool:
        return all(e.ok for e in self.entries)

    def __str__(self) -> str:
        lines = []
        for e in self.entries:
            tag = "PASS" if e.ok else "FAIL"
            lines.append(
                f"{tag} gramian on ({e.s:g}, {e.t:g}): min eig {e.min_eigenvalue:.6e}"
            )
        return "\n".join(lines)


def check_controllability(
    sys: TimeVaryingLinearSystem,
    grid: Sequence[tuple[float, float]],
    steps_per_unit: int = DEFAULT_STEPS_PER_UNIT,
) -> ControllabilityReport:
    """Smallest Gramian eigenvalue on each subinterval; FAIL at or below CONTROLLABILITY_TOL."""
    if len(grid) == 0:
        raise DomainError("controllability grid must not be empty")
    entries = []
    for s, t in grid:
        gram = reachability_gramian(sys, t, s, steps_per_unit)
        lam = float(np.linalg.eigvalsh(gram).min())
        entries.append(ControllabilityEntry(float(s), float(t), lam, lam > CONTROLLABILITY_TOL))
    return ControllabilityReport(tuple(entries), CONTROLLABILITY_TOL)


def require_controllable(
    sys: TimeVaryingLinearSystem, steps_per_unit: int = DEFAULT_STEPS_PER_UNIT
) -> None:
    """Raise ControllabilityError if the Gramian over (0, 1) is near singular."""
    report = check_controllability(sys, [(0.0, 1.0)], steps_per_unit)
    if not report.passed:
        raise ControllabilityError(str(report))
