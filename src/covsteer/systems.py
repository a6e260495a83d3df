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
from .integrate import rk4_grid, simpson_uniform, steps_for_span

MatrixMap = Callable[[float], np.ndarray]

DEFAULT_STEPS_PER_UNIT = 1000
PD_TOL = 1e-12


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
    if np.any(w[..., 0] <= tol * np.maximum(1.0, w[..., -1])):
        lam = float(w[..., 0].min())
        raise DefinitenessError(
            f"{name} is not positive definite (min eigenvalue {lam:.3e})",
            min_eigenvalue=lam,
        )
    return w, v


def _check_time(t: float) -> float:
    t = float(t)
    if not 0.0 - 1e-12 <= t <= 1.0 + 1e-12:
        raise DomainError(f"time {t} outside the horizon [0, 1]")
    return min(max(t, 0.0), 1.0)


def constant_coefficient(value) -> MatrixMap:
    mat = np.array(value, dtype=float)
    if mat.ndim != 2:
        raise DomainError("constant coefficient must be a 2-d matrix")

    def f(t: float) -> np.ndarray:
        return mat

    return f


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

    def f(t: float) -> np.ndarray:
        if t < bk[0] - 1e-12 or t > bk[-1] + 1e-12:
            raise DomainError(f"time {t} outside piecewise range [{bk[0]}, {bk[-1]}]")
        i = int(np.clip(np.searchsorted(bk, t, side="right") - 1, 0, len(vals) - 1))
        return vals[i]

    return f


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

    def f(t: float) -> np.ndarray:
        if t < ts[0] - 1e-12 or t > ts[-1] + 1e-12:
            raise DomainError(f"time {t} outside sample range [{ts[0]}, {ts[-1]}]")
        t = min(max(t, ts[0]), ts[-1])
        i = int(np.clip(np.searchsorted(ts, t, side="right") - 1, 0, len(ts) - 2))
        w = (t - ts[i]) / (ts[i + 1] - ts[i])
        return (1.0 - w) * vals[i] + w * vals[i + 1]

    return f


def as_coefficient(spec) -> MatrixMap:
    """Return a callable spec unchanged; wrap anything else as a constant matrix."""
    if callable(spec):
        return spec
    return constant_coefficient(spec)


@dataclass(frozen=True)
class TimeVaryingLinearSystem:
    """Immutable bundle of coefficient maps; build via :func:`make_system`."""

    dim_state: int
    dim_input: int
    A: MatrixMap
    B: MatrixMap
    Q: MatrixMap = field(repr=False, default=None)
    R: MatrixMap = field(repr=False, default=None)


def make_system(A, B, Q=None, R=None, pd_tol: float = PD_TOL,
                validation_samples: int = 11) -> TimeVaryingLinearSystem:
    """Build a validated system from coefficient specs.

    Each of A, B, Q, R may be a constant matrix or a callable t -> matrix
    (see also :func:`piecewise_constant_coefficient` and
    :func:`sampled_coefficient`). Q defaults to zero and is symmetrized on
    every evaluation; R defaults to the identity. A and B are checked at
    t = 0, Q and R on a coarse sample grid: every sample must be finite and
    of the right shape, and each R sample's smallest eigenvalue must exceed
    pd_tol * max(1, its largest eigenvalue).
    """
    a_map = as_coefficient(A)
    b_map = as_coefficient(B)
    a0 = np.asarray(a_map(0.0), dtype=float)
    if a0.ndim != 2 or a0.shape[0] != a0.shape[1]:
        raise DomainError("A(t) must be square")
    n = a0.shape[0]
    b0 = np.asarray(b_map(0.0), dtype=float)
    if b0.ndim != 2 or b0.shape[0] != n:
        raise DomainError("B(t) must have one row per state")
    m = b0.shape[1]

    if Q is None:
        q_raw = constant_coefficient(np.zeros((n, n)))
    else:
        q_raw = as_coefficient(Q)

    def q_map(t: float) -> np.ndarray:
        return symmetrize(np.asarray(q_raw(t), dtype=float))

    if R is None:
        r_raw = constant_coefficient(np.eye(m))
    else:
        r_raw = as_coefficient(R)

    def r_map(t: float) -> np.ndarray:
        return symmetrize(np.asarray(r_raw(t), dtype=float))

    for name, value in (("A", a0), ("B", b0)):
        if not np.isfinite(value).all():
            raise DomainError(f"{name}(0.0) has non-finite entries")
    for t in np.linspace(0.0, 1.0, validation_samples):
        q_t = q_map(t)
        if q_t.shape != (n, n):
            raise DomainError(f"Q({t}) has shape {q_t.shape}, expected {(n, n)}")
        r_t = r_map(t)
        if r_t.shape != (m, m):
            raise DomainError(f"R({t}) has shape {r_t.shape}, expected {(m, m)}")
        if not np.isfinite(q_t).all():
            raise DomainError(f"Q({t}) has non-finite entries")
        _spd_eigh(r_t, pd_tol, f"R({t})")

    return TimeVaryingLinearSystem(n, m, a_map, b_map, q_map, r_map)


def input_quad(sys: TimeVaryingLinearSystem, t: float) -> np.ndarray:
    """B(t) R(t)^-1 B(t)': the control weight of both Riccati flows and the noise diffusion."""
    b = sys.B(t)
    try:
        return b @ np.linalg.solve(sys.R(t), b.T)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"R({t}) is singular") from exc


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
    return rk4_grid(lambda tau, psi: sys.A(tau) @ psi, np.eye(sys.dim_state), grid)[-1]


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
    n_int += n_int % 2
    taus = np.linspace(t, s, n_int + 1)
    g = rk4_grid(lambda tau, y: -y @ sys.A(tau), np.eye(sys.dim_state), taus)
    gb = g @ np.stack([sys.B(tau) for tau in taus])
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
    tol: float = 1e-9,
    steps_per_unit: int = DEFAULT_STEPS_PER_UNIT,
) -> ControllabilityReport:
    """Smallest Gramian eigenvalue on each subinterval; FAIL below tol."""
    if len(grid) == 0:
        raise DomainError("controllability grid must not be empty")
    entries = []
    for s, t in grid:
        gram = reachability_gramian(sys, t, s, steps_per_unit)
        lam = float(np.linalg.eigvalsh(gram).min())
        entries.append(ControllabilityEntry(float(s), float(t), lam, lam > tol))
    return ControllabilityReport(tuple(entries), tol)


def require_controllable(
    sys: TimeVaryingLinearSystem,
    tol: float = 1e-9,
    steps_per_unit: int = DEFAULT_STEPS_PER_UNIT,
) -> None:
    """Raise ControllabilityError if the Gramian over (0, 1) is near singular."""
    report = check_controllability(sys, [(0.0, 1.0)], tol, steps_per_unit)
    if not report.passed:
        raise ControllabilityError(str(report))
