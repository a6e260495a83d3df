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
one A, B, Q and R call for the whole array, B R^-1 B' from
:func:`covsteer.systems.solve_r` (a constant R is factored once), and the four
blocks written into one preallocated stack; M at one time t is
``hamiltonian_stack(sys, [t])[0]``. It is the sampler
:func:`covsteer.integrate.step_stack` calls a page at a time, so
:func:`propagate` samples the coefficients once at each of the 2N + 1 stage
times of its N-step grid. When A, B, Q and R are all constant, M is assembled
once and returned broadcast along time, so :func:`propagate` samples each
coefficient once in all and builds one step matrix per distinct step size.
Like every pass, :func:`propagate` runs over the one horizon [0, 1], on the
grid_size steps of :func:`covsteer.integrate.horizon_grid`. It also returns
the (N, 2n, 2n) stack of the RK4 step matrices E_k it multiplied, so another
pass of the same flow on the same grid is a product through them and samples
nothing.
"""

from __future__ import annotations

import numpy as np

from .errors import ConditioningError, CovsteerError, SingularMatrixError
from .integrate import horizon_grid, once, rk4_grid, step_stack
from .systems import TimeVaryingLinearSystem, _check_time, input_quad, symmetrize

COND_LIMIT = 1e12  # largest condition number of Phi11 or Phi12 that is inverted
# largest max |entry| of Phi(1, 0) that propagate returns: a product of two entries
# then stays within 1e300, so the sums of them in symplectic_residual do not overflow
PHI_LIMIT = 1e150


def blocks(phi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Views (Phi11, Phi12, Phi21, Phi22) of a 2n x 2n matrix or of each matrix in a stack."""
    n = phi.shape[-1] // 2
    return phi[..., :n, :n], phi[..., :n, n:], phi[..., n:, :n], phi[..., n:, n:]


def hamiltonian_stack(sys: TimeVaryingLinearSystem, ts) -> np.ndarray:
    """M(t) for each time in ts, shape (len(ts), 2n, 2n).

    Calls A, B, Q and R once on the array ts and writes the four blocks of
    each M into one stack; raises SingularMatrixError on a singular R. When
    A, B, Q and R all come back constant (see
    :func:`covsteer.integrate.is_constant`), so does B R^-1 B', and M is
    assembled once and returned broadcast along time, read-only.
    """
    ts = _check_time(ts)
    return once(_assemble, sys.A(ts), input_quad(sys, ts), sys.Q(ts))


def _assemble(a: np.ndarray, quad: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The stack of M from stacks of A, B R^-1 B' and Q, written block by block."""
    n = a.shape[-1]
    m = np.empty((len(a), 2 * n, 2 * n))
    m[:, :n, :n] = a
    np.negative(quad, out=m[:, :n, n:])
    np.negative(q, out=m[:, n:, :n])
    np.negative(np.swapaxes(a, -1, -2), out=m[:, n:, n:])
    return m


def propagate(
    sys: TimeVaryingLinearSystem, grid_size: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Phi(., 0) at every node of the horizon's grid of grid_size steps, from Phi(0, 0) = I.

    Returns (times, phi, e): :func:`covsteer.integrate.horizon_grid`'s grid,
    the (len(times), 2n, 2n) stack of Phi(times[k], 0), so phi[-1] is
    Phi(1, 0), and the (len(times) - 1, 2n, 2n) stack of the steps'
    matrices E_k that built it. Any other pass of the flow on the same grid
    is rk4_grid(e, y0). The caller owns e: :func:`covsteer.bridge.solve`
    multiplies its Y pass through it and then releases it. Raises
    DomainError unless grid_size is a positive integer. Raises
    ConditioningError, naming the first node where Phi is not finite, if
    Phi(1, 0) is not: the flow overflowed or a coefficient is not finite
    between the nodes that make_system checks. Raises ConditioningError,
    naming max |Phi(1, 0)| and the grid, if that maximum exceeds PHI_LIMIT,
    past which products of Phi's entries can overflow.
    """
    times = horizon_grid(grid_size)
    # an overflow is reported once, below, and not as numpy warnings on the way
    with np.errstate(over="ignore", invalid="ignore"):
        e = step_stack(lambda ts: hamiltonian_stack(sys, ts), times)
        phi = rk4_grid(e, np.eye(2 * sys.dim_state))
    if not np.isfinite(phi[-1]).all():  # a non-finite entry stays non-finite to the end
        first = np.flatnonzero(~np.isfinite(phi).all(axis=(-2, -1)))[0]
        raise ConditioningError(
            f"Phi(t, 0) has non-finite entries from t = {times[first]:.6g} on: "
            "the Hamiltonian flow overflows or a coefficient is not finite")
    peak = np.abs(phi[-1]).max()
    if peak > PHI_LIMIT:
        raise ConditioningError(
            f"max |Phi(1, 0)| = {peak:.3e} on a grid of {len(e)} steps "
            f"exceeds {PHI_LIMIT:.0e}: products of its entries can overflow")
    return times, phi, e


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
    """mat^-1, or raise error when mat is not finite or its condition number exceeds COND_LIMIT.

    Finiteness is checked first, because ``np.linalg.cond`` itself fails on a NaN matrix.
    """
    if not np.isfinite(mat).all():
        raise error(f"{name} has non-finite entries, so it cannot be inverted")
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
