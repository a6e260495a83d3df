"""Propagation of the 2n x 2n Hamiltonian transition matrix and its block identities.

The flow dPhi/dt = M(t) Phi with

    M(t) = [[ A(t), -B(t) R(t)^-1 B(t)' ],
            [ -Q(t),             -A(t)' ]]

linearizes both Riccati flows of the steering problem. Its blocks satisfy
symplectic identities (M J + J M' = 0 with J the canonical skew form), which
are exposed here as checkable residuals, together with the symmetric ratio
T(t, s) = Phi11^-1 Phi12 whose negativity/monotonicity underpins invertibility
of the blocks on controllable systems.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import CovsteerError, DomainError, SingularMatrixError
from .integrate import rk4_checkpoints
from .systems import (
    DEFAULT_STEPS_PER_UNIT,
    TimeVaryingLinearSystem,
    _check_time,
    input_quad,
    symmetrize,
)

COND_LIMIT = 1e12


@dataclass(frozen=True)
class BlockTransition:
    """Hamiltonian transition matrix Phi(t, s) partitioned into n x n blocks."""

    s: float
    t: float
    phi11: np.ndarray
    phi12: np.ndarray
    phi21: np.ndarray
    phi22: np.ndarray

    @classmethod
    def from_matrix(cls, s: float, t: float, phi: np.ndarray) -> "BlockTransition":
        n2 = phi.shape[0]
        if phi.shape != (n2, n2) or n2 % 2 != 0:
            raise DomainError("block transition needs a square even-dimension matrix")
        n = n2 // 2
        return cls(s, t, phi[:n, :n].copy(), phi[:n, n:].copy(),
                   phi[n:, :n].copy(), phi[n:, n:].copy())

    @property
    def dim(self) -> int:
        return self.phi11.shape[0]

    @property
    def matrix(self) -> np.ndarray:
        return np.block([[self.phi11, self.phi12], [self.phi21, self.phi22]])


def hamiltonian_matrix(sys: TimeVaryingLinearSystem, t: float) -> np.ndarray:
    """Assemble M(t); the (1, 2) block uses R(t)^-1 (identity R gives -BB')."""
    t = _check_time(t)
    a = sys.A(t)
    return np.block([[a, -input_quad(sys, t)], [-sys.Q(t), -a.T]])


def propagate(
    sys: TimeVaryingLinearSystem,
    s: float,
    t: float,
    checkpoints: Sequence[float],
    steps_per_unit: int = DEFAULT_STEPS_PER_UNIT,
) -> list[BlockTransition]:
    """Integrate Phi(., s) from Phi(s, s) = I, recording each checkpoint.

    Checkpoints must be sorted within [s, t]; if the last one falls short of
    t a final entry Phi(t, s) is appended, so the last element always spans
    the full interval.
    """
    s, t = _check_time(s), _check_time(t)
    if s > t:
        raise DomainError("propagate requires s <= t")
    cps = [float(c) for c in checkpoints]
    if any(b < a for a, b in zip(cps, cps[1:])):
        raise DomainError("checkpoints must be sorted ascending")
    if cps and (cps[0] < s - 1e-12 or cps[-1] > t + 1e-12):
        raise DomainError("checkpoints must lie within [s, t]")
    if not cps or cps[-1] < t - 1e-14:
        cps.append(t)

    def rhs(tau, phi):
        return hamiltonian_matrix(sys, tau) @ phi

    mats = rk4_checkpoints(rhs, np.eye(2 * sys.dim_state), s, cps, steps_per_unit)
    return [BlockTransition.from_matrix(s, c, m) for c, m in zip(cps, mats)]


def symplectic_residual(bt: BlockTransition) -> float:
    """Max-abs entry over the six block identities implied by the symplectic flow."""
    eye = np.eye(bt.dim)
    residuals = (
        bt.phi11.T @ bt.phi22 - bt.phi21.T @ bt.phi12 - eye,
        bt.phi12.T @ bt.phi22 - bt.phi22.T @ bt.phi12,
        bt.phi21.T @ bt.phi11 - bt.phi11.T @ bt.phi21,
        bt.phi11 @ bt.phi22.T - bt.phi12 @ bt.phi21.T - eye,
        bt.phi12 @ bt.phi11.T - bt.phi11 @ bt.phi12.T,
        bt.phi21 @ bt.phi22.T - bt.phi22 @ bt.phi21.T,
    )
    return max(float(np.abs(r).max()) for r in residuals)


def _checked_inverse(
    mat: np.ndarray,
    name: str,
    cond_limit: float,
    error: type[CovsteerError] = SingularMatrixError,
) -> np.ndarray:
    """mat^-1, or raise error when the condition number is non-finite or above cond_limit."""
    cond = np.linalg.cond(mat)
    if not np.isfinite(cond) or cond > cond_limit:
        raise error(f"{name} is too ill-conditioned to invert (condition number {cond:.3e})")
    return np.linalg.inv(mat)


def ratio_T(bt: BlockTransition, cond_limit: float = COND_LIMIT) -> np.ndarray:
    """Symmetric ratio T(t, s) = Phi11^-1 Phi12; zero at t = s.

    Negative definite for t > s on controllable systems, and monotonically
    nonincreasing in t in the positive-definite order.
    """
    if bt.t == bt.s:
        return np.zeros((bt.dim, bt.dim))
    inv11 = _checked_inverse(bt.phi11, "Phi11", cond_limit)
    return symmetrize(inv11 @ bt.phi12)
