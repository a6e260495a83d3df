"""Reference right-hand sides the tests integrate independently of the solver.

riccati_rhs_pi and riccati_rhs_h are the paper's two Riccati equations, the
"old Riccati" oracle: they sample A, B, Q and R at one time and never touch
the Hamiltonian transition the solver propagates; they form B R^-1 B' by
their own solve, so they share no code of R with the solver.
hamiltonian_matrix is M(t) at one time, for oracles that integrate the linear
flow Y' = M(t) Y per call.
"""

import numpy as np

from covsteer.hamiltonian import hamiltonian_stack
from covsteer.systems import TimeVaryingLinearSystem, symmetrize


def _riccati(a: np.ndarray, quad: np.ndarray, q: np.ndarray, p: np.ndarray) -> np.ndarray:
    """-(A'P + P A - P quad P + Q), symmetrized; quad is B R^-1 B'."""
    return symmetrize(-(a.T @ p + p @ a - p @ quad @ p + q))


def _quad(sys: TimeVaryingLinearSystem, t: float) -> np.ndarray:
    """B(t) R(t)^-1 B(t)' by a linear solve with R(t)."""
    b = sys.B(t)
    return b @ np.linalg.solve(sys.R(t), b.T)


def riccati_rhs_pi(sys: TimeVaryingLinearSystem, t: float, pi: np.ndarray) -> np.ndarray:
    """dPi/dt = -(A'Pi + Pi A - Pi B R^-1 B' Pi + Q)."""
    return _riccati(sys.A(t), _quad(sys, t), sys.Q(t), pi)


def riccati_rhs_h(sys: TimeVaryingLinearSystem, t: float, h: np.ndarray) -> np.ndarray:
    """dH/dt = -(A'H + H A + H B R^-1 B' H - Q), i.e. -H obeys Pi's equation."""
    return -_riccati(sys.A(t), _quad(sys, t), sys.Q(t), -h)


def hamiltonian_matrix(sys: TimeVaryingLinearSystem, t: float) -> np.ndarray:
    """M(t); the (1, 2) block uses R(t)^-1 (identity R gives -BB'). Read-only when constant."""
    return hamiltonian_stack(sys, [t])[0]
