"""Identities of the paper that hold for any matrices of the right kind, for the tests.

lemma1_residual checks Lemma 1's SPD square-root identity on a pair of SPD
matrices, and ratio_T forms the symmetric ratio T(t, s) = Phi11^-1 Phi12 of
one transition matrix. The solver reads neither: they test the algebra the
closed-form coupling rests on, and the block structure of any Phi, so they
live beside the tests that use them rather than in the package.
"""

import numpy as np

from covsteer.errors import DomainError
from covsteer.hamiltonian import _checked_inverse, blocks
from covsteer.systems import _spd_eigh, symmetrize


def _refined_root_pair(s: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(S^1/2, S^-1/2) with one Newton correction on top of the spectral root.

    The correction solves the Sylvester equation R*D + D*R = S - R@R in the
    eigenbasis, recovering the digits eigh loses on ill-conditioned input.
    """
    w, v = _spd_eigh(s)
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
    floating-point drift only. Raises DomainError unless the shapes agree.
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


def ratio_T(phi: np.ndarray) -> np.ndarray:
    """Symmetric ratio T(t, s) = Phi11^-1 Phi12 of one Phi(t, s); zero at t = s.

    Negative definite for t > s on controllable systems, and monotonically
    nonincreasing in t in the positive-definite order. Raises
    ConditioningError when Phi11 is too ill-conditioned to invert.
    """
    p11, p12, _, _ = blocks(phi)
    return symmetrize(_checked_inverse(p11, "Phi11") @ p12)
