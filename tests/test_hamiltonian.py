import numpy as np
import pytest

from covsteer import (
    DomainError,
    SingularMatrixError,
    TimeVaryingLinearSystem,
    hamiltonian_matrix,
    make_system,
    propagate,
    ratio_T,
    symplectic_residual,
)
from covsteer.hamiltonian import BlockTransition


def scalar_system(q=0.0, r=1.0):
    return make_system([[0.0]], [[1.0]], [[q]], [[r]])


def double_integrator_q1():
    return make_system([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], np.eye(2))


def test_assembly_scalar():
    m = hamiltonian_matrix(scalar_system(), 0.5)
    np.testing.assert_allclose(m, [[0.0, -1.0], [0.0, 0.0]])


def test_assembly_double_integrator():
    m = hamiltonian_matrix(double_integrator_q1(), 0.0)
    expected = np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 0.0, -1.0],
            [-1.0, 0.0, 0.0, 0.0],
            [0.0, -1.0, -1.0, 0.0],
        ]
    )
    np.testing.assert_allclose(m, expected)


def test_assembly_general_r():
    m = hamiltonian_matrix(scalar_system(q=1.0, r=4.0), 0.3)
    np.testing.assert_allclose(m, [[0.0, -0.25], [-1.0, 0.0]])


def test_assembly_singular_r():
    # bypass make_system validation to exercise the runtime singularity check
    sys = TimeVaryingLinearSystem(
        1, 1,
        lambda t: np.zeros((1, 1)),
        lambda t: np.ones((1, 1)),
        lambda t: np.zeros((1, 1)),
        lambda t: np.zeros((1, 1)),
    )
    with pytest.raises(SingularMatrixError):
        hamiltonian_matrix(sys, 0.0)


def test_propagate_initial_condition():
    bts = propagate(scalar_system(), 0.0, 0.0, [0.0])
    assert len(bts) == 1
    np.testing.assert_allclose(bts[0].matrix, np.eye(2), atol=0)


def test_propagate_nilpotent_scalar():
    bt = propagate(scalar_system(), 0.0, 1.0, [1.0])[-1]
    np.testing.assert_allclose(
        bt.matrix, [[1.0, -1.0], [0.0, 1.0]], atol=1e-13
    )


def test_propagate_constant_hyperbolic():
    # M = [[0,-1],[-1,0]] exponentiates to [[cosh, -sinh], [-sinh, cosh]]
    bt = propagate(scalar_system(q=1.0), 0.0, 1.0, [1.0])[-1]
    c, s = np.cosh(1.0), np.sinh(1.0)
    np.testing.assert_allclose(bt.matrix, [[c, -s], [-s, c]], atol=1e-12)
    np.testing.assert_allclose(bt.phi11, [[1.5431]], atol=1e-4)
    np.testing.assert_allclose(bt.phi12, [[-1.1752]], atol=1e-4)


def test_propagate_unsorted_checkpoints():
    with pytest.raises(DomainError):
        propagate(scalar_system(), 0.0, 1.0, [0.5, 0.2])


def test_propagate_checkpoints_outside_span():
    with pytest.raises(DomainError):
        propagate(scalar_system(), 0.2, 0.8, [0.9])
    # a checkpoint between two nodes of the 10-step grid
    with pytest.raises(DomainError, match="not a node"):
        propagate(scalar_system(), 0.0, 1.0, [0.15], 10)


def test_symplectic_residual_identity():
    bt = BlockTransition.from_matrix(0.0, 0.0, np.eye(4))
    assert symplectic_residual(bt) == 0.0


def test_symplectic_residual_hyperbolic():
    bt = propagate(scalar_system(q=1.0), 0.0, 1.0, [1.0])[-1]
    assert symplectic_residual(bt) < 1e-12


def test_symplectic_residual_double_integrator():
    bts = propagate(double_integrator_q1(), 0.0, 1.0, np.linspace(0.1, 1.0, 10), 1000)
    assert max(symplectic_residual(bt) for bt in bts) < 1e-9


def test_ratio_t_at_equal_times_is_zero():
    bt = propagate(double_integrator_q1(), 0.0, 0.0, [0.0])[0]
    np.testing.assert_allclose(ratio_T(bt), np.zeros((2, 2)), atol=0)


def test_ratio_t_scalar_values():
    bt0 = propagate(scalar_system(), 0.0, 1.0, [1.0])[-1]
    np.testing.assert_allclose(ratio_T(bt0), [[-1.0]], atol=1e-12)
    bt1 = propagate(scalar_system(q=1.0), 0.0, 1.0, [1.0])[-1]
    np.testing.assert_allclose(ratio_T(bt1), [[-np.tanh(1.0)]], atol=1e-12)


def test_ratio_t_negative_definite_and_monotone():
    times = np.linspace(0.1, 1.0, 10)
    bts = propagate(double_integrator_q1(), 0.0, 1.0, times, 1000)
    prev = None
    for bt in bts:
        t_mat = ratio_T(bt)
        assert np.linalg.eigvalsh(t_mat).max() < 0
        if prev is not None:
            assert np.linalg.eigvalsh(t_mat - prev).max() <= 1e-10
        prev = t_mat


def test_determinant_is_one():
    # trace M(t) = 0 identically, so the flow preserves volume
    for sys in (scalar_system(q=1.0), double_integrator_q1()):
        for bt in propagate(sys, 0.0, 1.0, np.linspace(0.25, 1.0, 4), 1000):
            assert abs(np.linalg.det(bt.matrix) - 1.0) < 1e-9


def test_block_partition_roundtrip():
    mat = np.arange(16.0).reshape(4, 4)
    bt = BlockTransition.from_matrix(0.0, 1.0, mat)
    np.testing.assert_allclose(bt.matrix, mat)
    assert bt.dim == 2
