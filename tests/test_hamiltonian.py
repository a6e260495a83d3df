import numpy as np
import pytest

import covsteer.integrate
import covsteer.systems
from covsteer import (
    DomainError,
    SingularMatrixError,
    SteeringProblem,
    TimeVaryingLinearSystem,
    hamiltonian_matrix,
    make_system,
    piecewise_constant_coefficient,
    propagate,
    ratio_T,
    reachability_gramian,
    sampled_coefficient,
    solve,
    state_transition,
    symplectic_residual,
)
from covsteer.hamiltonian import BlockTransition
from covsteer.integrate import rk4_grid, stage_sampler


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


# ---------------------------------------------------------------------------
# coefficients sampled once per RK4 stage time

N_TV = 300  # 601 stage times: three pages at STAGE_PAGE = 256
GRID_TV = np.linspace(0.0, 1.0, N_TV + 1)


class Counted:
    """Coefficient map that records every time it is evaluated at."""

    def __init__(self, f):
        self.f, self.times = f, []

    def __call__(self, t):
        self.times.append(float(t))
        return self.f(t)


def tv_maps(q_breaks=(0.0, 0.3337, 0.5, 1.0)):
    """Sampled A, B and R and piecewise Q of a controllable n = 3, m = 2 system."""
    rng = np.random.default_rng(2024)
    knots = np.linspace(0.0, 1.0, 7)
    a = rng.normal(0.0, 0.5, (3, 3)) + rng.normal(0.0, 0.2, (7, 3, 3))
    b = rng.normal(0.0, 1.0, (3, 2)) + rng.normal(0.0, 0.2, (7, 3, 2))
    g = rng.normal(0.0, 0.5, (len(q_breaks) - 1, 3, 3))
    h = rng.normal(0.0, 0.3, (7, 2, 2))
    return (sampled_coefficient(knots, a), sampled_coefficient(knots, b),
            piecewise_constant_coefficient(q_breaks, g @ g.transpose(0, 2, 1)),
            sampled_coefficient(knots, np.eye(2) + h @ h.transpose(0, 2, 1)))


# Q breaks on grid nodes (GRID_TV[90], GRID_TV[200]) and between them (0.3337, 0.7501)
TV_BREAKS = (0.0, GRID_TV[90], 0.3337, GRID_TV[200], 0.7501, 1.0)
PARITY_SYSTEMS = {
    "q1": lambda: double_integrator_q1(),
    "q0": lambda: make_system([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]]),
    "tv": lambda: make_system(*tv_maps(TV_BREAKS)),
}


def _rel(x, ref):
    return float(np.abs(x - ref).max() / np.abs(ref).max())


@pytest.mark.parametrize("page", [7, 256, 10_000])
def test_solve_samples_each_coefficient_once_per_stage_time_per_pass(monkeypatch, page):
    monkeypatch.setattr(covsteer.integrate, "STAGE_PAGE", page)
    maps = [Counted(f) for f in tv_maps()]
    problem = SteeringProblem(make_system(*maps), np.eye(3), 0.5 * np.eye(3))
    for c in maps:
        c.times.clear()  # drop make_system's validation samples
    solve(problem, grid_size=N_TV)

    stages = np.linspace(0.0, 1.0, 2 * N_TV + 1)
    node = (np.arange(2 * N_TV + 1) % 2 == 0).astype(int)
    # passes: Gramian (A), Phi (A, B, Q, R), Y (A, B, Q, R); node-only:
    # Gramian B, gains B and R. Per stage time, whatever the page size:
    expected = {"A": 3 + 0 * node, "B": 2 + 2 * node, "Q": 2 + 0 * node, "R": 2 + node}
    for name, c in zip("ABQR", maps):
        times = np.array(c.times)
        j = np.rint(times * 2 * N_TV).astype(int)
        assert np.abs(times - stages[j]).max() <= 2 * np.spacing(1.0), name
        np.testing.assert_array_equal(np.bincount(j, minlength=2 * N_TV + 1), expected[name])
    assert [len(c.times) for c in maps] == [1803, 1804, 1202, 1503]


@pytest.mark.parametrize("name", sorted(PARITY_SYSTEMS))
def test_propagate_matches_the_per_call_hamiltonian_oracle(name):
    sys = PARITY_SYSTEMS[name]()
    oracle = rk4_grid(lambda t, y: hamiltonian_matrix(sys, t) @ y, np.eye(2 * sys.dim_state), GRID_TV)
    staged = np.array([bt.matrix for bt in propagate(sys, 0.0, 1.0, GRID_TV, N_TV)])
    if name == "tv":
        assert _rel(staged, oracle) <= 1e-12
    else:
        np.testing.assert_array_equal(staged, oracle)


@pytest.mark.parametrize("name", sorted(PARITY_SYSTEMS))
def test_drift_sweeps_match_the_per_call_oracle(monkeypatch, name):
    sys = PARITY_SYSTEMS[name]()
    passes = []

    def recorded(f, y0, grid):
        passes.append((y0, grid, rk4_grid(f, y0, grid)))
        return passes[-1][2]

    monkeypatch.setattr(covsteer.systems, "rk4_grid", recorded)
    reachability_gramian(sys, 1.0, 0.0, N_TV)
    state_transition(sys, 1.0, 0.0, N_TV)
    (y0, back, sweep), (psi0, fwd, psi) = passes
    assert back[0] == 1.0 and back[-1] == 0.0 and len(back) == N_TV + 1
    oracles = (rk4_grid(lambda tau, y: -y @ sys.A(tau), y0, back),
               rk4_grid(lambda tau, y: sys.A(tau) @ y, psi0, fwd))
    for staged, oracle in zip((sweep, psi), oracles):
        if name == "tv":
            assert _rel(staged, oracle) <= 1e-12
        else:
            np.testing.assert_array_equal(staged, oracle)


def test_stage_sampler_rejects_a_time_outside_its_grid():
    at = stage_sampler(np.linspace(0.2, 0.6, 5), lambda ts: np.zeros((len(ts), 1)))
    assert at(0.2)[0] == 0.0 and at(0.6)[0] == 0.0
    with pytest.raises(DomainError):
        at(0.7)
