import numpy as np
import pytest

import covsteer.integrate
import covsteer.systems
from covsteer import (
    DomainError,
    SingularMatrixError,
    SteeringProblem,
    TimeVaryingLinearSystem,
    blocks,
    epsilon_sweep,
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
    times, phi = propagate(scalar_system(), 0.0, 0.0)
    np.testing.assert_array_equal(times, [0.0, 0.0])
    np.testing.assert_array_equal(phi, [np.eye(2), np.eye(2)])
    with pytest.raises(DomainError, match="s <= t"):
        propagate(scalar_system(), 0.8, 0.2)


def test_propagate_nilpotent_scalar():
    phi = propagate(scalar_system(), 0.0, 1.0)[1][-1]
    np.testing.assert_allclose(
        phi, [[1.0, -1.0], [0.0, 1.0]], atol=1e-13
    )


def test_propagate_constant_hyperbolic():
    # M = [[0,-1],[-1,0]] exponentiates to [[cosh, -sinh], [-sinh, cosh]]
    times, phi = propagate(scalar_system(q=1.0), 0.0, 1.0)
    np.testing.assert_array_equal(times, np.linspace(0.0, 1.0, 1001))
    c, s = np.cosh(1.0), np.sinh(1.0)
    np.testing.assert_allclose(phi[-1], [[c, -s], [-s, c]], atol=1e-12)
    phi11, phi12, _, _ = blocks(phi[-1])
    np.testing.assert_allclose(phi11, [[1.5431]], atol=1e-4)
    np.testing.assert_allclose(phi12, [[-1.1752]], atol=1e-4)


def test_symplectic_residual_identity():
    assert symplectic_residual(np.eye(4)) == 0.0
    assert symplectic_residual(np.stack([np.eye(4)] * 3)) == 0.0


def test_symplectic_residual_hyperbolic():
    phi = propagate(scalar_system(q=1.0), 0.0, 1.0)[1]
    assert symplectic_residual(phi[-1]) < 1e-12
    assert symplectic_residual(phi) == max(symplectic_residual(m) for m in phi)


def test_symplectic_residual_double_integrator():
    phi = propagate(double_integrator_q1(), 0.0, 1.0, 1000)[1]
    assert symplectic_residual(phi[100::100]) < 1e-9


def test_ratio_t_at_equal_times_is_zero():
    phi = propagate(double_integrator_q1(), 0.0, 0.0)[1][0]
    np.testing.assert_array_equal(ratio_T(phi), np.zeros((2, 2)))


def test_ratio_t_scalar_values():
    phi0 = propagate(scalar_system(), 0.0, 1.0)[1][-1]
    np.testing.assert_allclose(ratio_T(phi0), [[-1.0]], atol=1e-12)
    phi1 = propagate(scalar_system(q=1.0), 0.0, 1.0)[1][-1]
    np.testing.assert_allclose(ratio_T(phi1), [[-np.tanh(1.0)]], atol=1e-12)


def test_ratio_t_negative_definite_and_monotone():
    phi = propagate(double_integrator_q1(), 0.0, 1.0, 1000)[1]
    prev = None
    for mat in phi[100::100]:
        t_mat = ratio_T(mat)
        assert np.linalg.eigvalsh(t_mat).max() < 0
        if prev is not None:
            assert np.linalg.eigvalsh(t_mat - prev).max() <= 1e-10
        prev = t_mat


def test_determinant_is_one():
    # trace M(t) = 0 identically, so the flow preserves volume
    for sys in (scalar_system(q=1.0), double_integrator_q1()):
        phi = propagate(sys, 0.0, 1.0, 1000)[1]
        assert np.abs(np.linalg.det(phi[250::250]) - 1.0).max() < 1e-9


def test_blocks_are_views_of_a_matrix_or_of_each_matrix_in_a_stack():
    mat = np.arange(16.0).reshape(4, 4)
    for phi in (mat, np.stack([mat, -mat])):
        parts = blocks(phi)
        np.testing.assert_array_equal(np.block([[parts[0], parts[1]], [parts[2], parts[3]]]), phi)
        assert all(part.shape == phi.shape[:-2] + (2, 2) and np.shares_memory(part, phi)
                   for part in parts)


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


def test_epsilon_sweep_rows_match_standalone_solves_bit_for_bit_on_the_tv_system():
    # n = 3, m = 2: one Y pass carries the three eps side by side in a 6 x 18 state
    problem = SteeringProblem(PARITY_SYSTEMS["tv"](), np.eye(3), 0.5 * np.eye(3))
    eps_list = [2.0, 0.5, 0.0]
    rows = epsilon_sweep(problem, eps_list, N_TV)
    for eps, row in zip(eps_list, rows):
        sol = solve(SteeringProblem(problem.sys, problem.sigma0, problem.sigma1, eps), N_TV)
        assert row.epsilon == eps
        assert row.pi0.tobytes() == sol.pi[0].tobytes()
        assert row.boundary_residuals == sol.boundary_residuals


@pytest.mark.parametrize("name", sorted(PARITY_SYSTEMS))
def test_propagate_matches_the_per_call_hamiltonian_oracle(name):
    sys = PARITY_SYSTEMS[name]()
    oracle = rk4_grid(lambda t, y: hamiltonian_matrix(sys, t) @ y, np.eye(2 * sys.dim_state), GRID_TV)
    times, staged = propagate(sys, 0.0, 1.0, N_TV)
    np.testing.assert_array_equal(times, GRID_TV)
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
