import numpy as np
import pytest

from covsteer import (
    DomainError,
    SimulationResult,
    SteeringProblem,
    UnsupportedDimensionError,
    cost_gap,
    empirical_covariance,
    make_system,
    simulate,
    solve,
    sqrt_spd,
    tolerance_tube,
)
from covsteer import cli, monte_carlo
from covsteer.bridge import BridgeSolution


def scalar_problem(eps=1.0):
    return SteeringProblem(make_system([[0.0]], [[1.0]]), [[1.0]], [[1.0]], eps)


def inertial_problem(eps=1.0):
    sys = make_system([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], np.eye(2))
    return SteeringProblem(sys, 2 * np.eye(2), 0.25 * np.eye(2), eps)


@pytest.fixture(scope="module")
def inertial_solution():
    problem = inertial_problem()
    return problem, solve(problem, 1000)


def test_deterministic_reruns(inertial_solution):
    problem, sol = inertial_solution
    a = simulate(problem, sol, 500, 200, seed=99)
    b = simulate(problem, sol, 500, 200, seed=99)
    assert a.states.tobytes() == b.states.tobytes()
    assert a.costs.tobytes() == b.costs.tobytes()


def test_paths_independent_of_path_count_and_block(inertial_solution):
    # 5000 paths span two simulation blocks; each path's draws are keyed by its index
    problem, sol = inertial_solution
    few = simulate(problem, sol, 500, 200, seed=5)
    many = simulate(problem, sol, 5000, 200, seed=5)
    assert many.states[:500].tobytes() == few.states.tobytes()
    assert many.costs[:500].tobytes() == few.costs.tobytes()


def _tv_problem():
    # n = 3, m = 2, time-varying A, B, Q and R, with R != I and Q != 0
    sys = make_system(
        lambda t: np.array([[0.0, 1.0, 0.0], [-1.0, -0.2 * t, 0.5], [0.3, 0.0, -t]]),
        lambda t: np.array([[1.0, 0.0], [t, 1.0], [0.0, 1.0 - 0.5 * t]]),
        lambda t: np.diag([1.0 + t, 0.5, 2.0 - t]),
        lambda t: np.array([[2.0 + t, 0.3], [0.3, 1.0]]),
    )
    sigma0 = np.array([[1.0, 0.2, 0.0], [0.2, 2.0, 0.1], [0.0, 0.1, 0.5]])
    return SteeringProblem(sys, sigma0, np.eye(3), epsilon=0.7)


def _naive_paths(problem, gain_seq, n_paths, n_steps, seed, block):
    """Per-path Euler-Maruyama with draws from the documented stream rule."""
    sys = problem.sys
    n, m = sys.dim_state, sys.dim_input
    dt = 1.0 / n_steps
    w, v = np.linalg.eigh(problem.sigma0)
    root0 = v @ np.diag(np.sqrt(w)) @ v.T
    states = np.empty((n_paths, n_steps + 1, n))
    costs = np.zeros(n_paths)
    for i in range(n_paths):
        b, col = divmod(i, block)
        gen = np.random.Generator(np.random.Philox(key=[seed, b]))
        x = root0 @ gen.standard_normal((n, block))[:, col]
        for k in range(n_steps + 1):
            t = k * dt
            u = -gain_seq[k] @ x
            weight = 0.5 * dt if k in (0, n_steps) else dt
            costs[i] += weight * (u @ sys.R(t) @ u + x @ sys.Q(t) @ x)
            states[i, k] = x
            if k < n_steps:
                w, v = np.linalg.eigh(sys.R(t))
                r_inv_half = v @ np.diag(w**-0.5) @ v.T
                dw = gen.standard_normal((m, block))[:, col]
                x = (x + dt * (sys.A(t) @ x + sys.B(t) @ u)
                     + np.sqrt(problem.epsilon * dt) * sys.B(t) @ r_inv_half @ dw)
    return states, costs


def test_stream_contract_matches_naive_per_path_loop(monkeypatch):
    # 20 paths in blocks of 8 make three streams, the last one cut to 4 columns
    monkeypatch.setattr(monte_carlo, "_BLOCK_PATHS", 8)
    problem = _tv_problem()
    n_steps, seed = 10, 31
    grid = np.linspace(0.0, 1.0, n_steps + 1)
    gain_seq = np.random.default_rng(3).standard_normal((n_steps + 1, 2, 3))
    result = monte_carlo._simulate_gain(problem, grid, gain_seq, 20, n_steps, seed, grid)
    states, costs = _naive_paths(problem, gain_seq, 20, n_steps, seed, 8)
    assert np.abs(result.states - states).max() <= 1e-12 * np.abs(states).max()
    assert np.abs(result.costs - costs).max() <= 1e-12 * np.abs(costs).max()


def test_interp_matrices_matches_the_per_entry_interp_loop():
    rng = np.random.default_rng(5)
    src_t = np.linspace(0.0, 1.0, 2001)
    src_m = rng.standard_normal((2001, 2, 6))
    # non-nested in the source grid, with both ends and times beyond each end
    dst_t = np.concatenate([[-0.05], np.linspace(0.0, 1.0, 777), [1.05]])
    flat = src_m.reshape(2001, -1)
    ref = np.stack([np.interp(dst_t, src_t, flat[:, j]) for j in range(12)], axis=1)
    got = monte_carlo._interp_matrices(src_t, src_m, dst_t)
    assert got.shape == (779, 2, 6)
    assert np.abs(got.reshape(779, -1) - ref).max() <= 1e-14 * np.abs(ref).max()


def test_golden_stream_inertial_q1():
    # pins the draws of seed 1; a change to the stream (or to the solved gain)
    # must edit these values on purpose
    cfg = cli.RunConfig.from_dict(dict(cli.PRESETS["inertial-q1"]))
    problem = cli.build_problem(cfg)
    sol = solve(problem, cfg.grid_size)
    result = simulate(problem, sol, 3, 4, seed=1, checkpoints=np.linspace(0.0, 1.0, 5))
    states = [
        [[1.442905095109758, 1.296624971873409],
         [1.7670613380781102, -1.2730828165553365],
         [1.448790633939276, -2.2592570621439854],
         [0.8839763684032796, -2.378417789749241],
         [0.2893719209659694, -1.0698805525037234]],
        [[1.074396696190205, -1.9478046067528507],
         [0.5874455445019923, -1.9823455796037226],
         [0.09185914960106162, -2.0501524627042738],
         [-0.4206789660750068, -0.21636610663222933],
         [-0.47477049273306415, 0.07486605481923136]],
        [[-0.34766729619337616, -1.284029851049072],
         [-0.6686747589556441, -0.1333739236343257],
         [-0.7020182398642255, 0.6578363163116079],
         [-0.5375591607863235, 0.22240693914194487],
         [-0.48195742600083724, 0.8028120572380839]],
    ]
    np.testing.assert_allclose(result.states, states, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        result.costs, [45.045033959702884, 14.591083976444796, 22.506992224636672], rtol=1e-12
    )


def test_zero_control_trivial_cost():
    # equal marginals, no drift, no state penalty, zero noise: K = 0, cost = 0
    problem = scalar_problem(eps=0.0)
    sol = solve(problem, 500)
    result = simulate(problem, sol, 100, 200, seed=1)
    assert result.cost_estimate == 0.0
    # zero-diffusion closed-loop flow leaves every path at its start value
    np.testing.assert_allclose(result.states[:, -1], result.states[:, 0], atol=1e-12)


def test_zero_noise_terminal_covariance():
    problem = inertial_problem(eps=0.0)
    sol = solve(problem, 1000)
    result = simulate(problem, sol, 4000, 1000, seed=12)
    target = 0.25 * np.eye(2)
    rel = np.linalg.norm(empirical_covariance(result, 1.0) - target) / np.linalg.norm(target)
    assert rel < 0.08


def test_mean_preservation(inertial_solution):
    problem, sol = inertial_solution
    result = simulate(problem, sol, 4000, 500, seed=77)
    for ci in range(len(result.grid)):
        mean = result.states[:, ci].mean(axis=0)
        trace = np.trace(result.empirical_cov[ci])
        assert np.linalg.norm(mean) < 5.0 * np.sqrt(trace / result.n_paths)


def test_discretization_consistency():
    # zero diffusion makes paths deterministic given x0, and a shared seed
    # reuses the same x0 draws, so differencing against a fine-step run
    # cancels the sampling error and isolates the O(dt) Euler truncation
    problem = inertial_problem(eps=0.0)
    sol = solve(problem, 4000)
    reference = simulate(problem, sol, 2000, 4000, seed=4)
    ref_cov = empirical_covariance(reference, 1.0)
    errs = []
    for n_steps in (250, 1000):
        result = simulate(problem, sol, 2000, n_steps, seed=4)
        errs.append(np.linalg.norm(empirical_covariance(result, 1.0) - ref_cov))
    assert errs[0] / errs[1] > 2.5


def test_simulate_input_validation(inertial_solution):
    problem, sol = inertial_solution
    with pytest.raises(DomainError):
        simulate(problem, sol, 1, 100, seed=0)
    with pytest.raises(DomainError):
        simulate(problem, sol, 10, 100, seed=0, checkpoints=[0.0, 1.0 / 3.0])
    with pytest.raises(DomainError):
        simulate(problem, sol, 10, 0, seed=0)


@pytest.mark.parametrize(
    "n_steps, expected",
    [(4, [0.0, 0.25, 0.5, 0.75, 1.0]),
     (25, list(np.arange(0, 25, 2) / 25) + [1.0]),
     (30, list(np.arange(11) / 10))],
    ids=["4", "25", "30"],
)
def test_simulate_default_checkpoints_are_grid_nodes(inertial_solution, n_steps, expected):
    # every max(1, n_steps // 10)-th node and t = 1; a multiple of 10 gives t = 0, 0.1, ..., 1
    problem, sol = inertial_solution
    result = simulate(problem, sol, 3, n_steps, seed=1)
    np.testing.assert_allclose(result.grid, expected, rtol=0, atol=1e-15)
    explicit = simulate(problem, sol, 3, n_steps, seed=1, checkpoints=expected)
    assert result.states.tobytes() == explicit.states.tobytes()


def test_empirical_covariance_hand_cases():
    base = dict(n_paths=2, grid=np.array([0.5]), costs=np.zeros(2),
                cost_estimate=0.0, cost_stderr=0.0, seed=0)
    zeros = SimulationResult(
        states=np.zeros((2, 1, 2)), empirical_cov=np.zeros((1, 2, 2)), **base
    )
    np.testing.assert_allclose(empirical_covariance(zeros, 0.5), np.zeros((2, 2)))
    pm = SimulationResult(
        states=np.array([[[1.0]], [[-1.0]]]), empirical_cov=np.array([[[1.0]]]),
        **dict(base, n_paths=2)
    )
    np.testing.assert_allclose(empirical_covariance(pm, 0.5), [[1.0]])
    with pytest.raises(DomainError):
        empirical_covariance(pm, 0.25)
    # times match on absolute distance: 0.99999 is not within 1e-12 of 1
    near = SimulationResult(
        states=np.zeros((2, 3, 1)), empirical_cov=np.array([[[1.0]], [[2.0]], [[3.0]]]),
        **dict(base, grid=np.array([0.0, 0.99999, 1.0]))
    )
    np.testing.assert_array_equal(empirical_covariance(near, 1.0), [[3.0]])
    np.testing.assert_array_equal(empirical_covariance(near, 0.99999), [[2.0]])


def _flat_solution(sigma):
    sigma = np.asarray(sigma, dtype=float)
    grid = np.array([0.0, 1.0])
    n = sigma.shape[0]
    return BridgeSolution(
        grid=grid,
        pi=np.zeros((2, n, n)),
        h=np.zeros((2, n, n)),
        k=np.zeros((2, 1, n)),
        sigma=np.stack([sigma, sigma]),
        boundary_residuals=(0.0, 0.0),
        epsilon=1.0,
    )


def test_tube_unit_circle():
    tube = tolerance_tube(_flat_solution(np.eye(2)), level=3.0, resolution=32)
    radii = np.linalg.norm(tube[0], axis=1)
    np.testing.assert_allclose(radii, 3.0, atol=1e-12)


def test_tube_axis_aligned_ellipse():
    tube = tolerance_tube(_flat_solution(np.diag([4.0, 1.0])), level=3.0, resolution=360)
    assert np.abs(tube[0][:, 0]).max() == pytest.approx(6.0, abs=1e-3)
    assert np.abs(tube[0][:, 1]).max() == pytest.approx(3.0, abs=1e-3)


def test_tube_benchmark_start_radius(inertial_solution):
    _, sol = inertial_solution
    tube = tolerance_tube(sol, level=3.0, resolution=64)
    radii = np.linalg.norm(tube[0], axis=1)
    np.testing.assert_allclose(radii, 3.0 * np.sqrt(2.0), atol=1e-9)


def test_tube_matches_per_node_roots(inertial_solution):
    _, sol = inertial_solution
    tube = tolerance_tube(sol, level=2.0, resolution=16)
    theta = np.linspace(0.0, 2.0 * np.pi, 16, endpoint=False)
    circle = 2.0 * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    reference = np.stack([circle @ sqrt_spd(s) for s in sol.sigma])
    assert np.abs(tube - reference).max() <= 1e-14 * np.abs(reference).max()


@pytest.mark.parametrize("seed", [-1, 2**63, 2**70])
def test_simulate_and_cost_gap_reject_a_seed_outside_the_stream_keys(inertial_solution, seed):
    # seeds 2**63 and -2**63 would key the same Philox stream; 2**70 keys none
    problem, sol = inertial_solution
    with pytest.raises(DomainError, match="seed"):
        simulate(problem, sol, 10, 10, seed=seed)
    with pytest.raises(DomainError, match="seed"):
        cost_gap(problem, sol, 0.1, 10, 10, seed=seed)


@pytest.mark.parametrize("level, resolution",
                         [(0.0, 16), (-1.0, 16), (np.inf, 16), (np.nan, 16), (3.0, 2)])
def test_tube_rejects_a_bad_level_or_resolution(level, resolution):
    with pytest.raises(DomainError):
        tolerance_tube(_flat_solution(np.eye(2)), level, resolution)


def test_tube_dimension_guard():
    problem = scalar_problem()
    sol = solve(problem, 200)
    with pytest.raises(UnsupportedDimensionError):
        tolerance_tube(sol, 3.0, 16)


def test_cost_gap_zero_perturbation(inertial_solution):
    problem, sol = inertial_solution
    report = cost_gap(problem, sol, 0.0, 200, 200, seed=8)
    assert report.gap == 0.0
    assert report.gap_stderr == 0.0


def test_cost_gap_perturbed_run_reported(inertial_solution):
    problem, sol = inertial_solution
    report = cost_gap(problem, sol, 0.5, 2000, 400, seed=8)
    # the optimal law meets the boundary; the perturbed one misses it and/or pays more
    assert report.terminal_cov_residual_optimal < 0.2
    assert (
        report.gap > 3.0 * report.gap_stderr
        or report.terminal_cov_residual_perturbed > 2.0 * report.terminal_cov_residual_optimal
    )
    assert np.isfinite(report.gap_stderr)
