import tracemalloc
import warnings

import numpy as np
import pytest

from covsteer import (
    ConditioningError,
    DefinitenessError,
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
from covsteer.integrate import grid_indices, thin_nodes


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
    # 7000 paths span two simulation blocks, the second cut; each path's draws
    # are keyed by its index
    problem, sol = inertial_solution
    assert monte_carlo._BLOCK_PATHS < 7000 < 2 * monte_carlo._BLOCK_PATHS
    few = simulate(problem, sol, 500, 200, seed=5)
    many = simulate(problem, sol, 7000, 200, seed=5)
    assert many.states[:500].tobytes() == few.states.tobytes()
    assert many.costs[:500].tobytes() == few.costs.tobytes()


@pytest.mark.parametrize("n_paths, keys", [(5000, [0]), (5001, [0, 1]), (20000, [0, 1, 2, 3])])
def test_each_block_of_5000_paths_opens_one_stream(monkeypatch, inertial_solution, n_paths, keys):
    opened = []
    stream = monte_carlo._stream

    def recorded(seed, key):
        opened.append(key)
        return stream(seed, key)

    monkeypatch.setattr(monte_carlo, "_stream", recorded)
    problem, sol = inertial_solution
    simulate(problem, sol, n_paths, 2, seed=5)
    assert opened == keys


def test_the_default_path_count_is_whole_blocks():
    # the default run draws no normal it does not keep, whichever number moves
    assert cli.MonteCarloConfig().n_paths % monte_carlo._BLOCK_PATHS == 0


def _tv_problem(eps=0.7):
    # n = 3, m = 2, time-varying A, B, Q and R, with R != I and Q != 0
    sys = make_system(
        lambda t: np.array([[0.0, 1.0, 0.0], [-1.0, -0.2 * t, 0.5], [0.3, 0.0, -t]]),
        lambda t: np.array([[1.0, 0.0], [t, 1.0], [0.0, 1.0 - 0.5 * t]]),
        lambda t: np.diag([1.0 + t, 0.5, 2.0 - t]),
        lambda t: np.array([[2.0 + t, 0.3], [0.3, 1.0]]),
    )
    sigma0 = np.array([[1.0, 0.2, 0.0], [0.2, 2.0, 0.1], [0.0, 0.1, 0.5]])
    return SteeringProblem(sys, sigma0, np.eye(3), epsilon=eps)


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
        gen = np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed).spawn(b + 1)[b]))
        x = root0 @ gen.standard_normal((n, block))[:, col]
        for k in range(n_steps + 1):
            t = k * dt
            u = -gain_seq[k] @ x
            weight = 0.5 * dt if k in (0, n_steps) else dt
            costs[i] += weight * (u @ sys.R(t) @ u + x @ sys.Q(t) @ x)
            states[i, k] = x
            if k < n_steps:
                x = x + dt * (sys.A(t) @ x + sys.B(t) @ u)
                if problem.epsilon > 0:
                    w, v = np.linalg.eigh(sys.R(t))
                    r_inv_half = v @ np.diag(w**-0.5) @ v.T
                    dw = gen.standard_normal((m, block))[:, col]
                    x = x + np.sqrt(problem.epsilon * dt) * sys.B(t) @ r_inv_half @ dw
    return states, costs


@pytest.mark.parametrize("eps", [0.7, 0.0])
@pytest.mark.parametrize("n_paths", [20, 16, 5], ids=["cut-block", "whole-blocks", "one-block"])
def test_stream_contract_matches_naive_per_path_loop(monkeypatch, n_paths, eps):
    # in blocks of 8, 20 paths make three streams, the last one cut to 4 columns,
    # 16 make two whole ones and 5 use part of one; at eps = 0 no step draws
    monkeypatch.setattr(monte_carlo, "_BLOCK_PATHS", 8)
    problem = _tv_problem(eps)
    n_steps, seed = 10, 31
    grid = np.linspace(0.0, 1.0, n_steps + 1)
    gain_seq = np.random.default_rng(3).standard_normal((n_steps + 1, 2, 3))
    result = monte_carlo._simulate_gain(problem, grid, gain_seq, n_paths, n_steps, seed, grid)
    states, costs = _naive_paths(problem, gain_seq, n_paths, n_steps, seed, 8)
    assert np.abs(result.states - states).max() <= 1e-12 * np.abs(states).max()
    assert np.abs(result.costs - costs).max() <= 1e-12 * np.abs(costs).max()


def test_a_seed_and_block_pair_keeps_its_own_stream(monkeypatch, inertial_solution):
    # as list entropy, [5, 7] and [7 * 2**32 + 5, 0] seed one stream (SeedSequence
    # splits each int into 32-bit words and zero-pads them); as a spawn key, block 7
    # of seed 5 and block 0 of seed 7 * 2**32 + 5 are different children
    monkeypatch.setattr(monte_carlo, "_BLOCK_PATHS", 1)
    problem, sol = inertial_solution
    block7 = simulate(problem, sol, 8, 20, seed=5)
    block0 = simulate(problem, sol, 2, 20, seed=7 * 2**32 + 5)
    assert (block7.states[7] != block0.states[0]).all()
    assert block7.costs[7] != block0.costs[0]


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
        [[1.4473477345225918, 1.2956994285739023],
         [1.7712725916660674, -0.7694597653753128],
         [1.5789076503222392, -2.4856116249875613],
         [0.9575047440753489, -2.5120630152203205],
         [0.3294889902702688, -0.8419074683900336]],
        [[-1.2639155830414126, -0.8376302390492391],
         [-1.4733231428037223, 1.610698371410624],
         [-1.0706485499510663, 2.297371918875635],
         [-0.4963055702321575, 2.059668686113965],
         [0.01861160129633377, 0.6319211817781643]],
        [[-1.4774152366743738, 1.9666290042086656],
         [-0.9857579856222074, 1.2641602130437333],
         [-0.6697179323612741, 0.8881479573222136],
         [-0.4476809430307207, 1.7582146102107217],
         [-0.008127290478040283, 1.3339400038547633]],
    ]
    np.testing.assert_allclose(result.states, states, rtol=1e-12, atol=1e-12)
    np.testing.assert_allclose(
        result.costs, [47.400840848380966, 21.468891774603176, 19.20797121885881], rtol=1e-12
    )


def test_simulate_holds_one_block_of_stepping_state():
    # tracemalloc peak of simulate above its own states array (3 520 000 B here). The
    # earlier loop, which stepped all paths at once in (n, n_paths) arrays, peaked
    # 993 244 B above it; stepping one 5000-path block at a time peaks 752 076 B above.
    # The bound sits below that plus one (2, 20000) float array (320 000 B), so a
    # per-step full-width temporary or stepping buffers over all blocks fail it.
    cfg = cli.RunConfig.from_dict(dict(cli.PRESETS["inertial-q1"]))
    problem = cli.build_problem(cfg)
    sol = solve(problem, cfg.grid_size)
    simulate(problem, sol, 10, 10, seed=1)  # first-call allocations are not the loop's
    tracemalloc.start()
    try:
        result = simulate(problem, sol, 20000, 200, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - result.states.nbytes < 786_432


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


@pytest.mark.parametrize("checkpoints", [[0.0, 0.5, 0.5, 1.0], [0.0, 1.0, 0.5], [0.5, 0.5]])
def test_simulate_rejects_checkpoints_that_are_not_strictly_increasing(inertial_solution,
                                                                      checkpoints):
    # a repeated node once left a row of states unwritten (np.empty garbage, an inf covariance)
    problem, sol = inertial_solution
    with pytest.raises(DomainError, match="strictly increasing"):
        simulate(problem, sol, 10, 10, seed=0, checkpoints=checkpoints)


@pytest.mark.parametrize("checkpoints", [0.5, "ab", [[0.5]], ["0.5"], [True], np.array(0.5),
                                         np.ones((1, 1)), [0.5, None]])
def test_simulate_rejects_checkpoints_that_are_not_a_sequence_of_real_numbers(inertial_solution,
                                                                             checkpoints):
    problem, sol = inertial_solution
    with pytest.raises(DomainError, match="checkpoints must be a 1-d sequence of real numbers"):
        simulate(problem, sol, 10, 10, seed=0, checkpoints=checkpoints)


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


GRID_COUNTS = [1, 3, 10, 999, 10**7, 10**15]


@pytest.mark.parametrize("n", GRID_COUNTS)
def test_grid_indices_finds_each_node_from_the_step_count(n):
    # node k is the time k / n, as a float and as its decimal repr (what a config
    # file holds); past 10**7 steps 1e-9 of a step is below an ulp of k / n
    ks = sorted({0, 1, n // 3, n // 2, 8 * n // 10, n - 1, n} | set(range(0, n + 1, -(-n // 100))))
    times = [k / n for k in ks]
    assert grid_indices(times, n).tolist() == ks
    assert grid_indices([float(repr(t)) for t in times], n).tolist() == ks
    assert grid_indices(np.array(times), n).tolist() == ks
    # np.linspace forms node k as k * (1 / n), which can lie an ulp from k / n;
    # simulate's result.grid holds such nodes
    linspace_nodes = [k * (1.0 / n) for k in ks]
    if n < 1000:
        assert linspace_nodes == np.linspace(0.0, 1.0, n + 1)[ks].tolist()
    assert grid_indices(linspace_nodes, n).tolist() == ks
    assert grid_indices(None, n).tolist() == thin_nodes(n, 10).tolist()


@pytest.mark.parametrize("n", GRID_COUNTS)
def test_grid_indices_refuses_what_is_not_a_node(n):
    off_grid = [(n // 2 + 0.5) / n, np.nan, np.inf, -np.inf, -1.0 / n, 1.0 + 1.0 / n, 1e308,
                -1e308]
    for c in off_grid:
        with pytest.raises(DomainError, match=f"nodes of the {n}-step grid on \\[0, 1\\], got "):
            grid_indices([0.0, c], n)
    for checkpoints in ([], [1.0, 0.0], [0.0, 0.0], [0.0, 1.0, 1.0]):
        with pytest.raises(DomainError, match="nonempty and strictly increasing"):
            grid_indices(checkpoints, n)


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
    # the seed range is that of a non-negative int64
    problem, sol = inertial_solution
    with pytest.raises(DomainError, match="seed"):
        simulate(problem, sol, 10, 10, seed=seed)
    with pytest.raises(DomainError, match="seed"):
        cost_gap(problem, sol, 0.1, 10, 10, seed=seed)


@pytest.mark.parametrize("seed", [2.5, True, np.float64(3.0), "3"],
                         ids=["float", "bool", "numpy-float", "str"])
def test_simulate_and_cost_gap_reject_a_seed_that_is_not_an_integer(inertial_solution, seed):
    # 2.5 ran on seed 2's stream and True as seed 1
    problem, sol = inertial_solution
    with pytest.raises(DomainError, match="seed must be an integer"):
        simulate(problem, sol, 10, 10, seed=seed)
    with pytest.raises(DomainError, match="seed must be an integer"):
        cost_gap(problem, sol, 0.1, 10, 10, seed=seed)


def test_a_numpy_integer_seed_runs_as_the_same_int(inertial_solution):
    problem, sol = inertial_solution
    a = simulate(problem, sol, 50, 20, seed=3)
    b = simulate(problem, sol, 50, 20, seed=np.int64(3))
    assert type(b.seed) is int and b.seed == 3
    assert a.states.tobytes() == b.states.tobytes() and a.costs.tobytes() == b.costs.tobytes()
    assert cost_gap(problem, sol, 0.1, 50, 20, seed=3) == cost_gap(
        problem, sol, 0.1, 50, 20, seed=np.int64(3))


@pytest.mark.parametrize("arg", ["n_paths", "n_steps"])
@pytest.mark.parametrize("value", [2.5, 100.0, True, 0])
def test_simulate_and_cost_gap_reject_a_count_that_is_not_a_positive_integer(
    inertial_solution, arg, value
):
    # a float raised a raw TypeError, and n_steps=True ran one step
    problem, sol = inertial_solution
    counts = {"n_paths": 10, "n_steps": 10, arg: value}
    with pytest.raises(DomainError, match=f"{arg} must be a positive integer"):
        simulate(problem, sol, counts["n_paths"], counts["n_steps"], seed=1)
    with pytest.raises(DomainError, match=f"{arg} must be a positive integer"):
        cost_gap(problem, sol, 0.1, counts["n_paths"], counts["n_steps"], seed=1)


def test_simulate_and_cost_gap_reject_the_gain_of_another_problem(inertial_solution):
    # a 1-state gain broadcast through A - B K on the 2-state problem and returned a cost
    problem, _ = inertial_solution
    foreign = solve(scalar_problem(), 200)
    with pytest.raises(DomainError, match=r"\(201, 1, 2\) for this problem, got \(201, 1, 1\)"):
        simulate(problem, foreign, 10, 10, seed=1)
    with pytest.raises(DomainError, match="for this problem"):
        cost_gap(problem, foreign, 0.1, 10, 10, seed=1)


def test_simulate_and_cost_gap_reject_a_solution_solved_at_another_epsilon(inertial_solution):
    # the eps = 1 gain ran without noise and returned a cost whose Sigma(1) missed Sigma1
    problem, sol = inertial_solution
    noiseless = problem._replace(epsilon=0.0)
    match = r"solved at epsilon = 1\.0, but the problem's epsilon is 0\.0"
    with pytest.raises(DomainError, match=match):
        simulate(noiseless, sol, 10, 10, seed=1)
    with pytest.raises(DomainError, match=match):
        cost_gap(noiseless, sol, 0.1, 10, 10, seed=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_simulate_and_cost_gap_reject_a_gain_that_is_not_finite(inertial_solution, bad):
    # a NaN gain gave a NaN cost
    problem, sol = inertial_solution
    k = sol.k.copy()
    k[7, 0, 1] = bad
    broken = sol._replace(k=k)
    with pytest.raises(DomainError, match="non-finite"):
        simulate(problem, broken, 10, 10, seed=1)
    with pytest.raises(DomainError, match="non-finite"):
        cost_gap(problem, broken, 0.1, 10, 10, seed=1)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_simulate_and_cost_gap_name_a_drift_that_is_not_finite_between_the_solve_times(bad):
    # A(t) is bad only at t = 1/37, a step time of 37 steps that the solve at grid 200 never
    # samples; simulate and cost_gap returned NaN states and a NaN cost with no warning
    sys = make_system(lambda t: np.array([[0.0, bad if t == 1 / 37 else 1.0], [0.0, 0.0]]),
                      [[0.0], [1.0]], np.eye(2))
    problem = SteeringProblem(sys, 2 * np.eye(2), 0.25 * np.eye(2))
    sol = solve(problem, 200)
    match = r"the Monte Carlo step matrix is not finite at t = 0\.027027: "
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConditioningError, match=match):
            simulate(problem, sol, 100, 37, 1)
        with pytest.raises(ConditioningError, match=match):
            cost_gap(problem, sol, 0.1, 100, 37, 1)


@pytest.mark.parametrize("eps", [0.0, 1.0])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_simulate_and_cost_gap_name_an_input_matrix_that_is_not_finite_between_the_solve_times(
        eps, bad):
    # B(t) is bad only at t = 1/37; with R = I, B R^-1/2 takes bad * 0 and raised a numpy
    # warning before the step matrix check
    sys = make_system([[0.0, 1.0], [0.0, 0.0]],
                      lambda t: np.array([[0.0, bad if t == 1 / 37 else 1.0], [1.0, 0.0]]))
    problem = SteeringProblem(sys, 2 * np.eye(2), 0.25 * np.eye(2), eps)
    sol = solve(problem, 200)
    match = r"the Monte Carlo step matrix is not finite at t = 0\.027027: "
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConditioningError, match=match):
            simulate(problem, sol, 100, 37, 1)
        with pytest.raises(ConditioningError, match=match):
            cost_gap(problem, sol, 0.1, 100, 37, 1)


def test_simulate_and_cost_gap_check_r_at_eps_zero():
    # R(t) is -1 only at t = 1/37, a step time of 37 steps that the solve at grid 200 never
    # samples; at eps = 0 no noise channel factored R, and the cost took K'RK with R = -1
    sys = make_system([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], np.eye(2),
                      lambda t: np.array([[-1.0 if t == 1 / 37 else 1.0]]))
    problem = SteeringProblem(sys, 2 * np.eye(2), 0.25 * np.eye(2), 0.0)
    sol = solve(problem, 200)
    match = r"^R\(t\) is not positive definite at t = 0\.027027 "
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DefinitenessError, match=match):
            simulate(problem, sol, 100, 37, 1)
        with pytest.raises(DefinitenessError, match=match):
            cost_gap(problem, sol, 0.1, 100, 37, 1)


@pytest.mark.parametrize(
    "grid, match",
    [(lambda g: 0.5 * g, "run from 0 to 1"),
     (lambda g: 0.5 + 0.5 * g, "run from 0 to 1"),
     (lambda g: g + 1e-9, "run from 0 to 1"),
     (lambda g: g[::-1].copy(), "strictly increasing"),
     (lambda g: np.where(np.arange(len(g)) == 3, g[2], g), "strictly increasing"),
     (lambda g: g[:, None], "strictly increasing")],
    ids=["first-half", "second-half", "shifted", "reversed", "repeated", "2-d"],
)
def test_simulate_and_cost_gap_reject_a_gain_off_the_unit_interval(inertial_solution, grid,
                                                                  match):
    # a gain on [0, 0.5] was held at its last value over [0.5, 1] and returned a cost
    problem, sol = inertial_solution
    broken = sol._replace(grid=grid(sol.grid))
    with pytest.raises(DomainError, match=match):
        simulate(problem, broken, 10, 10, seed=1)
    with pytest.raises(DomainError, match=match):
        cost_gap(problem, broken, 0.1, 10, 10, seed=1)


# a float resolution raised a raw TypeError from np.linspace, and level True ran as 1
@pytest.mark.parametrize("level, resolution",
                         [(0.0, 16), (-1.0, 16), (np.inf, 16), (np.nan, 16), (3.0, 2),
                          (3.0, 4.0), (3.0, True), (True, 16)])
def test_tube_rejects_a_bad_level_or_resolution(level, resolution):
    with pytest.raises(DomainError):
        tolerance_tube(_flat_solution(np.eye(2)), level, resolution)


def test_tube_dimension_guard():
    problem = scalar_problem()
    sol = solve(problem, 200)
    with pytest.raises(UnsupportedDimensionError):
        tolerance_tube(sol, 3.0, 16)


@pytest.mark.parametrize("scale", [np.nan, np.inf, -np.inf, "0.1", None, True],
                         ids=["nan", "inf", "-inf", "str", "none", "bool"])
def test_cost_gap_rejects_a_perturbation_scale_that_is_not_finite(inertial_solution, scale):
    # nan and +-inf gave gap = nan with only numpy warnings, "0.1" and None a raw
    # TypeError, and True ran as a scale of 1.0
    problem, sol = inertial_solution
    with pytest.raises(DomainError, match="perturbation_scale must be finite"):
        cost_gap(problem, sol, scale, 100, 50, seed=1)


def test_cost_gap_zero_perturbation(inertial_solution):
    problem, sol = inertial_solution
    report = cost_gap(problem, sol, 0.0, 200, 200, seed=8)
    assert report.gap == 0.0
    assert report.gap_stderr == 0.0


def test_cost_gap_is_the_paired_difference_under_the_documented_perturbation(
        inertial_solution):
    # delta is rebuilt from its documented stream; the perturbed run must then be
    # _simulate_gain under K + scale delta, and the gap the mean of the paired differences
    problem, sol = inertial_solution
    scale, n_paths, n_steps, seed = 0.3, 300, 100, 11
    report = cost_gap(problem, sol, scale, n_paths, n_steps, seed)
    key = np.random.SeedSequence(seed, spawn_key=(0xC0575EE2,))
    delta = np.random.Generator(np.random.SFC64(key)).standard_normal((1, 2))
    delta /= np.linalg.norm(delta)
    base = simulate(problem, sol, n_paths, n_steps, seed, checkpoints=[0.0, 1.0])
    pert = monte_carlo._simulate_gain(problem, sol.grid, sol.k + scale * delta, n_paths,
                                      n_steps, seed, [0.0, 1.0])
    assert report.cost_optimal == base.cost_estimate
    assert report.cost_perturbed == pert.cost_estimate
    diffs = pert.costs - base.costs
    assert report.gap == diffs.mean()
    assert report.gap_stderr == diffs.std(ddof=1) / np.sqrt(n_paths)
    s1_norm = np.linalg.norm(problem.sigma1)
    assert report.terminal_cov_residual_perturbed == np.linalg.norm(
        pert.empirical_cov[-1] - problem.sigma1) / s1_norm


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
