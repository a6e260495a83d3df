import re
import tracemalloc
import weakref

import numpy as np
import pytest

import covsteer.bridge
import covsteer.integrate
import covsteer.systems
from covsteer import (
    DefinitenessError,
    DomainError,
    SteeringProblem,
    TimeVaryingLinearSystem,
    blocks,
    coupling_roots,
    epsilon_sweep,
    make_system,
    piecewise_constant_coefficient,
    propagate,
    reachability_gramian,
    sampled_coefficient,
    solve,
    spurious_root_escape,
    state_transition,
    symplectic_residual,
)
from covsteer.hamiltonian import hamiltonian_stack
from covsteer.integrate import (
    horizon_grid,
    rk4_grid,
    rk4_step,
    stage_times,
    step_matrices,
    step_stack,
)
from paper_identities import ratio_T
from riccati_oracle import hamiltonian_matrix


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
    # bypass make_system validation to exercise the runtime definiteness check of R
    sys = TimeVaryingLinearSystem(
        1, 1,
        lambda t: np.zeros((1, 1)),
        lambda t: np.ones((1, 1)),
        lambda t: np.zeros((1, 1)),
        lambda t: np.zeros((1, 1)),
    )
    with pytest.raises(DefinitenessError, match=r"R\(t\) is not positive definite at t = 0 "):
        hamiltonian_matrix(sys, 0.0)


def test_propagate_initial_condition():
    times, phi, _ = propagate(scalar_system(), 1)
    np.testing.assert_array_equal(times, [0.0, 1.0])
    np.testing.assert_array_equal(phi[0], np.eye(2))


def test_propagate_nilpotent_scalar():
    phi = propagate(scalar_system(), 1000)[1][-1]
    np.testing.assert_allclose(
        phi, [[1.0, -1.0], [0.0, 1.0]], atol=1e-13
    )


def test_propagate_constant_hyperbolic():
    # M = [[0,-1],[-1,0]] exponentiates to [[cosh, -sinh], [-sinh, cosh]]
    times, phi, _ = propagate(scalar_system(q=1.0), 1000)
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
    phi = propagate(scalar_system(q=1.0), 1000)[1]
    assert symplectic_residual(phi[-1]) < 1e-12
    assert symplectic_residual(phi) == max(symplectic_residual(m) for m in phi)


def test_symplectic_residual_double_integrator():
    phi = propagate(double_integrator_q1(), 1000)[1]
    assert symplectic_residual(phi[100::100]) < 1e-9


def test_ratio_t_at_equal_times_is_zero():
    phi = propagate(double_integrator_q1(), 1000)[1][0]  # Phi(0, 0) = I
    np.testing.assert_array_equal(ratio_T(phi), np.zeros((2, 2)))


def test_ratio_t_scalar_values():
    phi0 = propagate(scalar_system(), 1000)[1][-1]
    np.testing.assert_allclose(ratio_T(phi0), [[-1.0]], atol=1e-12)
    phi1 = propagate(scalar_system(q=1.0), 1000)[1][-1]
    np.testing.assert_allclose(ratio_T(phi1), [[-np.tanh(1.0)]], atol=1e-12)


def test_ratio_t_negative_definite_and_monotone():
    phi = propagate(double_integrator_q1(), 1000)[1]
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
        phi = propagate(sys, 1000)[1]
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

N_TV = 300  # 300 steps: step_stack samples two pages at STAGE_PAGE = 256, the second of 44 steps
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


def test_hamiltonian_stack_gives_the_bytes_of_a_block_assembly():
    sys = make_system(*tv_maps())
    ts = stage_times(GRID_TV)
    a, b, r = sys.A(ts), sys.B(ts), sys.R(ts)
    # B R^-1 B' is G G' of the noise channel G = B R^-1/2
    g = covsteer.systems.noise_channel(b, r, ts)
    quad = g @ np.swapaxes(g, -1, -2)
    assert _rel(quad, b @ np.linalg.solve(r, np.swapaxes(b, -1, -2))) <= 1e-14
    blocked = np.block([[a, -quad], [-sys.Q(ts), -np.swapaxes(a, -1, -2)]])
    assert hamiltonian_stack(sys, ts).tobytes() == blocked.tobytes()


@pytest.mark.parametrize("page", [1, 7, 256, 299, 10_000])
def test_solve_samples_each_coefficient_once_per_stage_time_per_pass(monkeypatch, page):
    monkeypatch.setattr(covsteer.integrate, "STAGE_PAGE", page)
    maps = [Counted(f) for f in tv_maps()]
    problem = SteeringProblem(make_system(*maps), np.eye(3), 0.5 * np.eye(3))
    for c in maps:
        c.times.clear()  # drop make_system's validation samples
    solve(problem, grid_size=N_TV)

    stages = np.linspace(0.0, 1.0, 2 * N_TV + 1)
    node = (np.arange(2 * N_TV + 1) % 2 == 0).astype(int)
    # passes: Gramian (A), Phi (A, B, Q, R); the Y pass multiplies Phi's step
    # matrices and samples nothing. Node-only: Gramian B and R (its channel is
    # B R^-1/2), gains B and R. Per stage time, whatever the page size:
    expected = {"A": 2 + 0 * node, "B": 1 + 2 * node, "Q": 1 + 0 * node, "R": 1 + 2 * node}
    for name, c in zip("ABQR", maps):
        times = np.array(c.times)
        j = np.rint(times * 2 * N_TV).astype(int)
        assert np.abs(times - stages[j]).max() <= 2 * np.spacing(1.0), name
        np.testing.assert_array_equal(np.bincount(j, minlength=2 * N_TV + 1), expected[name])
    assert [len(c.times) for c in maps] == [1202, 1203, 601, 1203]


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


def test_solve_gives_the_same_bytes_at_every_page_size(monkeypatch):
    problem = SteeringProblem(PARITY_SYSTEMS["tv"](), np.eye(3), 0.5 * np.eye(3))
    outputs = []
    for page in (1, 7, 10_000):
        monkeypatch.setattr(covsteer.integrate, "STAGE_PAGE", page)
        sol = solve(problem, N_TV)
        outputs.append([arr.tobytes() for arr in (sol.pi, sol.h, sol.sigma, sol.k)])
    assert outputs[0] == outputs[1] == outputs[2]


@pytest.mark.parametrize("page", [1, 7, 10_000])
def test_the_y_pass_on_phi_step_matrices_gives_the_bytes_of_a_pass_from_fresh_samples(
    monkeypatch, page
):
    monkeypatch.setattr(covsteer.integrate, "STAGE_PAGE", page)
    problem = SteeringProblem(PARITY_SYSTEMS["tv"](), np.eye(3), 0.5 * np.eye(3))
    sweep = [SteeringProblem(problem.sys, problem.sigma0, problem.sigma1, eps)
             for eps in (2.0, 0.5, 0.0)]

    def fresh_y_pass(steps, y0):  # ignores Phi's step matrices: samples M anew
        grid = horizon_grid(len(steps))
        return rk4_grid(step_stack(lambda ts: hamiltonian_stack(problem.sys, ts), grid), y0)

    def outputs():
        sols = [solve(problem, N_TV)]
        sols += covsteer.bridge._solve_each(sweep, N_TV)[1]
        rows = epsilon_sweep(problem, [p.epsilon for p in sweep], N_TV)
        return ([arr.tobytes() for sol in sols for arr in (sol.pi, sol.h, sol.sigma, sol.k)]
                + [(row.pi0.tobytes(), row.gap) for row in rows])

    shared = outputs()
    monkeypatch.setattr(covsteer.bridge, "rk4_grid", fresh_y_pass)
    assert shared == outputs()


def test_no_step_matrix_outlives_the_y_pass(monkeypatch):
    # the reads and the diagnostics hold the peak memory of a solve: Phi's E_k must be
    # gone by then, and the full Phi stack already by the Y pass
    refs, seen = [], []
    propagate_ = covsteer.bridge.propagate

    def kept(*args):
        times, phi, e_k = propagate_(*args)
        refs.append((weakref.ref(phi), weakref.ref(e_k)))
        return times, phi, e_k

    def watched(name, fn):
        def call(*args):  # which of each propagation's Phi and E_k are alive
            seen.append((name, [(phi() is not None, e_k() is not None) for phi, e_k in refs]))
            return fn(*args)
        return call

    monkeypatch.setattr(covsteer.bridge, "propagate", kept)
    for name in ("rk4_grid", "_read_flows"):
        monkeypatch.setattr(covsteer.bridge, name, watched(name, getattr(covsteer.bridge, name)))
    problem = SteeringProblem(PARITY_SYSTEMS["tv"](), np.eye(3), 0.5 * np.eye(3))
    solve(problem, N_TV)
    epsilon_sweep(problem, [1.0, 0.0], N_TV)
    dead = (False, False)
    assert seen == [
        ("rk4_grid", [(False, True)]),  # the pass multiplies E_k, so it is alive there
        ("_read_flows", [dead]),
        ("rk4_grid", [dead, (False, True)]),
        ("_read_flows", [dead, dead]),
        ("_read_flows", [dead, dead]),
    ]


@pytest.mark.parametrize("page", [1, 3, 256])
@pytest.mark.parametrize("grid", [np.linspace(0.0, 1.0, 9), np.linspace(1.0, 0.0, 9)],
                         ids=["forward", "backward"])
def test_rk4_grid_on_a_constant_scalar_follows_the_stability_polynomial(monkeypatch, page, grid):
    monkeypatch.setattr(covsteer.integrate, "STAGE_PAGE", page)
    lam, sampled = -2.5, []

    def sample(ts):
        sampled.append(ts)
        return np.full((len(ts), 1, 1), lam)

    ys = rk4_grid(step_stack(sample, grid), np.ones(1))
    z = lam * (grid[1] - grid[0])  # every step of these grids is exactly +-1/8
    r = 1.0 + z + z**2 / 2.0 + z**3 / 6.0 + z**4 / 24.0
    np.testing.assert_allclose(ys[:, 0], r ** np.arange(len(grid)), rtol=1e-14, atol=0.0)
    # each stage time is sampled once, a page of steps per call, in the order of the pass
    assert len(sampled) == -(-(len(grid) - 1) // page)
    np.testing.assert_array_equal(np.concatenate(sampled), stage_times(grid))


def test_rk4_grid_working_memory_is_bounded_by_the_page_not_the_grid():
    g = np.random.default_rng(3).normal(0.0, 0.3, (2, 12, 12))

    def sample(ts):
        return g[0] + ts[:, None, None] * g[1]

    def extra_peak(run):  # run's result, and the bytes it held at its peak beyond that result
        tracemalloc.start()
        try:
            result = run()
            return result, tracemalloc.get_traced_memory()[1] - result.nbytes
        finally:
            tracemalloc.stop()

    def extra_peaks(n):  # of step_stack and of rk4_grid on an n-step grid
        grid, y0 = np.linspace(0.0, 1.0, n + 1), np.eye(12)
        e, stack_peak = extra_peak(lambda: step_stack(sample, grid))
        _, pass_peak = extra_peak(lambda: rk4_grid(e, y0))
        return np.array([stack_peak, pass_peak])

    extra_peaks(2000)  # warm-up: first-call allocations are not the pass's
    small, large = extra_peaks(2000), extra_peaks(20_000)
    # step_stack holds a page of samples and step matrices besides the stack, and
    # rk4_grid nothing that grows with the grid: a copy of the 20 000 step matrices
    # (12 x 12) or of the states would add 23 MB at N = 20 000
    assert np.abs(large - small).max() <= 16 * 1024


def expression_step_matrices(g, h):
    """E_k as one expression with fresh temporaries: the reference for the in-place build."""
    g0, gh, g1 = g[:-1:2], g[1::2], g[2::2]
    eye = np.eye(g.shape[-1])
    h = h[:, None, None]
    k2 = gh @ (eye + 0.5 * h * g0)
    k3 = gh @ (eye + 0.5 * h * k2)
    k4 = g1 @ (eye + h * k3)
    return eye + (h / 6.0) * (g0 + 2.0 * k2 + 2.0 * k3 + k4)


@pytest.mark.parametrize("n", [1, 2, 6, 12])
@pytest.mark.parametrize("steps", [1, 7, 256])
@pytest.mark.parametrize("direction", [1.0, -1.0], ids=["forward", "backward"])
def test_step_matrices_give_the_bytes_of_the_expression(n, steps, direction):
    rng = np.random.default_rng(100 * n + steps)
    g = rng.normal(0.0, 2.0, (2 * steps + 1, n, n))
    h = direction * rng.uniform(1e-4, 0.3, steps)
    e = step_matrices(g, h)
    assert e.shape == (steps, n, n) and e.dtype == np.float64
    np.testing.assert_array_equal(e, expression_step_matrices(g, h), strict=True)


@pytest.mark.parametrize("shape", [(), (2, 3, 3), (1, 3, 3, 1)], ids=["scalar", "stack", "4-d"])
def test_rk4_grid_takes_only_a_vector_or_a_matrix_state(shape):
    # the dot method contracts a stack along other axes than @ does, so a stack is refused
    grid = np.linspace(0.0, 1.0, 5)
    e = step_stack(lambda ts: np.zeros((len(ts), 3, 3)), grid)
    with pytest.raises(DomainError, match=re.escape(f"a vector or a matrix, got shape {shape}")):
        rk4_grid(e, np.ones(shape))


@pytest.mark.parametrize("shape", [(2,), (4,), (12,), (2, 2), (4, 4), (12, 12), (12, 24)],
                         ids=lambda s: "x".join(map(str, s)))
def test_rk4_step_writes_the_bytes_of_a_matmul_into_out_and_returns_it(shape):
    rng = np.random.default_rng(sum(shape))
    e = rng.normal(size=(shape[0], shape[0]))
    y = rng.normal(size=shape)
    nodes = np.full((3,) + shape, np.nan)
    out = nodes[1]  # a node of a pass's output, as in rk4_grid
    assert rk4_step(e, y, out) is out
    assert out.tobytes() == np.matmul(e, y).tobytes()
    assert np.isnan(nodes[[0, 2]]).all()


def test_a_solve_and_a_sweep_do_not_step_through_the_np_dot_dispatcher(monkeypatch):
    # np.dot's Python-level __array_function__ dispatcher once ran on every RK4 step
    calls = []
    dot = np.dot

    def counted(*args, **kwargs):
        calls.append(1)
        return dot(*args, **kwargs)

    monkeypatch.setattr(np, "dot", counted)
    problem = SteeringProblem(double_integrator_q1(), 2.0 * np.eye(2), 0.25 * np.eye(2))
    solve(problem, 2000)
    assert len(calls) < 2000
    epsilon_sweep(problem, [2.0, 1.0, 0.5, 0.1, 0.0], 2000)
    assert len(calls) < 2000


def per_call_rk4(f, y0, grid):
    """Classical RK4 of y' = f(t, y) that calls f at every stage of every step: the oracle."""
    ys = [np.asarray(y0, dtype=float)]
    for k in range(len(grid) - 1):
        t, dt, y = grid[k], grid[k + 1] - grid[k], ys[-1]
        k1 = f(t, y)
        k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
        k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
        k4 = f(t + dt, y + dt * k3)
        ys.append(y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    return np.array(ys)


@pytest.mark.parametrize("page", [1, 7, 10_000])
@pytest.mark.parametrize("grid", [np.linspace(0.0, 1.3, 41), np.linspace(1.3, 0.2, 34)],
                         ids=["forward", "backward"])
@pytest.mark.parametrize("y0", [np.array([1.0, -2.0, 0.5]),
                                np.arange(6.0).reshape(3, 2) - 2.5], ids=["vector", "matrix"])
def test_rk4_grid_matches_the_per_call_oracle_on_a_non_commuting_flow(monkeypatch, page, grid, y0):
    monkeypatch.setattr(covsteer.integrate, "STAGE_PAGE", page)
    rng = np.random.default_rng(13)
    g = rng.normal(0.0, 1.0, (3, 3, 3))  # G(t) = G0 + t G1 + sin(3t) G2: G(s) G(t) != G(t) G(s)

    def g_at(t):
        t = np.asarray(t, dtype=float)[..., None, None]
        return g[0] + t * g[1] + np.sin(3.0 * t) * g[2]

    oracle = per_call_rk4(lambda t, y: g_at(t) @ y, y0, grid)
    assert _rel(rk4_grid(step_stack(g_at, grid), y0), oracle) <= 1e-13


@pytest.mark.parametrize("name", sorted(PARITY_SYSTEMS))
def test_propagate_matches_the_per_call_hamiltonian_oracle(name):
    sys = PARITY_SYSTEMS[name]()
    oracle = per_call_rk4(lambda t, y: hamiltonian_matrix(sys, t) @ y, np.eye(2 * sys.dim_state),
                          GRID_TV)
    times, staged, _ = propagate(sys, N_TV)
    np.testing.assert_array_equal(times, GRID_TV)
    # rk4_grid multiplies by step matrices, the oracle adds up stages: roundoff apart
    assert _rel(staged, oracle) <= 1e-12


@pytest.mark.parametrize("name", sorted(PARITY_SYSTEMS))
def test_drift_sweeps_match_the_per_call_oracle(monkeypatch, name):
    sys = PARITY_SYSTEMS[name]()
    grids, passes = [], []

    def recorded_stack(sample, grid):
        grids.append(grid)
        return step_stack(sample, grid)

    def recorded(e, y0):
        passes.append((y0, rk4_grid(e, y0)))
        return passes[-1][1]

    monkeypatch.setattr(covsteer.systems, "step_stack", recorded_stack)
    monkeypatch.setattr(covsteer.systems, "rk4_grid", recorded)
    reachability_gramian(sys, N_TV)
    state_transition(sys, N_TV)
    ((y0, sweep_t), (psi0, psi)), (back, fwd) = passes, grids
    assert back[0] == 1.0 and back[-1] == 0.0 and len(back) == N_TV + 1
    # the Gramian integrates the transposed sweep; the oracle, G' = -G A row by row
    oracles = (per_call_rk4(lambda tau, y: -y @ sys.A(tau), y0, back),
               per_call_rk4(lambda tau, y: sys.A(tau) @ y, psi0, fwd))
    for staged, oracle in zip((np.swapaxes(sweep_t, -1, -2), psi), oracles):
        if name == "tv":
            assert _rel(staged, oracle) <= 1e-12
        else:
            np.testing.assert_array_equal(staged, oracle)


# ---------------------------------------------------------------------------
# a constant system samples once per pass and builds one E per step size

RNG3 = np.random.default_rng(31)
G3 = RNG3.normal(0.0, 0.5, (3, 3))
# A, B, Q, R, Sigma0, Sigma1 of the inertial-q1 preset and of an n = 3, m = 2 system whose
# R is not I; the one root that noise_channel takes of a constant R gives the bytes of
# the batched root of a materialized one (see tests/test_linear_systems.py)
CONSTANT_CASES = {
    "inertial-q1": ([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], np.eye(2), [[1.0]],
                    2.0 * np.eye(2), 0.25 * np.eye(2)),
    "n3-r-not-i": (RNG3.normal(0.0, 0.5, (3, 3)), RNG3.normal(0.0, 1.0, (3, 2)), G3 @ G3.T,
                   [[4.0, 0.0], [0.0, 0.5]], np.eye(3), 0.5 * np.eye(3)),
}


def constant_and_per_time(name):
    """The case's system from constant matrices, and from the same matrices as plain
    callables, which make_system samples one time at a time into a materialized stack."""
    mats = [np.array(m, dtype=float) for m in CONSTANT_CASES[name][:4]]
    plain = [lambda t, m=m: m for m in mats]
    return make_system(*mats), make_system(*plain)


def _constant_case_bytes(sys, name, grid):
    sigma0, sigma1 = CONSTANT_CASES[name][4:]
    problem = SteeringProblem(sys, sigma0, sigma1)
    times, phi, e_k = propagate(sys, grid)
    sol = solve(problem, grid)
    plus = coupling_roots(sigma0, sigma1, phi[-1]).z_plus
    arrays = (phi, e_k, reachability_gramian(sys, grid),
              state_transition(sys, grid), sol.pi, sol.h, sol.sigma, sol.k,
              sol.diagnostics["escape_minus"].determinants,
              spurious_root_escape(problem, (times, phi), plus).determinants)
    return [np.ascontiguousarray(arr).tobytes() for arr in arrays]


@pytest.mark.parametrize("page", [1, 7, 10_000])
@pytest.mark.parametrize("grid", [2000, 999])
@pytest.mark.parametrize("name", sorted(CONSTANT_CASES))
def test_a_constant_system_gives_the_bytes_of_its_per_time_samples(monkeypatch, name, grid, page):
    monkeypatch.setattr(covsteer.integrate, "STAGE_PAGE", page)
    constant, per_time = constant_and_per_time(name)
    ts = stage_times(np.linspace(0.0, 1.0, 5))
    assert all(covsteer.integrate.is_constant(f(ts)) for f in (constant.A, constant.B,
                                                               constant.Q, constant.R))
    assert not covsteer.integrate.is_constant(per_time.A(ts))
    assert _constant_case_bytes(constant, name, grid) == _constant_case_bytes(per_time, name, grid)


class CountedConstant:
    """A constant coefficient, vectorized and zero-stride, that counts its calls."""

    vectorized = True

    def __init__(self, value):
        self.f, self.calls = covsteer.systems.constant_coefficient(value), 0

    def __call__(self, t):
        self.calls += 1
        return self.f(t)


def test_a_constant_system_samples_each_coefficient_once_per_pass():
    a, b, q, r = CONSTANT_CASES["inertial-q1"][:4]
    maps = [CountedConstant(m) for m in (a, b, q, r)]
    sys = make_system(*maps)
    grid = 2000  # 8 pages of STAGE_PAGE = 256 steps

    def calls(run):
        for c in maps:
            c.calls = 0
        run()
        return [c.calls for c in maps]

    assert calls(lambda: propagate(sys, grid)) == [1, 1, 1, 1]
    # the sweep samples A once; B and R are sampled once more, at the nodes, for the channel
    assert calls(lambda: reachability_gramian(sys, grid)) == [1, 1, 0, 1]
    assert calls(lambda: state_transition(sys, grid)) == [1, 0, 0, 0]


def test_step_stack_builds_one_step_matrix_per_distinct_step_size(monkeypatch):
    built = []
    step_matrices_ = covsteer.integrate.step_matrices

    def recorded(g, h):
        built.append(len(h))
        return step_matrices_(g, h)

    monkeypatch.setattr(covsteer.integrate, "step_matrices", recorded)
    grid = np.linspace(0.0, 1.0, 2001)
    g = np.array([[0.0, 1.0], [-2.0, -0.3]])
    e = step_stack(lambda ts: np.broadcast_to(g, ts.shape + g.shape), grid)
    assert built == [len(np.unique(np.diff(grid)))] and built[0] < 20
    assert e.shape == (2000, 2, 2)
    fresh = step_stack(lambda ts: np.repeat(g[None], len(ts), axis=0), grid)
    assert e.tobytes() == fresh.tobytes()


@pytest.mark.parametrize("page", [1, 7, 256, 10_000])
@pytest.mark.parametrize("grid", [np.linspace(0.0, 1.3, 601), np.linspace(1.3, 0.2, 534)],
                         ids=["forward", "backward"])
@pytest.mark.parametrize("constant", [True, False], ids=["constant", "materialized"])
def test_step_stack_gives_the_bytes_of_one_step_matrices_call_on_the_whole_grid(
    monkeypatch, page, grid, constant
):
    monkeypatch.setattr(covsteer.integrate, "STAGE_PAGE", page)
    g = np.random.default_rng(17).normal(0.0, 1.0, (3, 3, 3))

    def sample(ts):
        if constant:
            return np.broadcast_to(g[0], ts.shape + g.shape[1:])
        t = ts[:, None, None]
        return g[0] + t * g[1] + np.sin(3.0 * t) * g[2]

    e = step_stack(sample, grid)
    assert e.shape == (len(grid) - 1, 3, 3) and e.dtype == np.float64
    assert e.flags.c_contiguous
    assert e.tobytes() == step_matrices(sample(stage_times(grid)), np.diff(grid)).tobytes()

