import numpy as np
import pytest
from scipy.integrate import solve_ivp

from covsteer import (
    BoundaryResidualError,
    ConditioningError,
    ConjugatePointError,
    ControllabilityError,
    CovsteerError,
    DefinitenessError,
    DomainError,
    SingularMatrixError,
    SteeringProblem,
    blocks,
    corollary_q_zero,
    coupling_roots,
    epsilon_sweep,
    initial_conditions,
    lemma1_residual,
    make_system,
    piecewise_constant_coefficient,
    propagate,
    riccati_rhs_h,
    riccati_rhs_pi,
    solve,
    spurious_root_escape,
    sqrt_spd,
)
from covsteer import bridge
from covsteer.bridge import _sqrt_spd_pair

GOLDEN = 0.5 * (3.0 - np.sqrt(5.0))  # scalar trivial-case Pi(0), ~0.381966


def scalar_system(q=0.0, r=1.0):
    return make_system([[0.0]], [[1.0]], [[q]], [[r]])


def inertial_system(q_scale=1.0, r=None):
    return make_system([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], q_scale * np.eye(2), r)


def inertial_problem(q_scale=1.0, eps=1.0, r=None):
    return SteeringProblem(inertial_system(q_scale, r), 2 * np.eye(2), 0.25 * np.eye(2), eps)


def random_spd(rng, dim, cond_max=1e4):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    half = 0.5 * np.log(cond_max)
    eigs = np.exp(rng.uniform(-half, half, dim))
    if dim > 1:
        eigs /= np.sqrt(eigs.max() * eigs.min())
    return (q * eigs) @ q.T


# ---------------------------------------------------------------------------
# SPD square root

def test_sqrt_spd_identity_and_diagonal():
    np.testing.assert_allclose(sqrt_spd(np.eye(3)), np.eye(3), atol=1e-14)
    np.testing.assert_allclose(sqrt_spd(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)


def test_sqrt_spd_spectral_oracle():
    s = np.array([[2.0, 1.0], [1.0, 2.0]])  # eigenvalues 1 and 3
    root = sqrt_spd(s)
    np.testing.assert_allclose(root @ root, s, atol=1e-12)
    np.testing.assert_allclose(sorted(np.linalg.eigvalsh(root)), [1.0, np.sqrt(3.0)], atol=1e-12)


def test_sqrt_spd_rejects_indefinite():
    with pytest.raises(DefinitenessError) as err:
        sqrt_spd(np.diag([1.0, -2.0]))
    assert err.value.min_eigenvalue == pytest.approx(-2.0)


# ---------------------------------------------------------------------------
# matrix identity

def test_lemma1_scalar_ones():
    assert lemma1_residual(np.eye(1), np.eye(1)) < 1e-14


def test_lemma1_scalar_four_one():
    assert lemma1_residual(np.array([[4.0]]), np.array([[1.0]])) < 1e-14


def test_lemma1_random_pairs():
    rng = np.random.default_rng(7)
    for _ in range(20):
        assert lemma1_residual(random_spd(rng, 5), random_spd(rng, 5)) < 1e-10


def test_lemma1_shape_mismatch():
    with pytest.raises(DomainError):
        lemma1_residual(np.eye(2), np.eye(3))


# ---------------------------------------------------------------------------
# coupling roots and initial conditions

def phi_at_one(sys):
    return propagate(sys, 0.0, 1.0)[1][-1]


def scalar_phi():
    return phi_at_one(scalar_system())


def test_coupling_roots_scalar_eps1():
    roots = coupling_roots([[1.0]], [[1.0]], scalar_phi(), 1.0)
    assert roots.z_minus[0, 0] == pytest.approx(1.0 - np.sqrt(5.0) / 2.0, abs=1e-12)
    assert roots.z_plus[0, 0] == pytest.approx(1.0 + np.sqrt(5.0) / 2.0, abs=1e-12)
    assert roots.t_weight[0, 0] == pytest.approx(1.0, abs=1e-12)


def test_coupling_roots_scalar_eps0():
    roots = coupling_roots([[1.0]], [[1.0]], scalar_phi(), 0.0)
    assert roots.z_minus[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert roots.z_plus[0, 0] == pytest.approx(2.0, abs=1e-12)
    with pytest.raises(DomainError, match="nonnegative"):
        coupling_roots([[1.0]], [[1.0]], scalar_phi(), -0.1)


def test_coupling_roots_symmetric_and_ordered():
    rng = np.random.default_rng(3)
    phi = phi_at_one(inertial_system())
    for _ in range(5):
        s0, s1 = random_spd(rng, 2), random_spd(rng, 2)
        roots = coupling_roots(s0, s1, phi, 0.7)
        np.testing.assert_allclose(roots.z_minus, roots.z_minus.T, atol=0)
        np.testing.assert_allclose(roots.z_plus, roots.z_plus.T, atol=0)
        assert np.linalg.eigvalsh(roots.z_plus - roots.z_minus).min() > 0


def _offset_via_t_form(sigma0, sigma1, phi, eps):
    """Square-root offset computed through the pre-reduction T-parameterized form."""
    s0_inv = np.linalg.inv(sigma0 / eps)
    phi12 = blocks(phi)[1]
    t_mat = np.linalg.inv(phi12.T @ np.linalg.inv(sigma1 / eps) @ phi12)
    t_h, t_ih = _sqrt_spd_pair(t_mat)
    t_inv = t_ih @ t_ih
    inner = t_ih @ s0_inv @ t_ih + 0.25 * (t_ih @ s0_inv @ t_inv @ s0_inv @ t_ih)
    return t_h @ sqrt_spd(inner) @ t_h


def test_coupling_roots_match_t_form():
    rng = np.random.default_rng(11)
    phi = phi_at_one(inertial_system())
    for eps in (1.0, 0.5, 2.0):
        for _ in range(5):
            s0, s1 = random_spd(rng, 2, 1e3), random_spd(rng, 2, 1e3)
            roots = coupling_roots(s0, s1, phi, eps)
            offset = 0.5 * (roots.z_plus - roots.z_minus)
            np.testing.assert_allclose(offset, _offset_via_t_form(s0, s1, phi, eps), atol=1e-9)


def test_initial_conditions_scalar():
    problem = SteeringProblem(scalar_system(), [[1.0]], [[1.0]], 1.0)
    pi0, h0 = initial_conditions(problem, scalar_phi())
    assert pi0[0, 0] == pytest.approx(GOLDEN, abs=1e-12)
    assert h0[0, 0] == pytest.approx(1.0 - GOLDEN, abs=1e-12)


def test_initial_conditions_identity_transport():
    problem = SteeringProblem(scalar_system(), [[1.0]], [[1.0]], 0.0)
    pi0, h0 = initial_conditions(problem, scalar_phi())
    assert pi0[0, 0] == pytest.approx(0.0, abs=1e-12)
    assert h0[0, 0] == pytest.approx(0.0, abs=1e-12)


def test_initial_conditions_branch_consistency():
    problem = inertial_problem()
    phi = phi_at_one(problem.sys)
    roots = coupling_roots(problem.sigma0, problem.sigma1, phi, problem.epsilon)
    pi0, _ = initial_conditions(problem, phi)
    expected = roots.z_minus + 0.5 * problem.epsilon * np.linalg.inv(problem.sigma0)
    np.testing.assert_allclose(pi0, expected, atol=1e-10)


# ---------------------------------------------------------------------------
# Riccati right-hand sides

def test_rhs_at_zero_matrices():
    sys = inertial_system(q_scale=2.0)
    np.testing.assert_allclose(riccati_rhs_pi(sys, 0.3, np.zeros((2, 2))), -2.0 * np.eye(2))
    np.testing.assert_allclose(riccati_rhs_h(sys, 0.3, np.zeros((2, 2))), 2.0 * np.eye(2))


def test_rhs_scalar_arithmetic():
    sys = scalar_system(q=1.0)
    np.testing.assert_allclose(riccati_rhs_pi(sys, 0.0, np.array([[2.0]])), [[3.0]])


# ---------------------------------------------------------------------------
# end-to-end solve

def test_solve_scalar_against_reference_integration():
    problem = SteeringProblem(scalar_system(), [[1.0]], [[1.0]], 1.0)
    sol = solve(problem, 1000)
    assert sol.boundary_residuals[1] < 1e-8
    # independent reference: scipy on dPi/dt = Pi^2 from the closed-form Pi(0)
    ref = solve_ivp(
        lambda t, y: y**2, (0.0, 1.0), [GOLDEN], t_eval=sol.grid, rtol=1e-12, atol=1e-14
    )
    np.testing.assert_allclose(sol.pi[:, 0, 0], ref.y[0], atol=1e-9)
    # closed form: Pi(t) = Pi0 / (1 - Pi0 t)
    np.testing.assert_allclose(sol.pi[:, 0, 0], GOLDEN / (1.0 - GOLDEN * sol.grid), atol=1e-10)
    # equal marginals, unit noise: sdot = -2 Pi(t) s + 1 integrates in closed
    # form to s(t) = (1 - Pi0 t)^2 + t(1 - Pi0 t), which is 1 at both ends
    shape = (1.0 - GOLDEN * sol.grid) ** 2 + sol.grid * (1.0 - GOLDEN * sol.grid)
    np.testing.assert_allclose(sol.sigma[:, 0, 0], shape, atol=1e-8)
    np.testing.assert_allclose([sol.sigma[0, 0, 0], sol.sigma[-1, 0, 0]], 1.0, atol=1e-10)


def test_solve_inertial_benchmark():
    sol = solve(inertial_problem(), 2000)
    assert sol.boundary_residuals[1] < 1e-6
    assert sol.diagnostics["sum_law_residual"] < 1e-6
    for arr in (sol.pi, sol.h, sol.sigma):
        assert np.abs(arr - np.transpose(arr, (0, 2, 1))).max() < 1e-12


def test_solve_zero_noise_inertial():
    sol = solve(inertial_problem(eps=0.0), 2000)
    assert sol.boundary_residuals[1] < 1e-6
    assert "sum_law_residual" not in sol.diagnostics


def test_solve_negative_state_penalty():
    sol = solve(inertial_problem(q_scale=-5.0), 2000)
    assert sol.boundary_residuals[1] < 1e-6


def test_solve_gain_definition():
    sol = solve(inertial_problem(), 500)
    # K = R^-1 B' Pi with B = [0, 1]' and R = 1: the gain row is Pi's second row
    np.testing.assert_allclose(sol.k[:, 0, :], sol.pi[:, 1, :], atol=1e-13)


def test_solve_fourth_order_boundary_decay():
    # coarse grids, because by grid 50 the residual is already at roundoff
    coarse = _solve_tolerant(inertial_problem(), grid_size=4).boundary_residuals[1]
    fine = _solve_tolerant(inertial_problem(), grid_size=8).boundary_residuals[1]
    assert coarse / fine > 8.0


def test_solve_residual_error_carries_solution():
    with pytest.raises(BoundaryResidualError) as err:
        solve(inertial_problem(), 2)
    assert err.value.solution is not None
    assert err.value.solution.boundary_residuals[1] > 1e-4


def test_solve_uncontrollable_system_rejected():
    sys = make_system([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 1)))
    problem = SteeringProblem(sys, 2 * np.eye(2), 0.25 * np.eye(2), 1.0)
    with pytest.raises(ControllabilityError):
        solve(problem, 200)


def test_ill_conditioned_phi12_raises_conditioning_error():
    # the Gramian's smallest eigenvalue is 1e-8, above CONTROLLABILITY_TOL, but
    # cond Phi12(1, 0) = 1e14 exceeds COND_LIMIT
    sys = make_system(np.zeros((2, 2)), np.diag([1e3, 1e-4]))
    with pytest.raises(ConditioningError, match="Phi12"):
        solve(SteeringProblem(sys, np.eye(2), np.eye(2), 1.0), 200)


def test_definiteness_error_states_the_bound_that_failed():
    # 0.25 is not above PD_TOL * 1e12
    with pytest.raises(DefinitenessError,
                       match=r"min eigenvalue 2\.500e-01 is not above 1e-12 \* max\(1, max "
                             r"eigenvalue 1\.000e\+12\)") as err:
        sqrt_spd(np.diag([0.25, 1e12]))
    assert err.value.min_eigenvalue == pytest.approx(0.25)


def test_ill_conditioned_coupling_core_raises_conditioning_error():
    # cond Phi12 = 1e10 passes COND_LIMIT, but the coupling core is SPD with
    # eigenvalues 0.25 and about 1e12, too ill-conditioned for PD_TOL
    sys = make_system(np.zeros((2, 2)), np.diag([1e2, 1e-3]))
    with pytest.raises(ConditioningError, match=r"coupling core .*condition number 4\.000e\+12"):
        solve(SteeringProblem(sys, np.eye(2), np.eye(2), 1.0), 200)


def test_steering_problem_validation():
    with pytest.raises(DefinitenessError):
        SteeringProblem(scalar_system(), [[0.0]], [[1.0]], 1.0)
    with pytest.raises(DomainError):
        SteeringProblem(scalar_system(), [[1.0]], [[1.0]], -0.5)
    for sigma0 in ([1.0], 1.0, [[[1.0]]]):  # checked before symmetrize reads axis -2
        with pytest.raises(DomainError, match="boundary covariances must be n x n"):
            SteeringProblem(scalar_system(), sigma0, [[1.0]], 1.0)
    with pytest.raises(DomainError, match="grid_size"):
        solve(SteeringProblem(scalar_system(), [[1.0]], [[1.0]], 1.0), grid_size=0)


@pytest.mark.parametrize("eps", [np.inf, np.nan])
def test_steering_problem_rejects_non_finite_epsilon(eps):
    with pytest.raises(DomainError):
        SteeringProblem(scalar_system(), [[1.0]], [[1.0]], eps)


@pytest.mark.parametrize("which", ["sigma0", "sigma1"])
def test_steering_problem_rejects_non_finite_covariance(which):
    sigmas = {"sigma0": [[1.0]], "sigma1": [[1.0]], which: [[np.nan]]}
    with pytest.raises(DomainError, match=which):
        SteeringProblem(scalar_system(), sigmas["sigma0"], sigmas["sigma1"], 1.0)


def six_state_problem():
    sys = make_system(np.zeros((6, 6)), np.eye(6), np.eye(6))
    return SteeringProblem(sys, 2 * np.eye(6), 0.25 * np.eye(6), 1.0)


@pytest.mark.parametrize("fill", [np.nan, np.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("make_problem", [inertial_problem, six_state_problem],
                         ids=["inertial", "six-state"])
def test_solve_nan_residual_fails_the_gate(monkeypatch, make_problem, fill):
    monkeypatch.setattr(
        bridge, "rk4_grid", lambda f, y0, grid: np.full((len(grid),) + y0.shape, fill)
    )
    with pytest.raises(BoundaryResidualError) as err:
        solve(make_problem(), 100)
    assert np.isnan(err.value.solution.diagnostics["sum_law_residual"])


def test_solve_non_finite_h_fails_the_gate(monkeypatch):
    # a NaN in the Y2 block reaches H(1) only: Sigma = X2 Sigma0 X1' still meets
    # sigma1, so only the finiteness check can catch this
    integrate = bridge.rk4_grid

    def h_ends_nan(f, y0, grid):
        traj = integrate(f, y0, grid)
        n = y0.shape[0] // 2
        traj[-1, n:, n:] = np.nan
        return traj

    monkeypatch.setattr(bridge, "rk4_grid", h_ends_nan)
    with pytest.raises(BoundaryResidualError, match="non-finite") as err:
        solve(inertial_problem(), 500)
    assert err.value.solution.boundary_residuals[1] < 1e-6


def test_solve_singular_x_raises_typed(monkeypatch):
    integrate = bridge.rk4_grid

    def x_singular_midway(f, y0, grid):
        traj = integrate(f, y0, grid)
        n = y0.shape[0] // 2
        traj[len(grid) // 2, :n, :n] = 0.0
        return traj

    monkeypatch.setattr(bridge, "rk4_grid", x_singular_midway)
    with pytest.raises(SingularMatrixError, match="X"):
        solve(inertial_problem(), 100)


def conjugate_problem(omega, eps):
    """Scalar A = 0, B = R = Sigma0 = Sigma1 = 1, Q = -omega^2: Phi12(t, 0) = -sin(omega t) / omega."""
    return SteeringProblem(scalar_system(q=-omega**2), [[1.0]], [[1.0]], eps)


# grid 1001 has no node at t = 0.5, where det X1 vanishes at eps = 0
@pytest.mark.parametrize("eps", [0.0, 1.0])
@pytest.mark.parametrize("omega", [1.0, 3.0, 3.1])
def test_solve_before_the_first_conjugate_point(omega, eps):
    sol = solve(conjugate_problem(omega, eps), 1001)
    assert sol.boundary_residuals[1] < 1e-8
    assert not sol.diagnostics["escape_minus"].sign_change


@pytest.mark.parametrize("eps", [0.0, 1.0])
@pytest.mark.parametrize("omega", [3.2, 4.0, 7.0])
def test_conjugate_point_raises_and_brackets_the_zero_of_x1(omega, eps):
    # X1(t) = cos(omega t) - Pi0 sin(omega t) / omega first vanishes at omega t = atan2(omega, Pi0)
    pi0 = eps / 2 + omega / np.tan(omega) - np.sqrt(eps**2 / 4 + omega**2 / np.sin(omega) ** 2)
    t_zero = np.arctan2(omega, pi0) / omega
    with pytest.raises(ConjugatePointError, match="conjugate point") as err:
        solve(conjugate_problem(omega, eps), 1001)
    lo, hi = err.value.interval
    assert hi - lo == pytest.approx(1 / 1001)
    assert lo <= t_zero <= hi


def test_solve_records_escape_scans_of_both_roots():
    scalar = SteeringProblem(scalar_system(), [[1.0]], [[1.0]], 1.0)
    for problem, grid_size in ((inertial_problem(), 1000), (scalar, 1000)):
        diagnostics = solve(problem, grid_size).diagnostics
        assert diagnostics["escape_plus"].sign_change
        assert not diagnostics["escape_minus"].sign_change
        assert len(diagnostics["escape_plus"].times) == 101


@pytest.mark.parametrize("eps", [1e-14, 2.2e-311])
def test_sum_law_residuals_stay_finite_at_tiny_eps(eps):
    # eps * Sigma^-1 vanishes here, so the readings are scaled by ||Pi|| instead
    diagnostics = solve(inertial_problem(eps=eps), 500).diagnostics
    for key in ("sum_law_residual", "terminal_sum_residual"):
        assert 0.0 <= diagnostics[key] <= 1e-8


@pytest.mark.parametrize("grid_size", [150, 1001])
@pytest.mark.parametrize("q_scale", [1.0, 0.0], ids=["q1", "q0"])
def test_transitions_keep_the_first_and_last_nodes(q_scale, grid_size):
    sys = inertial_system(q_scale)
    times, phi = propagate(sys, 0.0, 1.0, grid_size)
    kept_times, kept = bridge._transitions(sys, grid_size)
    # every max(1, grid_size // 100)-th node, and the last node
    step = max(1, grid_size // 100)
    expected = list(range(0, grid_size, step)) + [grid_size]
    np.testing.assert_array_equal(kept_times, times[expected])
    assert kept_times[0] == 0.0 and kept_times[-1] == 1.0
    np.testing.assert_array_equal(kept[0], np.eye(4))
    assert kept[-1].tobytes() == phi[-1].tobytes()


# ---------------------------------------------------------------------------
# spurious root escape

def test_escape_scalar_plus_root():
    problem = SteeringProblem(scalar_system(), [[1.0]], [[1.0]], 1.0)
    transitions = propagate(problem.sys, 0.0, 1.0, 100)
    roots = coupling_roots(problem.sigma0, problem.sigma1, transitions[1][-1], 1.0)
    report = spurious_root_escape(problem, transitions, roots.z_plus)
    assert report.sign_change
    # X(t) = 1 - t (1/2 + Z+) vanishes at t ~ 0.382
    flip = np.flatnonzero(report.determinants[:-1] * report.determinants[1:] < 0)[0]
    assert report.times[flip] <= 1.0 / (0.5 + 1.0 + np.sqrt(5.0) / 2.0) <= report.times[flip + 1]


def test_escape_scalar_minus_root_clean():
    problem = SteeringProblem(scalar_system(), [[1.0]], [[1.0]], 1.0)
    transitions = propagate(problem.sys, 0.0, 1.0, 100)
    roots = coupling_roots(problem.sigma0, problem.sigma1, transitions[1][-1], 1.0)
    report = spurious_root_escape(problem, transitions, roots.z_minus)
    assert not report.sign_change
    assert report.min_abs_determinant > 0.1


def test_escape_inertial_case():
    problem = inertial_problem()
    times, phi = propagate(problem.sys, 0.0, 1.0, 1000)
    nodes = (times[::5], phi[::5])
    roots = coupling_roots(problem.sigma0, problem.sigma1, phi[-1], 1.0)
    assert spurious_root_escape(problem, nodes, roots.z_plus).sign_change
    assert not spurious_root_escape(problem, nodes, roots.z_minus).sign_change


# ---------------------------------------------------------------------------
# zero-penalty closed form

def test_corollary_scalar():
    problem = SteeringProblem(scalar_system(), [[1.0]], [[1.0]], 1.0)
    pi0, _ = corollary_q_zero(problem)
    assert pi0[0, 0] == pytest.approx(GOLDEN, abs=1e-12)


def test_corollary_matches_hamiltonian_route():
    sys = inertial_system(q_scale=0.0)
    problem = SteeringProblem(sys, 2 * np.eye(2), 0.25 * np.eye(2), 1.0)
    pi0_gram, h0_gram = corollary_q_zero(problem, 1000)
    pi0_ham, h0_ham = initial_conditions(problem, phi_at_one(sys))
    np.testing.assert_allclose(pi0_gram, pi0_ham, atol=1e-8)
    np.testing.assert_allclose(h0_gram, h0_ham, atol=1e-8)


def test_corollary_isotropic_channels():
    sys = make_system(np.zeros((2, 2)), np.eye(2))
    problem = SteeringProblem(sys, np.eye(2), np.eye(2), 1.0)
    pi0, _ = corollary_q_zero(problem)
    np.testing.assert_allclose(pi0, GOLDEN * np.eye(2), atol=1e-10)


def test_corollary_rejects_nonzero_q():
    with pytest.raises(DomainError):
        corollary_q_zero(inertial_problem())
    # Q = 50 I on [0.02, 0.08) only, between the stage times of a 7-node check
    zero = np.zeros((2, 2))
    q = piecewise_constant_coefficient([0.0, 0.02, 0.08, 1.0], [zero, 50 * np.eye(2), zero])
    sys = make_system([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], q)
    with pytest.raises(DomainError, match="Q = 0"):
        corollary_q_zero(SteeringProblem(sys, 2 * np.eye(2), 0.25 * np.eye(2), 1.0))


# ---------------------------------------------------------------------------
# zero-noise limit

def test_epsilon_sweep_scalar_closed_form():
    problem = SteeringProblem(scalar_system(), [[1.0]], [[1.0]], 1.0)
    rows = epsilon_sweep(problem, [1.0, 0.1, 0.01], 1000)
    for row in rows:
        expected = row.epsilon / 2.0 + 1.0 - np.sqrt(row.epsilon**2 / 4.0 + 1.0)
        assert row.gap == pytest.approx(expected, abs=1e-9)
    ratios = [row.gap / row.epsilon for row in rows]
    assert max(ratios) < 0.51  # bounded, tending to 1/2


def test_epsilon_sweep_monotone_inertial():
    rows = epsilon_sweep(inertial_problem(), [10.0, 1.0, 0.1, 0.01, 0.0], 1000)
    gaps = [row.gap for row in rows]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))
    assert gaps[-1] == 0.0


def test_epsilon_sweep_single_zero_row():
    rows = epsilon_sweep(inertial_problem(), [0.0], 500)
    assert len(rows) == 1 and rows[0].gap == 0.0


def test_epsilon_sweep_rejects_unsorted():
    with pytest.raises(DomainError):
        epsilon_sweep(inertial_problem(), [0.1, 1.0])
    with pytest.raises(DomainError, match="empty"):
        epsilon_sweep(inertial_problem(), [])
    with pytest.raises(DomainError, match="nonnegative"):
        epsilon_sweep(inertial_problem(), [1.0, -0.1])


def test_epsilon_sweep_rows_match_standalone_solves():
    eps_list = [2.0, 0.5, 0.0]
    rows = epsilon_sweep(inertial_problem(), eps_list, 400)
    for eps, row in zip(eps_list, rows):
        sol = solve(inertial_problem(eps=eps), 400)
        assert row.epsilon == eps
        np.testing.assert_array_equal(row.pi0, sol.pi[0])
        assert row.boundary_residuals == sol.boundary_residuals


@pytest.mark.parametrize("eps_list", [[1.0], [10.0, 1.0, 0.1, 0.0]])
def test_epsilon_sweep_checks_and_propagates_once(monkeypatch, eps_list):
    calls = {"require_controllable": 0, "propagate": 0, "rk4_grid": 0}

    def counted(name):
        original = getattr(bridge, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(bridge, name, counted(name))
    epsilon_sweep(inertial_problem(), eps_list, 200)
    # one Y pass for every eps
    assert calls == {"require_controllable": 1, "propagate": 1, "rk4_grid": 1}


@pytest.mark.parametrize(
    "fail_eps, grid_size, first_error, y0_shapes",
    [(2.0, 200, ConditioningError, []),
     (0.5, 200, ConditioningError, [(4, 4)]),
     (0.5, 2, BoundaryResidualError, [(4, 4)])],
    ids=["first-eps-roots", "second-eps-roots", "first-eps-gate"],
)
def test_epsilon_sweep_raises_the_error_of_the_first_failing_solve(
    monkeypatch, fail_eps, grid_size, first_error, y0_shapes
):
    eps_list = [2.0, 0.5, 0.0]
    roots = bridge.coupling_roots

    def roots_fail_at_one_eps(sigma0, sigma1, phi, eps):
        if eps == fail_eps:
            raise ConditioningError(f"no roots at eps = {eps}")
        return roots(sigma0, sigma1, phi, eps)

    monkeypatch.setattr(bridge, "coupling_roots", roots_fail_at_one_eps)
    with pytest.raises(CovsteerError) as standalone:
        for eps in eps_list:
            solve(inertial_problem(eps=eps), grid_size)

    integrate, shapes = bridge.rk4_grid, []

    def recorded(f, y0, grid):
        shapes.append(y0.shape)
        return integrate(f, y0, grid)

    monkeypatch.setattr(bridge, "rk4_grid", recorded)
    with pytest.raises(first_error) as swept:
        epsilon_sweep(inertial_problem(), eps_list, grid_size)
    assert type(standalone.value) is first_error
    assert str(swept.value) == str(standalone.value)
    assert shapes == y0_shapes  # the Y pass carries only the eps before the failing roots


# ---------------------------------------------------------------------------
# general input weight

def test_r_reduction_equivalence():
    direct = solve(inertial_problem(r=4.0 * np.eye(1)), 1000)
    transformed_sys = make_system([[0.0, 1.0], [0.0, 0.0]], [[0.0], [0.5]], np.eye(2))
    transformed = solve(
        SteeringProblem(transformed_sys, 2 * np.eye(2), 0.25 * np.eye(2), 1.0), 1000
    )
    np.testing.assert_allclose(direct.pi, transformed.pi, atol=1e-8)


def _solve_tolerant(problem, grid_size=1000):
    try:
        return solve(problem, grid_size)
    except BoundaryResidualError as err:
        return err.solution
