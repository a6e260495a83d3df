import warnings

import numpy as np
import pytest
import scipy.linalg
from scipy.integrate import solve_ivp
from scipy.linalg import expm
from scipy.optimize import brentq

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
    reachability_gramian,
    sampled_coefficient,
    solve,
    spurious_root_escape,
    sqrt_spd,
    state_transition,
)
from covsteer import bridge
from covsteer.bridge import _sqrt_spd_pair
from covsteer.integrate import rk4_grid
from covsteer.systems import require_controllable
from riccati_oracle import riccati_rhs_h, riccati_rhs_pi

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
    return propagate(sys, 1000)[1][-1]


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
    assert sol.diagnostics["symplectic_residual"] < 1e-9
    for arr in (sol.pi, sol.h, sol.sigma):
        assert np.abs(arr - np.transpose(arr, (0, 2, 1))).max() < 1e-12


def test_solve_zero_noise_inertial():
    sol = solve(inertial_problem(eps=0.0), 2000)
    assert sol.boundary_residuals[1] < 1e-6


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


@pytest.mark.parametrize("run", [lambda p, g: solve(p, g),
                                 lambda p, g: epsilon_sweep(p, [1.0, 0.0], g)],
                         ids=["solve", "sweep"])
@pytest.mark.parametrize("grid_size", [0, -1, 2.5, True])
def test_a_grid_size_that_is_not_a_positive_integer_raises_domain_error(run, grid_size):
    with pytest.raises(DomainError, match="grid_size must be a positive integer"):
        run(inertial_problem(), grid_size)


PASS_ENTRY_POINTS = {
    "propagate": lambda p, n: propagate(p.sys, n),
    "state_transition": lambda p, n: state_transition(p.sys, n),
    "reachability_gramian": lambda p, n: reachability_gramian(p.sys, n),
    "require_controllable": lambda p, n: require_controllable(p.sys, n),
    "corollary_q_zero": lambda p, n: corollary_q_zero(p, n),
}


@pytest.mark.parametrize("entry", sorted(PASS_ENTRY_POINTS))
@pytest.mark.parametrize("grid_size", [0, -3, 2.5, True])
def test_a_pass_grid_size_that_is_not_a_positive_integer_raises_domain_error(entry, grid_size):
    # Q = 0, so corollary_q_zero reaches its grid; True must not pass as 1
    problem = SteeringProblem(inertial_system(q_scale=0.0), 2 * np.eye(2), 0.25 * np.eye(2), 1.0)
    with pytest.raises(DomainError, match="grid_size must be a positive integer"):
        PASS_ENTRY_POINTS[entry](problem, grid_size)


@pytest.mark.parametrize("entry", sorted(PASS_ENTRY_POINTS))
def test_a_numpy_integer_grid_size_gives_the_bytes_of_the_int(entry):
    # a grid size read from an array, say, is a numpy integer; the grid is the same
    problem = SteeringProblem(inertial_system(q_scale=0.0), 2 * np.eye(2), 0.25 * np.eye(2), 1.0)

    def arrays(out):
        return [np.asarray(a) for a in (out if isinstance(out, tuple) else (out,))]

    for got, want in zip(arrays(PASS_ENTRY_POINTS[entry](problem, np.int64(200))),
                         arrays(PASS_ENTRY_POINTS[entry](problem, 200)), strict=True):
        np.testing.assert_array_equal(got, want, strict=True)


@pytest.mark.parametrize("eps", [np.inf, np.nan])
def test_steering_problem_rejects_non_finite_epsilon(eps):
    with pytest.raises(DomainError):
        SteeringProblem(scalar_system(), [[1.0]], [[1.0]], eps)


@pytest.mark.parametrize("eps", ["1", True, None], ids=["str", "bool", "none"])
def test_steering_problem_rejects_an_epsilon_that_is_not_a_real_number(eps):
    # "1" and True once ran as eps = 1.0
    with pytest.raises(DomainError, match="epsilon must be a real number"):
        SteeringProblem(scalar_system(), [[1.0]], [[1.0]], eps)
    assert SteeringProblem(scalar_system(), [[1.0]], [[1.0]], np.float64(0.5)).epsilon == 0.5


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
        bridge, "rk4_grid", lambda steps, y0: np.full((len(steps) + 1,) + y0.shape, fill)
    )
    with pytest.raises(BoundaryResidualError) as err:
        solve(make_problem(), 100)
    solution = err.value.solution
    assert np.isnan(solution.sigma).all()
    assert np.isnan(solution.boundary_residuals[1])


def test_solve_non_finite_h_fails_the_gate(monkeypatch):
    # a NaN in the Y2 block reaches H(1) only: Sigma = X2 Sigma0 X1' still meets
    # sigma1, so only the finiteness check can catch this
    integrate = bridge.rk4_grid

    def h_ends_nan(steps, y0):
        traj = integrate(steps, y0)
        n = y0.shape[0] // 2
        traj[-1, n:, n:] = np.nan
        return traj

    monkeypatch.setattr(bridge, "rk4_grid", h_ends_nan)
    with pytest.raises(BoundaryResidualError, match="non-finite") as err:
        solve(inertial_problem(), 500)
    assert err.value.solution.boundary_residuals[1] < 1e-6


def test_solve_singular_x_raises_typed(monkeypatch):
    integrate = bridge.rk4_grid

    def x_singular_midway(steps, y0):
        traj = integrate(steps, y0)
        n = y0.shape[0] // 2
        traj[len(traj) // 2, :n, :n] = 0.0
        return traj

    monkeypatch.setattr(bridge, "rk4_grid", x_singular_midway)
    with pytest.raises(SingularMatrixError, match=r"X1\(t\) is singular on the grid, at t = 0.5$"):
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


def double_integrator_threshold():
    """q* where det Phi12(1, 0) first vanishes for A = [[0, 1], [0, 0]], B = [0; 1], R = 1, Q = -qI.

    Independent of covsteer: the exact exponential of the constant Hamiltonian matrix.
    """
    a, b = np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0], [1.0]])

    def det_phi12(q):
        m = np.block([[a, -b @ b.T], [q * np.eye(2), -a.T]])
        return np.linalg.det(expm(m)[:2, 2:])

    return brentq(det_phi12, 1.0, 40.0, xtol=1e-13)


@pytest.mark.parametrize("eps", [0.0, 1.0])
@pytest.mark.parametrize("ratio", [0.98, 0.999, 1.001, 1.02])
def test_double_integrator_solves_up_to_the_conjugate_point_threshold(ratio, eps):
    q_star = double_integrator_threshold()
    assert q_star == pytest.approx(36.681862731, rel=1e-10)
    problem = SteeringProblem(inertial_system(q_scale=-ratio * q_star), 2 * np.eye(2),
                              0.25 * np.eye(2), eps)
    if ratio < 1.0:
        assert not solve(problem, 2000).diagnostics["escape_minus"].sign_change
    else:
        with pytest.raises(ConjugatePointError, match="conjugate point"):
            solve(problem, 2000)


def test_solve_records_escape_scans_of_both_roots():
    scalar = SteeringProblem(scalar_system(), [[1.0]], [[1.0]], 1.0)
    for problem, grid_size in ((inertial_problem(), 1000), (scalar, 1000)):
        diagnostics = solve(problem, grid_size).diagnostics
        assert diagnostics["escape_plus"].sign_change
        assert not diagnostics["escape_minus"].sign_change
        for key in ("escape_plus", "escape_minus"):
            assert len(diagnostics[key].times) == grid_size + 1


@pytest.mark.parametrize("eps", [1e-14, 2.2e-311])
def test_a_tiny_eps_passes_the_gate_at_the_zero_noise_pi0(eps):
    # eps * Sigma0^-1 is negligible or subnormal here; solve returns only past its gates
    sol = solve(inertial_problem(eps=eps), 500)
    assert sol.boundary_residuals[1] <= bridge.RESIDUAL_TOL
    limit = solve(inertial_problem(eps=0.0), 500)
    assert np.abs(sol.pi[0] - limit.pi[0]).max() <= 1e-8


def six_state_tv_problem(seed=7):
    """A seeded n = 6, m = 2 problem at eps = 0.5: sampled A and B, piecewise Q, R = I."""
    rng = np.random.default_rng(seed)
    knots = np.linspace(0.0, 1.0, 21)
    a = rng.normal(0.0, 0.5, (6, 6)) + rng.normal(0.0, 0.25, (21, 6, 6))
    b = rng.normal(0.0, 1.0, (6, 2)) + rng.normal(0.0, 0.25, (21, 6, 2))
    g = rng.normal(0.0, 0.5, (4, 6, 6))
    sys = make_system(sampled_coefficient(knots, a), sampled_coefficient(knots, b),
                      piecewise_constant_coefficient(np.linspace(0.0, 1.0, 5),
                                                     g @ g.transpose(0, 2, 1)))
    return SteeringProblem(sys, random_spd(rng, 6, 10.0), 0.1 * random_spd(rng, 6, 10.0), 0.5)


@pytest.mark.parametrize("make_problem", [inertial_problem, six_state_tv_problem],
                         ids=["inertial-q1", "tv-n6"])
def test_sigma_is_positive_definite_at_every_node(make_problem):
    # the solver does not test Sigma for definiteness; its conjugate-point gate must imply it
    sol = solve(make_problem(), 2000)
    for sigma in sol.sigma:
        assert scipy.linalg.eigvalsh(sigma)[0] > 0.0


@pytest.mark.parametrize("eps", [1.0, 0.0])
def test_a_solve_reports_the_symplectic_residual_and_both_escape_scans(eps):
    diagnostics = solve(inertial_problem(eps=eps), 500).diagnostics
    assert set(diagnostics) == {"symplectic_residual", "escape_minus", "escape_plus"}


@pytest.mark.parametrize("make_problem", [inertial_problem, six_state_tv_problem],
                         ids=["inertial-q1", "tv-n6"])
def test_rk4_grid_on_the_phi_step_matrices_gives_the_bytes_of_a_matmul_loop(make_problem):
    sys = make_problem().sys
    n2 = 2 * sys.dim_state
    times, phi, e_k = propagate(sys, 1000)
    rng = np.random.default_rng(5)
    # Phi's start, a two-eps Y(0) and a vector
    for y0 in (np.eye(n2), rng.normal(size=(n2, 2 * n2)), rng.normal(size=n2)):
        loop = np.empty((len(times),) + y0.shape)
        loop[0] = y0
        for k, e in enumerate(e_k):
            np.matmul(e, loop[k], out=loop[k + 1])
        np.testing.assert_array_equal(rk4_grid(e_k, y0), loop, strict=True)
        if y0.shape == (n2, n2):
            np.testing.assert_array_equal(phi, loop, strict=True)


@pytest.mark.parametrize("make_problem", [inertial_problem, six_state_tv_problem],
                         ids=["inertial-q1", "tv-n6"])
def test_the_escape_scans_are_those_of_the_full_phi_stack(make_problem):
    # escape_minus is the gate's det X1, escape_plus a scan of every node of Phi
    problem = make_problem()
    diagnostics = solve(problem, 2000).diagnostics
    times, phi, _ = propagate(problem.sys, 2000)
    roots = coupling_roots(problem.sigma0, problem.sigma1, phi[-1], problem.epsilon)
    minus = spurious_root_escape(problem, (times, phi), roots.z_minus)
    got = diagnostics["escape_minus"]
    np.testing.assert_array_equal(got.times, times, strict=True)
    # two roundings of one determinant: 1e-12 of the scan's largest |det| at every node
    # (readings 6.0e-15 and 7.5e-15); relative to each node's own det, the miss grows as
    # det X1 falls, to 1.5e-10 where it reaches 9e-7 on tv-n6
    miss = np.abs(got.determinants - minus.determinants)
    assert miss.max() <= 1e-12 * np.abs(minus.determinants).max()
    assert (miss <= 1e-9 * np.abs(minus.determinants)).all()
    assert got.sign_change is minus.sign_change is False
    plus = spurious_root_escape(problem, (times, phi), roots.z_plus)
    got = diagnostics["escape_plus"]
    for field in ("times", "determinants"):
        assert getattr(got, field).tobytes() == getattr(plus, field).tobytes()
    assert (got.min_abs_determinant, got.sign_change) == (plus.min_abs_determinant,
                                                          plus.sign_change)


def test_a_q_that_is_not_finite_between_the_checked_samples_raises_conditioning_error():
    # NaN only near t = 0.55 passes make_system's samples at 0, 0.1, ..., 1; Phi is
    # then NaN from there on, and propagate names the first such node
    def q(t):
        return np.full((2, 2), np.nan) if abs(t - 0.55) < 0.01 else np.eye(2)

    sys = make_system([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], q, [[1.0]])
    problem = SteeringProblem(sys, 2 * np.eye(2), 0.25 * np.eye(2), 1.0)
    with pytest.raises(ConditioningError, match=r"Phi\(t, 0\) has non-finite entries from t = "):
        solve(problem, 1000)


def test_a_huge_but_finite_phi_raises_conditioning_error_and_no_warning():
    # Phi(1, 0) is finite, but its products overflowed in symplectic_residual: a raw
    # RuntimeWarning, or with warnings off BoundaryResidualError("... residual inf")
    sys = make_system([[0.0]], [[20.0]], [[734.0]], [[1.0]])
    problem = SteeringProblem(sys, [[1.0]], [[1.0]], 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConditioningError, match=r"max \|Phi\(1, 0\)\| = 1\.609e\+222 on a "
                           r"grid of 200 steps exceeds 1e\+150"):
            solve(problem, 200)


@pytest.mark.parametrize("n, a, b, q, peak", [(1, 0.0, 20.0, 300.0, r"6\.830e\+279"),
                                              (1, 200.0, 1.0, 0.0, r"2\.218e\+155"),
                                              (3, 0.0, 20.0, 160.0, r"6\.303e\+202"),
                                              (4, 0.0, 20.0, 100.0, r"4\.429e\+155")],
                         ids=["max-phi-2.6e147", "max-phi-3.5e86", "n3-max-phi-8.5e108",
                              "n4-max-phi-3.5e86"])
def test_a_huge_terminal_covariance_raises_residual_error_and_no_warning(n, a, b, q, peak):
    # max |Phi(1, 0)| is below PHI_LIMIT, but Sigma(1) passes 1e154: the squares in
    # the residual's norm overflowed, a raw RuntimeWarning, or "residual inf"; at
    # n = 3 and 4 so did det X in the plus root's escape scan
    eye = np.eye(n)
    problem = SteeringProblem(make_system(a * eye, b * eye, q * eye, eye), eye, eye, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(BoundaryResidualError, match=r"terminal covariance residual "
                           rf"{peak} exceeds 1\.000e-04; max \|Sigma\(1\)\| = {peak}") as err:
            solve(problem, 200)
    assert np.isfinite(err.value.solution.boundary_residuals[1])


def test_relative_miss_reads_as_the_unscaled_norms_below_overflow():
    # the scales are powers of two, so the boundary residuals keep their bits
    # wherever no square overflows or underflows
    rng = np.random.default_rng(8)
    for scale in [1e-100, 1e-9, 1e-3, 1.0, 7.0, 1e4, 1e150]:
        for n in (1, 2, 6):
            x, target, noise = scale * rng.standard_normal((3, n, n))
            for near in (x, target + 1e-9 * noise):  # a far and a near miss
                exact = float(np.linalg.norm(near - target) / np.linalg.norm(target))
                assert bridge._relative_miss(near, target) == exact
    assert bridge._relative_miss(np.eye(2), np.eye(2)) == 0.0


def test_solve_and_sweep_run_no_batched_eigh(monkeypatch):
    problems = [inertial_problem(), six_state_tv_problem()]  # built before eigh is watched
    shapes = []
    eigh = np.linalg.eigh

    def recorded(a, *args, **kwargs):
        shapes.append(np.shape(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recorded)
    for problem in problems:
        solve(problem, 500)
        epsilon_sweep(problem, [1.0, 0.5, 0.0], 500)
    assert shapes  # the boundary covariances' roots still use it, one matrix at a time
    assert all(d <= 1 for shape in shapes for d in shape[:-2]), shapes


# ---------------------------------------------------------------------------
# spurious root escape

def test_escape_scalar_plus_root():
    problem = SteeringProblem(scalar_system(), [[1.0]], [[1.0]], 1.0)
    transitions = propagate(problem.sys, 100)[:2]
    roots = coupling_roots(problem.sigma0, problem.sigma1, transitions[1][-1], 1.0)
    report = spurious_root_escape(problem, transitions, roots.z_plus)
    assert report.sign_change
    # X(t) = 1 - t (1/2 + Z+) vanishes at t ~ 0.382
    flip = np.flatnonzero(report.determinants[:-1] * report.determinants[1:] < 0)[0]
    assert report.times[flip] <= 1.0 / (0.5 + 1.0 + np.sqrt(5.0) / 2.0) <= report.times[flip + 1]


def test_escape_scalar_minus_root_clean():
    problem = SteeringProblem(scalar_system(), [[1.0]], [[1.0]], 1.0)
    transitions = propagate(problem.sys, 100)[:2]
    roots = coupling_roots(problem.sigma0, problem.sigma1, transitions[1][-1], 1.0)
    report = spurious_root_escape(problem, transitions, roots.z_minus)
    assert not report.sign_change
    assert report.min_abs_determinant > 0.1


def test_escape_inertial_case():
    problem = inertial_problem()
    times, phi, _ = propagate(problem.sys, 1000)
    nodes = (times[::5], phi[::5])
    roots = coupling_roots(problem.sigma0, problem.sigma1, phi[-1], 1.0)
    assert spurious_root_escape(problem, nodes, roots.z_plus).sign_change
    assert not spurious_root_escape(problem, nodes, roots.z_minus).sign_change


# ---------------------------------------------------------------------------
# zero-penalty closed form

def test_corollary_scalar():
    problem = SteeringProblem(scalar_system(), [[1.0]], [[1.0]], 1.0)
    pi0, _ = corollary_q_zero(problem, 1000)
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
    pi0, _ = corollary_q_zero(problem, 1000)
    np.testing.assert_allclose(pi0, GOLDEN * np.eye(2), atol=1e-10)


def test_corollary_rejects_nonzero_q():
    with pytest.raises(DomainError):
        corollary_q_zero(inertial_problem(), 1000)
    # Q = 50 I on [0.02, 0.08) only, between the stage times of a 7-node check
    zero = np.zeros((2, 2))
    q = piecewise_constant_coefficient([0.0, 0.02, 0.08, 1.0], [zero, 50 * np.eye(2), zero])
    sys = make_system([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], q)
    with pytest.raises(DomainError, match="Q = 0"):
        corollary_q_zero(SteeringProblem(sys, 2 * np.eye(2), 0.25 * np.eye(2), 1.0), 1000)


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


@pytest.mark.parametrize("bad", ["1", True, None, np.nan], ids=["str", "bool", "none", "nan"])
def test_epsilon_sweep_takes_only_what_a_steering_problem_takes(bad):
    # "1" and True once ran as eps = 1.0 through float()
    with pytest.raises(DomainError, match="epsilon"):
        epsilon_sweep(inertial_problem(), [bad], 200)


@pytest.mark.parametrize("bad", [True, np.nan, np.inf, "1"], ids=["bool", "nan", "inf", "str"])
def test_coupling_roots_take_only_what_a_steering_problem_takes(bad):
    with pytest.raises(DomainError, match="epsilon"):
        coupling_roots([[1.0]], [[1.0]], scalar_phi(), bad)


def test_a_numpy_float_eps_is_a_real_number():
    eps = np.float64(0.5)
    roots = coupling_roots([[1.0]], [[1.0]], scalar_phi(), eps)
    np.testing.assert_array_equal(
        roots.z_minus, coupling_roots([[1.0]], [[1.0]], scalar_phi(), 0.5).z_minus)
    (row,) = epsilon_sweep(inertial_problem(), [eps], 200)
    assert type(row.epsilon) is float and row.epsilon == 0.5


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

    def recorded(steps, y0):
        shapes.append(y0.shape)
        return integrate(steps, y0)

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
