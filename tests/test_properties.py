"""Property test: every drawn problem solves within tolerance or raises a typed error.

The state penalty Q may be indefinite, so some draws reach a conjugate point
and must raise. A second strategy draws the same property across units and
scales: A from 1e-2 to 40, B, R, Sigma0 and Sigma1 from 1e-4 to 1e4 with
condition numbers up to 1e8, |Q| up to about 3e5, eps down to 1e-8 and up to 100, and grids as
coarse as one step. Every solved draw of the first is also checked against
an independent oracle: scipy's DOP853 on the linear Hamiltonian flow
Y' = M(t) Y, started at the solution's own Pi(0) and H(0) and mapped to Pi,
H and Sigma by the same formulas. At zero noise and Q = 0 the problem is mass transport, and the state
map X(1) is checked against the Gaussian Wasserstein-2 map built from scipy's
matrix exponential alone. At zero noise and Q != 0 each path is checked
against scipy's solve_bvp on the deterministic LQ two-point problem, and a
scalar problem with a closed form checks Pi(0) below the conjugate-point
threshold and the gate above it. At every eps the law's coupling of x(0) and
x(1) is checked against the Gaussian entropic optimal-transport coupling for
the LQ cost, built from scipy alone: its matrix exponential on the constant
presets, and DOP853 on one problem with smooth time-varying A, B and Q. A
strict xfail pins the first order of the step on a piecewise-constant Q
against DOP853 restarted at the breaks.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_bvp, solve_ivp
from scipy.linalg import expm
from scipy.optimize import linear_sum_assignment

from covsteer import (
    ConjugatePointError,
    CovsteerError,
    SteeringProblem,
    blocks,
    epsilon_sweep,
    initial_conditions,
    make_system,
    piecewise_constant_coefficient,
    propagate,
    solve,
)
from covsteer import cli
from riccati_oracle import hamiltonian_matrix, riccati_rhs_h


def _spd(rng, dim, log10_cond):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = 10.0 ** rng.uniform(0.0, log10_cond, dim)
    if dim > 1:
        eigs[:2] = 1.0, 10.0**log10_cond  # the drawn condition number, exactly
    return (q * (eigs / np.sqrt(eigs.max()))) @ q.T


def _problem(n, m, seed, q_scale, log10_cond0, log10_cond1, eps, q_neg=0.0):
    """The problem a :func:`problems` draw of these values builds.

    Q = (q_scale CC' - q_neg DD') / n, indefinite when both weights are positive.
    """
    rng = np.random.default_rng(seed)
    c = rng.standard_normal((n, n))
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, m))
    r = _spd(rng, m, 1.0)
    sigma0 = _spd(rng, n, log10_cond0)
    sigma1 = _spd(rng, n, log10_cond1)
    d = rng.standard_normal((n, n))  # drawn last, so q_neg = 0 leaves the other draws as they were
    sys = make_system(a, b, (q_scale * (c @ c.T) - q_neg * (d @ d.T)) / n, r)
    return SteeringProblem(sys, sigma0, sigma1, eps)


@st.composite
def problems(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, n))
    seed = draw(st.integers(0, 2**32 - 1))
    q_scale = draw(st.floats(0.0, 5.0))
    log10_cond0 = draw(st.floats(0.0, 4.0))
    log10_cond1 = draw(st.floats(0.0, 4.0))
    eps = draw(st.floats(0.0, 10.0))
    return _problem(n, m, seed, q_scale, log10_cond0, log10_cond1, eps, draw(st.floats(0.0, 5.0)))


def _dop853(rhs, y0, grid):
    run = solve_ivp(lambda t, y: rhs(t, y.reshape(y0.shape)).ravel(), (0.0, 1.0), y0.ravel(),
                    method="DOP853", rtol=1e-12, atol=1e-12, t_eval=grid)
    assert run.success, run.message
    return run.y.T.reshape((len(grid),) + y0.shape)


def _hamiltonian_oracle(problem, sol):
    """(Pi, H, Sigma) on the solution's grid from DOP853 on Y' = M(t) Y."""
    sys, n = problem.sys, problem.sys.dim_state
    eye = np.eye(n)
    y = _dop853(lambda t, y: hamiltonian_matrix(sys, t) @ y,
                np.block([[eye, eye], [sol.pi[0], -sol.h[0]]]), sol.grid)
    x1, x2, y1, y2 = y[:, :n, :n], y[:, :n, n:], y[:, n:, :n], y[:, n:, n:]
    t = lambda m: np.swapaxes(m, -1, -2)  # noqa: E731
    return (np.linalg.solve(t(x1), t(y1)), -np.linalg.solve(t(x2), t(y2)),
            x2 @ problem.sigma0 @ t(x1))


def _rel(x, ref):
    """Largest entry of x - ref over the trajectory, relative to the largest entry of ref."""
    return float(np.abs(x - ref).max() / np.abs(ref).max())


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(problems())
def test_solve_succeeds_within_tolerance_or_raises_typed(problem):
    try:
        sol = solve(problem, 200)
    except CovsteerError:
        return
    for arr in (sol.pi, sol.h, sol.sigma, sol.k):
        assert np.isfinite(arr).all()
    assert sol.boundary_residuals[1] <= 1e-4
    assert not sol.diagnostics["escape_minus"].sign_change
    assert (np.linalg.eigvalsh(sol.sigma)[:, 0] > 0.0).all()  # Sigma(t) is SPD at every node
    pi, h, _ = _hamiltonian_oracle(problem, sol)
    assert _rel(sol.pi, pi) <= 1e-3
    assert _rel(sol.h, h) <= 1e-3


def _scaled(rng, rows, cols, log10_scale, log10_cond):
    """A random rows x cols matrix: singular values spread 10**log10_cond about 10**log10_scale."""
    u, _ = np.linalg.qr(rng.standard_normal((rows, rows)))
    v, _ = np.linalg.qr(rng.standard_normal((cols, cols)))
    k = min(rows, cols)
    sv = 10.0 ** (log10_scale + log10_cond * (np.linspace(0.5, -0.5, k) if k > 1 else 0.0))
    return (u[:, :k] * sv) @ v[:, :k].T


@st.composite
def scaled_problems(draw):
    """(A, B, Q, R, Sigma0, Sigma1, eps, grid) across units and scales.

    A is scaled by 1e-2 to 40, B, R, Sigma0 and Sigma1 by 1e-4 to 1e4 with
    condition numbers up to 1e8, and Q is PSD or indefinite with
    max |eigenvalue| up to about 3e5, or zero.
    """
    n = draw(st.integers(1, 4))
    m = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def scale_cond():  # log10 of a scale in [1e-4, 1e4] and of a condition number up to 1e8
        return draw(st.floats(-4.0, 4.0)), draw(st.floats(0.0, 8.0))

    def scaled_spd(dim):
        log10_scale, log10_cond = scale_cond()
        return 10.0**log10_scale * _spd(rng, dim, log10_cond)

    a = 10.0 ** draw(st.floats(-2.0, np.log10(40.0))) * rng.standard_normal((n, n))
    b = _scaled(rng, n, m, *scale_cond())
    r, sigma0, sigma1 = scaled_spd(m), scaled_spd(n), scaled_spd(n)
    q_peak = draw(st.one_of(st.just(0.0), st.floats(-3.0, 5.5).map(lambda e: 10.0**e)))
    q_low = draw(st.one_of(st.just(0.0), st.floats(-1.0, 0.0)))  # 0: PSD; below: often indefinite
    w, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q = (w * (q_peak * rng.uniform(q_low, 1.0, n))) @ w.T
    eps = draw(st.sampled_from([0.0, 1e-8, 1e-3, 1.0, 100.0]))
    grid = draw(st.sampled_from([1, 2, 7, 200]))
    return a, b, q, r, sigma0, sigma1, eps, grid


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(scaled_problems())
def test_any_units_and_scales_solve_within_tolerance_or_raise_typed(draw):
    *coefficients, sigma0, sigma1, eps, grid = draw
    try:  # the problem's own checks may refuse it too
        sol = solve(SteeringProblem(make_system(*coefficients), sigma0, sigma1, eps), grid)
    except CovsteerError:
        return
    for arr in (sol.pi, sol.h, sol.sigma, sol.k):
        assert np.isfinite(arr).all()
    assert sol.boundary_residuals[1] <= 1e-4
    assert not sol.diagnostics["escape_minus"].sign_change


# (n, m, seed, Q scale, log10 cond Sigma0, log10 cond Sigma1, eps): draws on which
# a forward integration of the Riccati pair missed Pi by 1.4e-2 and H by 7.8e-2,
# and H by 1.3e-2, while meeting the terminal gate
PINNED_DRAWS = [
    (2, 2, 4263490542, 1.566198987860884, 3.3522000364924796, 3.9940080858587965,
     2.796119193782612),
    (3, 3, 2035970070, 4.464781653565629, 3.2665762821162914, 1.2398550206848067,
     8.817710808483113),
]


@pytest.mark.parametrize("draw", PINNED_DRAWS, ids=["n2", "n3"])
def test_pinned_draws_match_the_dop853_oracle(draw):
    problem = _problem(*draw)
    sol = solve(problem, 200)
    pi, h, sigma = _hamiltonian_oracle(problem, sol)
    assert _rel(sol.pi, pi) <= 1e-6
    assert _rel(sol.h, h) <= 1e-6
    assert _rel(sol.sigma, sigma) <= 1e-6
    # H by a second route: DOP853 on H's own Riccati equation
    h_riccati = _dop853(lambda t, y: riccati_rhs_h(problem.sys, t, y), sol.h[0], sol.grid)
    assert _rel(sol.h, h_riccati) <= 1e-6


def _root_pair(s):
    """(S^1/2, S^-1/2) of an SPD matrix, by numpy's eigh."""
    w, v = np.linalg.eigh(s)
    return (v * np.sqrt(w)) @ v.T, (v / np.sqrt(w)) @ v.T


@st.composite
def transport_draws(draw):
    """(A, B, R, Sigma0, Sigma1) with Q = 0, n <= 3, m <= 2 and R != I, and the Gramian G.

    G is the controllability Gramian over [0, 1] of the channel B R^-1/2, from
    Van Loan's block exponential. Draws with cond(G) > 100 are discarded: above
    it roundoff on both sides nears the tolerance. Up to cond(G) = 1e3 the
    mismatch reached 1.5e-9, where the solver's X Sigma0 X' and the oracle's
    T Sigma0 T' themselves missed Sigma1 by up to 9.5e-10 and 3.1e-10.
    """
    n = draw(st.integers(1, 3))
    m = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.standard_normal((n, n))
    b = rng.standard_normal((n, m))
    r = _spd(rng, m, 1.0) * 10.0 ** rng.uniform(-1.0, 1.0)
    sigma0, sigma1 = _spd(rng, n, 1.0), _spd(rng, n, 1.0)
    channel = b @ _root_pair(r)[1]
    van_loan = expm(np.block([[-a, channel @ channel.T], [np.zeros((n, n)), a.T]]))
    gram = van_loan[n:, n:].T @ van_loan[:n, n:]
    assume(np.linalg.cond(gram) <= 100.0)
    return a, b, r, sigma0, sigma1, gram


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(transport_draws())
def test_zero_noise_state_map_is_the_gaussian_w2_map(draw):
    # cost of x0 -> x1 is (x1 - Psi x0)' G^-1 (x1 - Psi x0): the W2 map in G^-1/2 coordinates
    a, b, r, sigma0, sigma1, gram = draw
    psi = expm(a)
    g_half, g_inv_half = _root_pair(gram)
    s_a = g_inv_half @ psi @ sigma0 @ psi.T @ g_inv_half
    s_b = g_inv_half @ sigma1 @ g_inv_half
    a_half, a_inv_half = _root_pair(s_a)
    t_w2 = a_inv_half @ _root_pair(a_half @ s_b @ a_half)[0] @ a_inv_half
    transport = g_half @ t_w2 @ g_inv_half @ psi

    problem = SteeringProblem(make_system(a, b, None, r), sigma0, sigma1, 0.0)
    sol = solve(problem, 1000)
    phi11, phi12, _, _ = blocks(propagate(problem.sys, 1000)[1][-1])
    assert _rel(phi11 + phi12 @ sol.pi[0], transport) <= 1e-9


@pytest.mark.parametrize("preset", ["inertial-q1", "inertial-q10", "inertial-qneg5"])
def test_zero_noise_paths_are_the_lq_two_point_extremals(preset):
    # at eps = 0 the path from x0 minimizes the deterministic LQ cost with x(1) = T x0,
    # T = X(1): its costate solves x' = Ax - BR^-1B' lam, lam' = -Qx - A' lam, and the
    # feedback u = -R^-1B' Pi x means lam(t) = Pi(t) x(t); T must push Sigma0 to Sigma1
    cfg = cli.RunConfig.from_dict(dict(cli.PRESETS[preset], epsilon=0.0))
    problem = cli.build_problem(cfg)
    sol = solve(problem, cfg.grid_size)
    sys, n = problem.sys, problem.sys.dim_state
    phi11, phi12, _, _ = blocks(propagate(sys, cfg.grid_size)[1][-1])
    transport = phi11 + phi12 @ sol.pi[0]
    assert _rel(transport @ problem.sigma0 @ transport.T, problem.sigma1) <= 1e-9

    a, b, q, r = sys.A(0.0), sys.B(0.0), sys.Q(0.0), sys.R(0.0)  # constant on the presets
    quad = b @ np.linalg.solve(r, b.T)

    def rhs(t, y):
        return np.vstack([a @ y[:n] - quad @ y[n:], -q @ y[:n] - a.T @ y[n:]])

    mesh = np.linspace(0.0, 1.0, 11)
    for x0 in (np.array([1.0, 0.0]), np.array([0.0, 1.0]), np.array([-0.7, 2.0])):
        x1 = transport @ x0
        run = solve_bvp(rhs, lambda ya, yb: np.concatenate([ya[:n] - x0, yb[:n] - x1]),
                        mesh, np.zeros((2 * n, len(mesh))), tol=1e-10, max_nodes=100_000)
        assert run.success, run.message
        lam0 = run.sol(0.0)[n:]
        assert np.abs(lam0 - sol.pi[0] @ x0).max() <= 1e-9 * np.abs(lam0).max()
        path = run.sol(sol.grid)
        assert _rel(np.einsum("tij,jt->it", sol.pi, path[:n]), path[n:]) <= 1e-9


def _tv_coupling_problem(eps):
    """A problem with smooth callable A, B and Q, and its Phi(1, 0) from DOP853 on M(t) alone."""
    def a_of(t):
        return np.array([[0.0, 1.0], [-1.0 - 0.5 * np.sin(2.0 * np.pi * t), -0.2 - 0.3 * t]])

    def b_of(t):
        return np.array([[0.1 * np.cos(np.pi * t)], [1.0 + 0.5 * t]])

    def q_of(t):
        return np.array([[1.0 + 0.5 * np.cos(3.0 * t), 0.2 * t], [0.2 * t, 0.5 + t * t]])

    r = np.array([[1.5]])

    def m_of(t):
        a, b = a_of(t), b_of(t)
        return np.block([[a, -b @ np.linalg.solve(r, b.T)], [-q_of(t), -a.T]])

    run = solve_ivp(lambda t, y: (m_of(t) @ y.reshape(4, 4)).ravel(), (0.0, 1.0),
                    np.eye(4).ravel(), method="DOP853", rtol=1e-13, atol=1e-13)
    assert run.success, run.message
    problem = SteeringProblem(make_system(a_of, b_of, q_of, r), 2.0 * np.eye(2),
                              0.25 * np.eye(2), eps)
    return problem, run.y[:, -1].reshape(4, 4)


@pytest.mark.parametrize("eps", [2.0, 1.0, 0.1, 0.01, 0.0])
@pytest.mark.parametrize("case", ["inertial-q1", "inertial-qneg5", "inertial-q0",
                                  "inertial-r4", "time-varying"])
def test_the_endpoint_coupling_is_the_gaussian_entropic_ot_coupling(case, eps):
    # the extremal from x to y costs c(x, y) = lam(0)'x - lam(1)'y with lam(0) =
    # Phi12^-1 (y - Phi11 x), whose cross term is -2 x'T y for T = -Phi12^-1. So the
    # law's coupling is entropic OT of |T'x - y|^2 between N(0, T'Sigma0 T) and
    # N(0, Sigma1) at sigma^2 = eps (eps = 0: the OT map), whose cross-covariance has
    # the closed form C below; the law's Cov(x(0), x(1)) is Sigma0 X1(1)'. Phi(1, 0)
    # comes from scipy alone: expm on the constant presets, DOP853 on the time-varying
    # case, which read at most 3.5e-14 against the 1e-9 bound (grid 2000)
    if case == "time-varying":
        problem, phi = _tv_coupling_problem(eps)
    else:
        problem = cli.build_problem(cli.RunConfig.from_dict(dict(cli.PRESETS[case],
                                                                 epsilon=eps)))
        sys = problem.sys
        a, b, q, r = sys.A(0.0), sys.B(0.0), sys.Q(0.0), sys.R(0.0)  # constant on the presets
        phi = expm(np.block([[a, -b @ np.linalg.solve(r, b.T)], [-q, -a.T]]))
    n = problem.sys.dim_state
    phi11, phi12, _, _ = blocks(phi)
    t = -np.linalg.inv(phi12)
    a_half, a_inv_half = _root_pair(t.T @ problem.sigma0 @ t)
    eye = np.eye(n)
    core = _root_pair(4.0 * a_half @ problem.sigma1 @ a_half + eps**2 * eye)[0]
    coupling = 0.5 * a_half @ (core - eps * eye) @ a_inv_half

    x1 = phi11 + phi12 @ solve(problem, 2000).pi[0]
    got = t.T @ problem.sigma0 @ x1.T
    assert np.linalg.norm(got - coupling) <= 1e-9 * np.linalg.norm(coupling)


@pytest.mark.parametrize("preset", ["inertial-q1", "inertial-q10", "inertial-qneg5",
                                    "inertial-q0", "inertial-r4"])
def test_the_zero_noise_map_is_the_optimal_assignment_of_its_own_samples(preset):
    # at eps = 0 the law moves x to X1(1) x; among all pairings of 300 samples x_i with
    # their images y_j, the LQ cost c(x, y) = lam(0)'x - lam(1)'y must be least for
    # the law's own, and a rotated map that also pushes Sigma0 to Sigma1 must cost more
    problem = cli.build_problem(cli.RunConfig.from_dict(dict(cli.PRESETS[preset], epsilon=0.0)))
    sys, n = problem.sys, problem.sys.dim_state
    a, b, q, r = sys.A(0.0), sys.B(0.0), sys.Q(0.0), sys.R(0.0)  # constant on the presets
    phi11, phi12, phi21, phi22 = blocks(expm(np.block([[a, -b @ np.linalg.solve(r, b.T)],
                                                       [-q, -a.T]])))
    phi12_inv = np.linalg.inv(phi12)

    def cost(x, y):  # c(x_i, y_j) for every i and j
        lam0 = (y[None, :, :] - (x @ phi11.T)[:, None, :]) @ phi12_inv.T
        lam1 = (x @ phi21.T)[:, None, :] + lam0 @ phi22.T
        return np.einsum("ijk,ik->ij", lam0, x) - np.einsum("ijk,jk->ij", lam1, y)

    x1 = phi11 + phi12 @ solve(problem, 2000).pi[0]
    x = np.random.default_rng(23).multivariate_normal(np.zeros(n), problem.sigma0, 300)
    c = cost(x, x @ x1.T)
    rows, cols = linear_sum_assignment(c)
    np.testing.assert_array_equal(cols[np.argsort(rows)], np.arange(300))

    s1_half, s1_inv_half = _root_pair(problem.sigma1)
    turn = np.array([[np.cos(0.7), -np.sin(0.7)], [np.sin(0.7), np.cos(0.7)]])
    rotated = s1_half @ turn @ s1_inv_half @ x1
    assert _rel(rotated @ problem.sigma0 @ rotated.T, problem.sigma1) <= 1e-9
    assert np.trace(cost(x, x @ rotated.T)) > np.trace(c)


@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_the_sweep_gap_is_linear_in_eps_near_zero(preset):
    # gap(eps) = s0 eps + s1 eps^2 + O(eps^3), so the differences of s(eps) = gap / eps
    # halve with eps; a gap of another order, or none, breaks the ratio
    cfg = cli.RunConfig.from_dict(cli.PRESETS[preset])
    eps_list = [0.04, 0.02, 0.01, 0.005]
    rows = epsilon_sweep(cli.build_problem(cfg), eps_list, cfg.grid_size)
    slope = np.array([row.gap / row.epsilon for row in rows])
    ratios = np.diff(slope)[:-1] / np.diff(slope)[1:]
    assert ((1.9 <= ratios) & (ratios <= 2.1)).all(), ratios
    if preset == "scalar-trivial":
        eps = np.array(eps_list)
        closed_form = eps / 2.0 + 1.0 - np.sqrt(1.0 + eps**2 / 4.0)
        np.testing.assert_allclose([row.gap for row in rows], closed_form, rtol=0.0, atol=1e-9)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP direction 2: a step ending on a break of a "
                   "piecewise coefficient samples the next piece, so the step is first order")
def test_pi0_converges_at_fourth_order_under_a_piecewise_q():
    # Q breaks at 0.25, 0.5 and 0.75, all on the grids' nodes; Pi(0) missed the oracle
    # by 9.9e-5, 4.9e-5, 2.5e-5 and 1.2e-5 at grids 500 to 4000, a ratio of 2.00
    a = np.array([[0.0, 1.0], [-1.0, -0.2]])
    b = np.array([[0.0], [1.0]])
    breaks = [0.0, 0.25, 0.5, 0.75, 1.0]
    q = np.array([np.diag(d) for d in ([1.0, 0.5], [4.0, 0.1], [0.2, 2.0], [3.0, 1.0])])
    problem = SteeringProblem(make_system(a, b, piecewise_constant_coefficient(breaks, q)),
                              2.0 * np.eye(2), 0.25 * np.eye(2), 1.0)
    phi = np.eye(4)
    for lo, hi, q_piece in zip(breaks, breaks[1:], q):  # DOP853 restarted at each break
        m = np.block([[a, -b @ b.T], [-q_piece, -a.T]])
        run = solve_ivp(lambda t, y, m: (m @ y.reshape(4, 4)).ravel(), (lo, hi), phi.ravel(),
                        method="DOP853", rtol=1e-13, atol=1e-13, args=(m,))
        assert run.success, run.message
        phi = run.y[:, -1].reshape(4, 4)
    pi0 = initial_conditions(problem, phi)[0]
    err = [np.linalg.norm(solve(problem, grid).pi[0] - pi0) / np.linalg.norm(pi0)
           for grid in (500, 1000)]
    assert err[0] / err[1] >= 12.0


def _scalar_identity_transport(q):
    """A = 0, B = R = 1, Q = q and Sigma0 = Sigma1 = 1 at eps = 0."""
    return SteeringProblem(make_system([[0.0]], [[1.0]], [[q]], [[1.0]]),
                           np.eye(1), np.eye(1), 0.0)


@settings(max_examples=30, derandomize=True, database=None, deadline=None)
@given(st.one_of(st.tuples(st.just(1.0), st.floats(0.1, np.sqrt(50.0))),
                 st.tuples(st.just(-1.0), st.floats(0.05, 0.95 * np.pi))),
       st.sampled_from([999, 1000]))
def test_scalar_pi0_is_the_closed_form_below_the_conjugate_point(signed_rate, grid_size):
    # the optimal path keeps x(1) = x0: x0 cosh(k(t - 1/2)) / cosh(k/2) for Q = k^2 and
    # x0 cos(w(t - 1/2)) / cos(w/2) for Q = -w^2, so Pi(0) = -x'(0)/x(0) is
    # k tanh(k/2) or -w tan(w/2); w stays below pi, where cos(w/2) vanishes
    sign, rate = signed_rate
    pi0 = solve(_scalar_identity_transport(sign * rate**2), grid_size).pi[0, 0, 0]
    closed = rate * np.tanh(rate / 2.0) if sign > 0 else -rate * np.tan(rate / 2.0)
    assert abs(pi0 - closed) <= 1e-9 * max(1.0, abs(closed))


@settings(max_examples=20, derandomize=True, database=None, deadline=None)
@given(st.floats(1.03 * np.pi, 1.97 * np.pi, exclude_min=True, exclude_max=True),
       st.sampled_from([999, 1000]))
def test_scalar_past_the_conjugate_point_raises_at_mid_horizon(omega, grid_size):
    # Q = -w^2 with pi < w < 2 pi: the Jacobi field sin(w t) vanishes at pi/w < 1, so
    # the cost is unbounded below; det X1 changes sign on the interval holding t = 1/2
    with pytest.raises(ConjugatePointError) as raised:
        solve(_scalar_identity_transport(-omega**2), grid_size)
    lo, hi = raised.value.interval
    assert lo <= 0.5 <= hi and hi - lo == pytest.approx(1.0 / grid_size)
