import numpy as np
import pytest
from scipy.linalg import expm

import covsteer.systems
from covsteer import (
    ControllabilityError,
    DefinitenessError,
    DomainError,
    SingularMatrixError,
    SteeringProblem,
    TimeVaryingLinearSystem,
    make_system,
    piecewise_constant_coefficient,
    reachability_gramian,
    sampled_coefficient,
    solve,
    state_transition,
)
from covsteer.integrate import simpson_uniform, stage_times
from covsteer.systems import (
    constant_coefficient,
    input_quad,
    noise_channel,
    require_controllable,
    solve_r,
)


def double_integrator(q=None):
    return make_system([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], q)


def damped_drift(t):
    # a time-varying drift whose values at different times do not commute
    return np.array([[0.0, 1.0], [-1.0, -0.5 - 0.3 * t]])


def test_transition_zero_drift_is_identity():
    sys = make_system(np.zeros((3, 3)), np.eye(3))
    for grid_size in (1, 7, 1000):
        np.testing.assert_allclose(state_transition(sys, grid_size), np.eye(3), atol=1e-12)


def test_transition_scalar_exponential():
    sys = make_system([[1.0]], [[1.0]])
    psi = state_transition(sys, 1000)
    np.testing.assert_allclose(psi, [[np.e]], rtol=1e-12)


def test_transition_double_integrator_exact():
    # nilpotent drift: the exponential series terminates, Psi(1,0) = I + A
    psi = state_transition(double_integrator(), 1000)
    np.testing.assert_allclose(psi, [[1.0, 1.0], [0.0, 1.0]], atol=1e-13)


def test_transition_inverse_is_the_transition_of_the_reversed_drift():
    # Z(t) = Psi(1 - t, 1) solves Z' = -A(1 - t) Z from I, so Z(1) = Psi(0, 1) = Psi(1, 0)^-1
    b = [[0.0], [1.0]]
    forward = state_transition(make_system(damped_drift, b), 1000)
    backward = state_transition(make_system(lambda t: -damped_drift(1.0 - t), b), 1000)
    np.testing.assert_allclose(backward @ forward, np.eye(2), atol=1e-11)


def test_transition_determinant_is_liouvilles_formula():
    # det Psi(1, 0) = exp of the integral of trace A over [0, 1] = exp(-0.5 - 0.15)
    psi = state_transition(make_system(damped_drift, [[0.0], [1.0]]), 1000)
    assert np.linalg.det(psi) == pytest.approx(np.exp(-0.65), rel=1e-12)


def test_a_change_of_state_coordinates_carries_the_transition_and_the_gramian():
    # x -> T x maps A to T A T^-1 and B to T B, so Psi to T Psi T^-1 and the Gramian to T G T'
    t_mat = np.array([[1.0, 2.0], [0.0, 3.0]])
    t_inv = np.linalg.inv(t_mat)
    b = np.array([[0.2], [1.0]])
    sys = make_system(damped_drift, b, None, [[0.5]])
    moved = make_system(lambda t: t_mat @ damped_drift(t) @ t_inv, t_mat @ b, None, [[0.5]])
    np.testing.assert_allclose(state_transition(moved, 1000),
                               t_mat @ state_transition(sys, 1000) @ t_inv, atol=1e-12)
    np.testing.assert_allclose(reachability_gramian(moved, 1000),
                               t_mat @ reachability_gramian(sys, 1000) @ t_mat.T, atol=1e-12)


@pytest.mark.parametrize("run", [state_transition, reachability_gramian],
                         ids=["transition", "gramian"])
def test_the_passes_converge_at_fourth_order_in_the_grid_size(run):
    # RK4 and Simpson are fourth order: doubling the grid size divides the error by about 16
    sys = make_system(damped_drift, [[0.2], [1.0]])
    ref = run(sys, 2048)
    coarse, fine = (np.abs(run(sys, n) - ref).max() for n in (16, 32))
    assert 14.0 < coarse / fine < 18.0


def test_gramian_constant_scalar():
    sys = make_system([[0.0]], [[1.0]])
    np.testing.assert_allclose(reachability_gramian(sys, 1000), [[1.0]], rtol=1e-10)


def test_gramian_double_integrator_closed_form():
    # Psi(1,tau) B = [1-tau, 1]', polynomial integrals give the 1/3, 1/2, 1 pattern
    gram = reachability_gramian(double_integrator(), 1000)
    np.testing.assert_allclose(gram, [[1 / 3, 1 / 2], [1 / 2, 1.0]], atol=1e-10)


def test_gramian_zero_channel_is_zero():
    sys = make_system([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 1)))
    np.testing.assert_allclose(reachability_gramian(sys, 1000), np.zeros((2, 2)), atol=1e-14)


def test_gramian_symmetric_psd():
    def a(t):
        return np.array([[0.1 * t, 1.0], [-0.4, 0.0]])

    gram = reachability_gramian(make_system(a, [[0.2], [1.0]]), 1000)
    np.testing.assert_allclose(gram, gram.T, atol=0)
    assert np.linalg.eigvalsh(gram).min() > 0


def test_gramian_of_a_scalar_drift_closed_form():
    # Psi(1, tau) = e^(a (1 - tau)), so G = b^2 / r * (e^(2a) - 1) / (2a)
    a, b, r = -0.7, 2.0, 3.0
    gram = reachability_gramian(make_system([[a]], [[b]], None, [[r]]), 1000)
    np.testing.assert_allclose(gram, [[b**2 / r * np.expm1(2 * a) / (2 * a)]], rtol=1e-10)


def test_gramian_of_a_constant_drift_solves_its_lyapunov_equation():
    # d/dtau [e^(A(1-tau)) W e^(A'(1-tau))] = -(A X + X A') with W = B R^-1 B';
    # integrated over (0, 1): A G + G A' = e^A W e^A' - W
    a = np.array([[0.0, 1.0], [-2.0, -0.3]])
    b, r = np.array([[0.0], [1.0]]), np.array([[0.5]])
    gram = reachability_gramian(make_system(a, b, None, r), 1000)
    w, psi = b @ np.linalg.inv(r) @ b.T, expm(a)
    np.testing.assert_allclose(a @ gram + gram @ a.T, psi @ w @ psi.T - w, atol=1e-10)


def test_controllability_pass_double_integrator():
    sys = double_integrator()
    lam = np.linalg.eigvalsh(reachability_gramian(sys, 1000)).min()
    np.testing.assert_allclose(lam, 0.0657, atol=5e-4)
    require_controllable(sys, 1000)  # lam is above CONTROLLABILITY_TOL


def test_controllability_fail_zero_channel():
    sys = make_system([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 1)))
    with pytest.raises(ControllabilityError) as err:
        require_controllable(sys, 1000)
    assert str(err.value) == "FAIL gramian on (0, 1): min eig 0.000000e+00"


def test_controllability_integrator_chain():
    # Psi = I and B = I, so the Gramian over (0, 1) is I
    sys = make_system(np.zeros((2, 2)), np.eye(2))
    lam = np.linalg.eigvalsh(reachability_gramian(sys, 1000)).min()
    assert lam == pytest.approx(1.0, rel=1e-9)
    require_controllable(sys, 1000)


def test_controllability_fails_on_a_nan_gramian():
    # B is NaN strictly between make_system's samples t = 0 and 0.1, so only the pass sees it
    def b(t):
        return np.array([[np.nan if 0.0 < t < 0.1 else 0.0], [1.0]])

    sys = make_system(np.zeros((2, 2)), b)
    with pytest.raises(ControllabilityError) as err:
        require_controllable(sys, 1000)
    assert str(err.value) == "FAIL gramian on (0, 1): min eig nan"


def test_r_must_be_positive_definite():
    with pytest.raises(DefinitenessError) as err:
        make_system([[0.0]], [[1.0]], R=[[-1.0]])
    assert err.value.min_eigenvalue is not None


def test_q_is_symmetrized_on_ingestion():
    sys = make_system(np.zeros((2, 2)), np.eye(2), Q=[[1.0, 2.0], [0.0, 1.0]])
    q = sys.Q(0.5)
    np.testing.assert_allclose(q, q.T, atol=0)
    np.testing.assert_allclose(q, [[1.0, 1.0], [1.0, 1.0]])


def test_piecewise_constant_coefficient():
    a = piecewise_constant_coefficient([0.0, 0.5, 1.0], [np.zeros((1, 1)), np.ones((1, 1))])
    assert a(0.25)[0, 0] == 0.0
    assert a(0.75)[0, 0] == 1.0
    with pytest.raises(DomainError):
        a(1.5)


def test_piecewise_coefficient_is_right_continuous_at_each_break():
    breaks = [0.0, 0.2, 0.5, 0.9, 1.0]
    a = piecewise_constant_coefficient(breaks, np.arange(4.0).reshape(4, 1, 1))
    for i, brk in enumerate(breaks):
        assert a(brk)[0, 0] == min(i, 3)
        assert a(np.nextafter(brk, np.inf))[0, 0] == min(i, 3)
        assert a(np.nextafter(brk, -np.inf))[0, 0] == max(i - 1, 0)
    for t in (-1e-11, 1.0 + 1e-11):
        with pytest.raises(DomainError):
            a(t)
        with pytest.raises(DomainError):
            a(np.array([0.5, t, 0.7]))
    _assert_array_call_stacks_scalar_calls(a, breaks)


def test_sampled_coefficient_at_and_around_each_knot():
    knots = np.array([0.0, 0.2, 0.5, 0.9, 1.0])
    vals = np.array([[[1.0, -2.0]], [[3.0, 0.5]], [[-1.0, 4.0]], [[2.0, 2.0]], [[0.0, 1.0]]])
    a = sampled_coefficient(knots, vals)
    for i, knot in enumerate(knots):
        np.testing.assert_array_equal(a(knot), vals[i])
        for t in (np.nextafter(knot, -np.inf), np.nextafter(knot, np.inf)):
            expect = [np.interp(t, knots, vals[:, 0, j]) for j in range(2)]
            np.testing.assert_allclose(a(t)[0], expect, rtol=1e-15, atol=1e-15)
    for t in (-1e-11, 1.0 + 1e-11):
        with pytest.raises(DomainError):
            a(t)
        with pytest.raises(DomainError):
            a(np.array([0.5, t, 0.7]))
    _assert_array_call_stacks_scalar_calls(a, knots)


def _assert_array_call_stacks_scalar_calls(coef, points):
    """coef at an array of times equals its scalar calls stacked, bit for bit, at,
    just below and just above each point, alone, through make_system and through a
    scalar-only lambda that make_system calls once per time."""
    ts = np.concatenate([points, np.nextafter(points, -np.inf), np.nextafter(points, np.inf)])
    expect = np.stack([coef(t) for t in ts])
    sys = make_system(np.zeros((1, 1)), coef)
    scalar_only = make_system(np.zeros((1, 1)), lambda t: coef(float(t)))
    for f in (coef, sys.B, scalar_only.B):
        np.testing.assert_array_equal(f(ts), expect)


def test_sampled_coefficient_interpolates():
    a = sampled_coefficient([0.0, 1.0], [np.zeros((1, 1)), 2.0 * np.ones((1, 1))])
    assert a(0.5)[0, 0] == pytest.approx(1.0)
    with pytest.raises(DomainError):
        a(-0.1)


def test_sampled_system_transition_matches_closed_form():
    # linear-in-time scalar drift a(t) = t: Psi(1,0) = exp(1/2)
    ts = np.linspace(0.0, 1.0, 201)
    a = sampled_coefficient(ts, [[[t]] for t in ts])
    sys = make_system(a, [[1.0]])
    np.testing.assert_allclose(state_transition(sys, 1000), [[np.exp(0.5)]], rtol=1e-7)


def test_non_finite_coefficients_rejected():
    with pytest.raises(DomainError):
        make_system([[np.nan]], [[1.0]])
    inf_at_1 = lambda t: np.array([[np.inf if t == 1.0 else 0.0]])  # noqa: E731
    for args in (([[0.0]], [[1.0]], inf_at_1), (inf_at_1, [[1.0]]), ([[0.0]], inf_at_1)):
        with pytest.raises(DomainError):  # callable, non-finite only at t = 1
            make_system(*args)
    with pytest.raises(DomainError):
        sampled_coefficient([0.0, 0.5, 1.0], [[[0.0]], [[np.nan]], [[0.0]]])
    with pytest.raises(DomainError):
        piecewise_constant_coefficient([0.0, 0.5, 1.0], [[[np.inf]], [[0.0]]])


@pytest.mark.parametrize("n", [3, 5, 7])
def test_simpson_odd_interval_counts_exact_on_a_cubic(n):
    # Simpson and the 3/8 rule both integrate cubics exactly
    x = np.linspace(0.5, 2.0, n + 1)
    f = 2.0 * x**3 - x**2 + 3.0 * x - 1.0
    exact = (0.5 * x**4 - x**3 / 3.0 + 1.5 * x**2 - x)[[0, -1]] @ [-1.0, 1.0]
    assert simpson_uniform(f, 1.5 / n) == pytest.approx(exact, rel=1e-14)


def test_simpson_single_interval_is_trapezoid():
    assert simpson_uniform(np.array([1.0, 3.0]), 0.5) == 1.0
    with pytest.raises(DomainError):
        simpson_uniform(np.array([1.0]), 0.5)


def test_gramian_runs_on_the_odd_solve_grid(monkeypatch):
    steps = []
    integrate = covsteer.systems.rk4_grid

    def counted(e, y0):
        steps.append(len(e))
        return integrate(e, y0)

    monkeypatch.setattr(covsteer.systems, "rk4_grid", counted)
    problem = SteeringProblem(double_integrator(np.eye(2)), 2.0 * np.eye(2), 0.25 * np.eye(2))
    solve(problem, grid_size=201)
    assert steps == [201]


# ---------------------------------------------------------------------------
# R^-1 rhs: a constant R is factored once

GENERAL_R = [[2.0, 0.6], [0.6, 1.0]]
TWO_INPUTS = [[0.5, 0.0], [0.3, 1.0]]
CONSTANT_R_CASES = {  # B, R, whether the per-node solve is matched byte for byte
    "identity": (TWO_INPUTS, np.eye(2), True),
    "four": ([[0.0], [1.0]], [[4.0]], True),
    "general": (TWO_INPUTS, GENERAL_R, False),
}


def _matches_per_node(x, ref, exact):
    if exact:
        return x.tobytes() == ref.tobytes()
    return np.abs(x - ref).max() <= 1e-15 * np.abs(ref).max()


@pytest.mark.parametrize("name", sorted(CONSTANT_R_CASES))
def test_a_constant_r_gives_the_per_node_solve(name):
    b, r, exact = CONSTANT_R_CASES[name]
    sys = make_system([[0.0, 1.0], [0.0, 0.0]], b, np.eye(2), r)
    r = np.array(r)
    grid = np.linspace(0.0, 1.0, 301)
    ts = stage_times(grid)
    quad = np.array([bk @ np.linalg.solve(r, bk.T) for bk in sys.B(ts)])
    assert _matches_per_node(input_quad(sys, ts), quad, exact)

    sol = solve(SteeringProblem(sys, 2.0 * np.eye(2), 0.25 * np.eye(2)), 300)
    gains = np.array([np.linalg.solve(r, bk.T @ pk) for bk, pk in zip(sys.B(grid), sol.pi)])
    assert _matches_per_node(sol.k, gains, exact)


def test_only_a_stack_of_one_repeated_matrix_is_factored_once(monkeypatch):
    ts = np.linspace(0.0, 1.0, 9)
    rhs = np.random.default_rng(5).standard_normal((9, 2, 3))
    repeated = constant_coefficient(GENERAL_R)(ts)  # zero stride along time
    stacked = np.ascontiguousarray(repeated)
    calls = []

    def spy(name):
        original = getattr(np.linalg, name)

        def recorded(a, *args):
            calls.append((name, np.shape(a)))
            return original(a, *args)

        monkeypatch.setattr(np.linalg, name, recorded)

    spy("inv")
    spy("solve")
    once = solve_r(repeated, rhs, ts)
    assert calls == [("inv", (2, 2))]
    calls.clear()
    batched = solve_r(stacked, rhs, ts)
    assert calls == [("solve", (9, 2, 2))]
    assert np.abs(once - batched).max() <= 1e-15 * np.abs(batched).max()

    spy("eigh")  # so is B R^-1/2's root of R, and it keeps the bytes of a per-node root
    b = np.swapaxes(rhs, -1, -2)
    calls.clear()
    once = noise_channel(b, repeated)
    assert calls == [("eigh", (1, 2, 2))]
    calls.clear()
    batched = noise_channel(b, stacked)
    assert calls == [("eigh", (9, 2, 2))]
    assert once.tobytes() == batched.tobytes()


@pytest.mark.parametrize("r_map, when", [
    (constant_coefficient([[0.0]]), "0.0"),
    (lambda t: (np.asarray(t) - 0.5)[..., None, None], "0.5"),
], ids=["constant", "callable"])
def test_a_singular_r_raises_naming_its_time(r_map, when):
    # built without make_system, whose samples of R would reject it
    sys = TimeVaryingLinearSystem(1, 1, constant_coefficient([[0.0]]),
                                  constant_coefficient([[1.0]]),
                                  constant_coefficient([[0.0]]), r_map)
    with pytest.raises(SingularMatrixError, match=rf"R\({when}\) is singular"):
        input_quad(sys, np.linspace(0.0, 1.0, 5))


def test_a_system_is_built_with_its_q_and_r():
    # without them it used to fail only later, at the first sys.Q(t)
    one = constant_coefficient([[1.0]])
    with pytest.raises(TypeError, match="'Q' and 'R'"):
        TimeVaryingLinearSystem(1, 1, one, one)


def test_the_controllability_gate_does_not_depend_on_the_units_of_b_and_r():
    # B -> 1e-5 B and R -> 1e-10 R leave B R^-1 B' and the law unchanged; the Gramian
    # of B alone would fall to 6.6e-12, below CONTROLLABILITY_TOL
    sigma0, sigma1 = 2.0 * np.eye(2), 0.25 * np.eye(2)
    b = np.array([[0.0], [1.0]])
    pi0 = {}
    for scale in (1.0, 1e-5):
        sys = make_system([[0.0, 1.0], [0.0, 0.0]], scale * b, np.eye(2), [[scale**2]])
        require_controllable(sys, 2000)
        pi0[scale] = solve(SteeringProblem(sys, sigma0, sigma1), 2000).pi[0]
    assert np.abs(pi0[1e-5] - pi0[1.0]).max() <= 1e-12 * np.abs(pi0[1.0]).max()


def test_a_constant_coefficient_q_or_r_keeps_its_zero_stride():
    a, b, q, r = [[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], [[2.0, 0.5], [0.5, 1.0]], [[4.0]]
    raw = make_system(a, b, q, r)
    marked = make_system(a, b, constant_coefficient(q), constant_coefficient(r))
    ts = np.linspace(0.0, 1.0, 5)
    for name in "QR":
        got, want = getattr(marked, name)(ts), getattr(raw, name)(ts)
        assert got.strides[0] == 0 and got.tobytes() == want.tobytes(), name
    sols = [solve(SteeringProblem(sys, 2.0 * np.eye(2), 0.25 * np.eye(2)), 500)
            for sys in (raw, marked)]
    raw_bytes, marked_bytes = [[arr.tobytes() for arr in (s.pi, s.h, s.sigma, s.k)]
                               for s in sols]
    assert marked_bytes == raw_bytes
