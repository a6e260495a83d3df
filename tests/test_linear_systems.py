import numpy as np
import pytest

import covsteer.systems
from covsteer import (
    DefinitenessError,
    DomainError,
    SteeringProblem,
    check_controllability,
    make_system,
    piecewise_constant_coefficient,
    reachability_gramian,
    sampled_coefficient,
    solve,
    state_transition,
)
from covsteer.integrate import simpson_uniform


def double_integrator(q=None):
    return make_system([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], q)


def test_transition_zero_drift_is_identity():
    sys = make_system(np.zeros((3, 3)), np.eye(3))
    for t, s in [(0.3, 0.1), (1.0, 0.0), (0.5, 0.5)]:
        np.testing.assert_allclose(state_transition(sys, t, s), np.eye(3), atol=1e-12)


def test_transition_scalar_exponential():
    sys = make_system([[1.0]], [[1.0]])
    psi = state_transition(sys, 1.0, 0.0)
    np.testing.assert_allclose(psi, [[np.e]], rtol=1e-12)


def test_transition_double_integrator_exact():
    # nilpotent drift: the exponential series terminates, Psi(1,0) = I + A
    psi = state_transition(double_integrator(), 1.0, 0.0)
    np.testing.assert_allclose(psi, [[1.0, 1.0], [0.0, 1.0]], atol=1e-13)


def test_transition_time_order_and_range_errors():
    sys = double_integrator()
    with pytest.raises(DomainError):
        state_transition(sys, 0.2, 0.5)
    with pytest.raises(DomainError):
        state_transition(sys, 1.5, 0.0)


def test_transition_cocycle():
    def a(t):
        return np.array([[0.0, 1.0], [-1.0, -0.5 - 0.3 * t]])

    sys = make_system(a, [[0.0], [1.0]])
    full = state_transition(sys, 1.0, 0.0)
    composed = state_transition(sys, 1.0, 0.4) @ state_transition(sys, 0.4, 0.0)
    np.testing.assert_allclose(full, composed, atol=1e-10)


def test_gramian_constant_scalar():
    sys = make_system([[0.0]], [[1.0]])
    np.testing.assert_allclose(reachability_gramian(sys, 1.0, 0.0), [[1.0]], rtol=1e-10)


def test_gramian_double_integrator_closed_form():
    # Psi(1,tau) B = [1-tau, 1]', polynomial integrals give the 1/3, 1/2, 1 pattern
    gram = reachability_gramian(double_integrator(), 1.0, 0.0)
    np.testing.assert_allclose(gram, [[1 / 3, 1 / 2], [1 / 2, 1.0]], atol=1e-10)


def test_gramian_zero_channel_is_zero():
    sys = make_system([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 1)))
    np.testing.assert_allclose(reachability_gramian(sys, 1.0, 0.0), np.zeros((2, 2)), atol=1e-14)


def test_gramian_requires_s_before_t():
    with pytest.raises(DomainError):
        reachability_gramian(double_integrator(), 0.5, 0.5)


def test_gramian_additivity():
    def a(t):
        return np.array([[0.1 * t, 1.0], [-0.4, 0.0]])

    sys = make_system(a, [[0.2], [1.0]])
    s, r, t = 0.0, 0.35, 1.0
    direct = reachability_gramian(sys, t, s)
    psi = state_transition(sys, t, r)
    pieced = psi @ reachability_gramian(sys, r, s) @ psi.T + reachability_gramian(sys, t, r)
    np.testing.assert_allclose(direct, pieced, atol=1e-9)


def test_gramian_symmetric_psd():
    gram = reachability_gramian(double_integrator(), 0.7, 0.2)
    np.testing.assert_allclose(gram, gram.T, atol=0)
    assert np.linalg.eigvalsh(gram).min() > 0


def test_controllability_pass_double_integrator():
    report = check_controllability(double_integrator(), [(0.0, 1.0)])
    assert report.passed
    np.testing.assert_allclose(report.entries[0].min_eigenvalue, 0.0657, atol=5e-4)


def test_controllability_fail_zero_channel():
    sys = make_system([[0.0, 1.0], [0.0, 0.0]], np.zeros((2, 1)))
    report = check_controllability(sys, [(0.0, 1.0)])
    assert not report.passed
    assert report.entries[0].min_eigenvalue == pytest.approx(0.0, abs=1e-14)
    assert "FAIL" in str(report)


def test_controllability_subintervals_integrator_chain():
    sys = make_system(np.zeros((2, 2)), np.eye(2))
    report = check_controllability(sys, [(0.0, 0.1), (0.45, 0.55), (0.9, 1.0)])
    assert report.passed
    for entry in report.entries:
        assert entry.min_eigenvalue == pytest.approx(0.1, rel=1e-9)


def test_controllability_empty_grid_error():
    with pytest.raises(DomainError):
        check_controllability(double_integrator(), [])


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
    np.testing.assert_allclose(state_transition(sys, 1.0, 0.0), [[np.exp(0.5)]], rtol=1e-7)


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

    def counted(f, y0, grid):
        steps.append(len(grid) - 1)
        return integrate(f, y0, grid)

    monkeypatch.setattr(covsteer.systems, "rk4_grid", counted)
    problem = SteeringProblem(double_integrator(np.eye(2)), 2.0 * np.eye(2), 0.25 * np.eye(2))
    solve(problem, grid_size=201)
    assert steps == [201]
