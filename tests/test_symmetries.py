"""Units, coordinates and time reversal never change an answer.

A change of units x~ = c x or u~ = c u is the same steering problem, so it
must solve and its Pi, H, Sigma and K must transform. A smooth time-varying
change of coordinates x~ = T(t) x and the reversal s = 1 - t of the horizon
turn a constant preset into a problem with time-varying A, B and Q whose
answer is known exactly from the preset's own solve, which makes them sharp
oracles for the time-varying code path. A per-coordinate change of units
x~ = D x transforms the answer too, within the scope that the condition-number
rule on Sigma0 and Sigma1 leaves it.
"""

import warnings

import numpy as np
import pytest

from covsteer import DefinitenessError, SteeringProblem, make_system, solve
from covsteer.cli import PRESETS, RunConfig, build_problem


def _preset(name, eps):
    return build_problem(RunConfig.from_dict(dict(PRESETS[name], epsilon=eps)))


def _coefficients(problem):
    sys = problem.sys
    return sys.A(0.0), sys.B(0.0), sys.Q(0.0), sys.R(0.0)  # constant on the presets


def _rel(x, ref):
    """max |x - ref| relative to the largest entry of ref."""
    return np.abs(x - ref).max() / np.abs(ref).max()


@pytest.mark.parametrize("kind", ["state", "input"])
@pytest.mark.parametrize("eps", [1.0, 0.0])
@pytest.mark.parametrize("name", ["inertial-q1", "inertial-qneg5", "inertial-q0",
                                  "inertial-q10"])
def test_a_change_of_units_solves_and_transforms_the_answer(name, eps, kind):
    # x~ = c x takes B -> c B, Q -> Q / c^2 and Sigma -> c^2 Sigma; u~ = c u takes
    # B -> B / c and R -> R / c^2. eps does not scale: the noise enters through B R^-1/2
    problem = _preset(name, eps)
    a, b, q, r = _coefficients(problem)
    ref = solve(problem, 2000)
    for c in 10.0 ** np.arange(-8, 9):
        if kind == "state":
            scaled = SteeringProblem(make_system(a, c * b, q / c**2, r), c**2 * problem.sigma0,
                                     c**2 * problem.sigma1, eps)
            weights = {"pi": c**-2, "h": c**-2, "sigma": c**2, "k": 1.0 / c}
        else:
            scaled = SteeringProblem(make_system(a, b / c, q, r / c**2), problem.sigma0,
                                     problem.sigma1, eps)
            weights = {"pi": 1.0, "h": 1.0, "sigma": 1.0, "k": c}
        sol = solve(scaled, 2000)
        for field, w in weights.items():
            assert _rel(getattr(sol, field) / w, getattr(ref, field)) <= 1e-12, (c, field)


@pytest.mark.parametrize("eps", [1.0, 0.0])
def test_per_coordinate_units_solve_until_sigma0_fails_the_condition_number_rule(eps):
    # x~ = D x with D = diag(1, d) takes A -> D A D^-1, B -> D B, Q -> D^-1 Q D^-1 and
    # Sigma -> D Sigma D. The SPD rule is relative to each matrix's own spectrum, so it
    # is not invariant under such a change: D Sigma0 D has condition number d^2 (or
    # 1/d^2), which reaches 1/PD_TOL at |log10 d| = 6, where it is refused. Within that
    # scope the answer transforms: D Pi~(0) D is Pi(0) (measured within 2.3e-14)
    problem = _preset("inertial-q1", eps)
    a, b, q, r = _coefficients(problem)
    ref = solve(problem, 2000).pi[0]

    def scaled(d):
        dd, d_inv = np.diag([1.0, d]), np.diag([1.0, 1.0 / d])
        return SteeringProblem(make_system(dd @ a @ d_inv, dd @ b, d_inv @ q @ d_inv, r),
                               dd @ problem.sigma0 @ dd, dd @ problem.sigma1 @ dd, eps), dd

    for d in 10.0 ** np.arange(-5, 6):
        scaled_problem, dd = scaled(d)
        assert _rel(dd @ solve(scaled_problem, 2000).pi[0] @ dd, ref) <= 1e-12, d
    for d in (1e-6, 1e6):
        with pytest.raises(DefinitenessError, match="sigma0 is not positive definite"):
            scaled(d)


@pytest.mark.parametrize("eps", [1.0, 0.0])
def test_a_covariance_or_input_weight_below_underflow_is_refused(eps):
    # the rule is scale-free down to the smallest normal float, past which Sigma0^-1
    # and R^-1/2 overflow
    problem = _preset("inertial-q1", eps)
    a, b, q, r = _coefficients(problem)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DefinitenessError, match="sigma0 is not positive definite"):
            solve(SteeringProblem(problem.sys, 1e-310 * np.eye(2), problem.sigma1, eps), 200)
        with pytest.raises(DefinitenessError, match=r"R\(t\) is not positive definite"):
            solve(SteeringProblem(make_system(a, b, q, [[1e-310]]), problem.sigma0,
                                  problem.sigma1, eps), 200)


def _t(t):
    return np.array([[1.0 + 0.5 * np.sin(3.0 * t), t], [0.3 * t * t, 1.0 + t]])


def _t_dot(t):
    return np.array([[1.5 * np.cos(3.0 * t), 1.0], [0.6 * t, 1.0]])


def _in_coordinates(problem):
    """The problem in x~ = T(t) x: A~ = (T' + T A) T^-1, B~ = T B, Q~ = T^-T Q T^-1."""
    a, b, q, r = _coefficients(problem)

    def a_of(t):
        return (_t_dot(t) + _t(t) @ a) @ np.linalg.inv(_t(t))

    def q_of(t):
        t_inv = np.linalg.inv(_t(t))
        return t_inv.T @ q @ t_inv

    t0, t1 = _t(0.0), _t(1.0)
    return SteeringProblem(make_system(a_of, lambda t: _t(t) @ b, q_of, r),
                           t0 @ problem.sigma0 @ t0.T, t1 @ problem.sigma1 @ t1.T,
                           problem.epsilon)


def _coordinate_miss(problem, ref, grid_size):
    """Miss of Pi~, H~, Sigma~ and K~ at grid_size against ref, the preset's grid-2000 law."""
    sol = solve(_in_coordinates(problem), grid_size)
    t = np.array([_t(s) for s in sol.grid])
    t_inv = np.linalg.inv(t)
    every = 2000 // grid_size
    want = {"pi": np.swapaxes(t_inv, 1, 2) @ ref.pi[::every] @ t_inv,
            "h": np.swapaxes(t_inv, 1, 2) @ ref.h[::every] @ t_inv,
            "sigma": t @ ref.sigma[::every] @ np.swapaxes(t, 1, 2),
            "k": ref.k[::every] @ t_inv}
    return {field: _rel(getattr(sol, field), w) for field, w in want.items()}


@pytest.mark.parametrize("eps", [1.0, 0.0])
@pytest.mark.parametrize("name", ["inertial-q1", "inertial-qneg5", "inertial-q0"])
def test_a_time_varying_change_of_coordinates_transforms_the_answer(name, eps):
    # the transformed problem has time-varying A, B and Q, and its exact answer is
    # T^-T Pi T^-1 of the constant preset's: the grid-2000 solve reads it to about 1e-12,
    # and the miss at grid 200 falls by 5^4 = 625 to grid 1000 as a fourth-order step's does
    problem = _preset(name, eps)
    ref = solve(problem, 2000)
    miss = {n: _coordinate_miss(problem, ref, n) for n in (200, 1000, 2000)}
    assert max(miss[2000].values()) <= 2e-12
    assert miss[200]["pi"] >= 300 * miss[1000]["pi"]


def _reversed(problem):
    """The problem on s = 1 - t: A~(s) = -A(1 - s), B, Q and R at 1 - s, Sigmas swapped."""
    sys = problem.sys
    return SteeringProblem(make_system(lambda s: -sys.A(1.0 - s), lambda s: sys.B(1.0 - s),
                                       lambda s: sys.Q(1.0 - s), lambda s: sys.R(1.0 - s)),
                           problem.sigma1, problem.sigma0, problem.epsilon)


@pytest.mark.parametrize("eps", [1.0, 0.0])
@pytest.mark.parametrize("name", ["inertial-q1", "inertial-qneg5", "inertial-q0"])
def test_time_reversal_swaps_pi_and_h(name, eps):
    # on the time-varying problems of the coordinate test, with a non-diagonal Sigma1
    problem = _in_coordinates(_preset(name, eps))
    forward, backward = solve(problem, 2000), solve(_reversed(problem), 2000)
    assert _rel(backward.pi, forward.h[::-1]) <= 1e-12
    assert _rel(backward.h, forward.pi[::-1]) <= 1e-12
    assert _rel(backward.sigma, forward.sigma[::-1]) <= 1e-12
