"""Property test: every drawn problem solves within tolerance or raises a typed error."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from covsteer import CovsteerError, SteeringProblem, make_system, solve


def _spd(rng, dim, log10_cond):
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    eigs = 10.0 ** rng.uniform(0.0, log10_cond, dim)
    if dim > 1:
        eigs[:2] = 1.0, 10.0**log10_cond  # the drawn condition number, exactly
    return (q * (eigs / np.sqrt(eigs.max()))) @ q.T


@st.composite
def problems(draw):
    n = draw(st.integers(1, 6))
    m = draw(st.integers(1, n))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    c = rng.standard_normal((n, n))
    sys = make_system(
        rng.standard_normal((n, n)),
        rng.standard_normal((n, m)),
        draw(st.floats(0.0, 5.0)) * (c @ c.T) / n,
        _spd(rng, m, 1.0),
    )
    sigma0 = _spd(rng, n, draw(st.floats(0.0, 4.0)))
    sigma1 = _spd(rng, n, draw(st.floats(0.0, 4.0)))
    return SteeringProblem(sys, sigma0, sigma1, draw(st.floats(0.0, 10.0)))


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
