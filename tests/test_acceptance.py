"""Acceptance gate: one or more tests per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines. The benchmark throughout is the planar inertial-particle
system (position/velocity double integrator, force input) steered from
covariance 2I to I/4 over the unit horizon.
"""

import time

import numpy as np
import pytest

from covsteer import (
    SteeringProblem,
    corollary_q_zero,
    coupling_roots,
    epsilon_sweep,
    initial_conditions,
    lemma1_residual,
    make_system,
    propagate,
    ratio_T,
    simulate,
    solve,
    sqrt_spd,
    spurious_root_escape,
    symplectic_residual,
)
from covsteer.bridge import _sqrt_spd_pair

SIGMA0 = 2.0 * np.eye(2)
SIGMA1 = 0.25 * np.eye(2)


def inertial_system(q_scale, r=None):
    return make_system([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], q_scale * np.eye(2), r)


def inertial_problem(q_scale, eps=1.0, r=None):
    return SteeringProblem(inertial_system(q_scale, r), SIGMA0, SIGMA1, eps)


def scalar_problem(eps=1.0):
    return SteeringProblem(make_system([[0.0]], [[1.0]]), [[1.0]], [[1.0]], eps)


@pytest.fixture(scope="module")
def benchmark_solutions():
    out = {}
    for q in (1.0, 10.0, -5.0):
        t0 = time.perf_counter()
        out[q] = (solve(inertial_problem(q), 2000), time.perf_counter() - t0)
    return out


def test_criterion_1_boundary_matching(benchmark_solutions):
    worst_res, worst_time = 0.0, 0.0
    for q, (sol, elapsed) in benchmark_solutions.items():
        assert sol.boundary_residuals[1] < 1e-6, f"Q={q}"
        assert elapsed < 5.0, f"Q={q} took {elapsed:.2f}s"
        worst_res = max(worst_res, sol.boundary_residuals[1])
        worst_time = max(worst_time, elapsed)
    print(f"\nPASS criterion 1: boundary matching, worst residual "
          f"{worst_res:.3e} < 1e-6, worst runtime {worst_time:.2f}s < 5s")


def test_criterion_2_coupled_boundary_identity(benchmark_solutions):
    target = np.linalg.inv(SIGMA1)
    worst = 0.0
    for q, (sol, _) in benchmark_solutions.items():
        res = np.linalg.norm(sol.pi[-1] + sol.h[-1] - target) / np.linalg.norm(target)
        assert res < 1e-6, f"Q={q}"
        worst = max(worst, res)
    print(f"\nPASS criterion 2: Pi(1)+H(1) = eps*Sigma1^-1, worst residual {worst:.3e} < 1e-6")


def _identity_rhs(x, y):
    x_h, x_ih = _sqrt_spd_pair(x)
    return x_ih @ sqrt_spd(0.25 * np.eye(len(x)) + x_h @ y @ x_h) @ x_ih


def test_criterion_3_matrix_identity():
    rng = np.random.default_rng(20260826)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 9))
        pair = []
        for _ in range(2):
            q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
            # eigenvalues log-symmetric about 1 so the condition number
            # (up to 1e4) is the only scale in play
            e = np.exp(rng.uniform(-0.5 * np.log(1e4), 0.5 * np.log(1e4), dim))
            if dim > 1:
                e /= np.sqrt(e.max() * e.min())
            pair.append((q * e) @ q.T)
        worst = max(worst, lemma1_residual(*pair))
    assert worst < 1e-10
    # scalar spot values for both sides of the identity
    v1 = _identity_rhs(np.eye(1), np.eye(1))[0, 0]
    assert abs(v1 - np.sqrt(5.0) / 2.0) < 1e-14
    v2 = _identity_rhs(np.array([[4.0]]), np.array([[1.0]]))[0, 0]
    assert abs(v2 - np.sqrt(17.0) / 8.0) < 1e-14
    assert lemma1_residual(np.eye(1), np.eye(1)) < 1e-14
    assert lemma1_residual(np.array([[4.0]]), np.array([[1.0]])) < 1e-14
    print(f"\nPASS criterion 3: matrix identity, max residual {worst:.3e} < 1e-10 "
          f"over 100 SPD pairs; scalar values sqrt(5)/2 and sqrt(17)/8 to 1e-14")


def test_criterion_4_transition_block_identities():
    presets = {
        "scalar": make_system([[0.0]], [[1.0]]),
        "q1": inertial_system(1.0),
        "q10": inertial_system(10.0),
        "qneg5": inertial_system(-5.0),
    }
    worst_sym, worst_det = 0.0, 0.0
    for name, sys in presets.items():
        times, phi, _ = propagate(sys, 1000)
        times, phi = times[100::100], phi[100::100]  # t = 0.1, 0.2, ..., 1
        worst_sym = max(worst_sym, symplectic_residual(phi))
        worst_det = max(worst_det, float(np.abs(np.linalg.det(phi) - 1.0).max()))
        if name == "qneg5":
            # the negativity/monotonicity statement needs Q >= 0: with a
            # strongly negative Q the 1-1 block loses invertibility inside
            # the horizon and T passes through infinity
            continue
        prev = None
        for t, mat in zip(times, phi):
            t_mat = ratio_T(mat)
            assert np.linalg.eigvalsh(t_mat).max() < 0, f"{name} at t={t}"
            if prev is not None:
                assert np.linalg.eigvalsh(t_mat - prev).max() <= 1e-10, f"{name} at t={t}"
            prev = t_mat
    assert worst_sym < 1e-9
    assert worst_det < 1e-9
    print(f"\nPASS criterion 4: symplectic residual {worst_sym:.3e} < 1e-9, "
          f"|det Phi - 1| {worst_det:.3e} < 1e-9, T(t,0) negative definite and monotone")


def test_criterion_5_spurious_root_escape():
    # scalar: X(t) = 1 - t(1/2 + Z) linear, root at ~0.382 on the plus branch
    sp = scalar_problem()
    times, phi, _ = propagate(sp.sys, 1000)
    nodes = (times[::5], phi[::5])  # t = 0, 0.005, ..., 1
    roots = coupling_roots(sp.sigma0, sp.sigma1, phi[-1], 1.0)
    plus = spurious_root_escape(sp, nodes, roots.z_plus)
    minus = spurious_root_escape(sp, nodes, roots.z_minus)
    assert plus.sign_change and not minus.sign_change
    flip = np.flatnonzero(plus.determinants[:-1] * plus.determinants[1:] < 0)[0]
    tau = 1.0 / (1.5 + np.sqrt(5.0) / 2.0)
    assert plus.times[flip] <= tau <= plus.times[flip + 1]

    ip = inertial_problem(1.0)
    times2, phi2, _ = propagate(ip.sys, 1000)
    nodes2 = (times2[::5], phi2[::5])
    roots2 = coupling_roots(ip.sigma0, ip.sigma1, phi2[-1], 1.0)
    assert spurious_root_escape(ip, nodes2, roots2.z_plus).sign_change
    assert not spurious_root_escape(ip, nodes2, roots2.z_minus).sign_change
    print(f"\nPASS criterion 5: plus-root determinant sign change at t in "
          f"[{plus.times[flip]:.4f}, {plus.times[flip + 1]:.4f}] (analytic {tau:.4f}); "
          f"minus root clean on both cases")


def test_criterion_6_gramian_route_equivalence():
    sp = scalar_problem()
    pi0_scalar, _ = corollary_q_zero(sp, 1000)
    exact = 1.5 - np.sqrt(5.0) / 2.0
    assert abs(pi0_scalar[0, 0] - exact) < 1e-12

    qp = inertial_problem(0.0)
    pi0_gram, _ = corollary_q_zero(qp, 2000)
    pi0_ham, _ = initial_conditions(qp, propagate(qp.sys, 2000)[1][-1])
    gap = float(np.abs(pi0_gram - pi0_ham).max())
    assert gap < 1e-8
    print(f"\nPASS criterion 6: Gramian vs Hamiltonian route gap {gap:.3e} < 1e-8; "
          f"scalar value {pi0_scalar[0, 0]:.12f} matches 3/2 - sqrt(5)/2 to 1e-12")


def test_criterion_7_zero_noise_limit():
    rows = epsilon_sweep(inertial_problem(1.0), [10.0, 1.0, 0.1, 0.01], 1000)
    gaps = [row.gap for row in rows]
    assert all(a >= b for a, b in zip(gaps, gaps[1:]))

    scalar_rows = epsilon_sweep(scalar_problem(), [1.0, 0.1, 0.01], 1000)
    for row in scalar_rows:
        closed_form = row.epsilon / 2.0 + 1.0 - np.sqrt(row.epsilon**2 / 4.0 + 1.0)
        assert abs(row.gap - closed_form) < 1e-9

    eq = scalar_problem(eps=0.0)
    sol = solve(eq, 500)
    assert abs(sol.pi[0, 0, 0]) < 1e-12
    result = simulate(eq, sol, 100, 200, seed=3)
    assert result.cost_estimate == 0.0
    print(f"\nPASS criterion 7: sweep gaps monotone {['%.4f' % g for g in gaps]}; "
          f"scalar gaps match the closed form to 1e-9; equal-marginal "
          f"zero-noise case has Pi(0)=0 and zero cost")


def test_criterion_8_state_penalty_shape(benchmark_solutions):
    mid = 1000  # t = 0.5 on the 2000-interval grid
    traces = {q: float(np.trace(sol.sigma[mid])) for q, (sol, _) in benchmark_solutions.items()}
    assert traces[10.0] < traces[1.0]
    sol_neg = benchmark_solutions[-5.0][0]
    first_half = np.trace(sol_neg.sigma[: mid], axis1=1, axis2=2)
    assert first_half.max() > np.trace(SIGMA0)
    print(f"\nPASS criterion 8: trace Sigma(0.5) {traces[10.0]:.4f} (Q=10I) < "
          f"{traces[1.0]:.4f} (Q=I); Q=-5I expands to {first_half.max():.4f} > 4 "
          f"before contracting")


def test_criterion_9_monte_carlo_consistency(benchmark_solutions):
    problem = inertial_problem(1.0)
    sol = benchmark_solutions[1.0][0]
    t0 = time.perf_counter()
    a = simulate(problem, sol, 20000, 1000, seed=20260826)
    b = simulate(problem, sol, 20000, 1000, seed=20260826)
    elapsed = time.perf_counter() - t0
    rel = np.linalg.norm(a.empirical_cov[-1] - SIGMA1) / np.linalg.norm(SIGMA1)
    assert rel < 0.05
    assert a.states.tobytes() == b.states.tobytes()
    assert a.costs.tobytes() == b.costs.tobytes()
    assert elapsed < 60.0
    print(f"\nPASS criterion 9: empirical terminal covariance residual {rel:.4f} < 0.05 "
          f"at 20000 paths; repeated seed byte-identical; both runs in {elapsed:.1f}s < 60s")


def _exact_scheme_moments(problem, sol, n_steps):
    """P_k = E x_k x_k' of the Euler-Maruyama scheme: P_{k+1} = F P F' + eps dt N N'.

    F_k = I + dt (A - B K) and N_k = B R^-1/2 at t_k, from P_0 = Sigma0, with K
    read at the solver nodes that the simulation grid hits.
    """
    sys, dt = problem.sys, 1.0 / n_steps
    stride = (len(sol.grid) - 1) // n_steps
    assert stride * n_steps == len(sol.grid) - 1
    moments = [np.asarray(problem.sigma0, dtype=float)]
    for k in range(n_steps):
        t = k * dt
        assert sol.grid[k * stride] == pytest.approx(t, abs=1e-15)
        f = np.eye(sys.dim_state) + dt * (sys.A(t) - sys.B(t) @ sol.k[k * stride])
        w, v = np.linalg.eigh(sys.R(t))
        noise = sys.B(t) @ v @ np.diag(w**-0.5) @ v.T
        moments.append(f @ moments[-1] @ f.T + problem.epsilon * dt * noise @ noise.T)
    return np.array(moments)


@pytest.mark.parametrize("q", [1.0, 10.0, -5.0])
def test_criterion_9_covariances_are_the_exact_scheme_moments_within_sampling_error(
    benchmark_solutions, q
):
    # the scheme is linear and Gaussian, so its moments are exact; what is left of
    # S - P is sampling error, with Var S_ij = (P_ij^2 + P_ii P_jj) / n_paths
    problem, sol = inertial_problem(q), benchmark_solutions[q][0]
    n_paths, n_steps = 20000, 1000
    result = simulate(problem, sol, n_paths, n_steps, seed=20260826)
    exact = _exact_scheme_moments(problem, sol, n_steps)
    p = exact[np.rint(result.grid * n_steps).astype(int)]
    diag = np.diagonal(p, axis1=1, axis2=2)
    sd = np.sqrt((p**2 + diag[:, :, None] * diag[:, None, :]) / n_paths)
    z = np.abs(result.empirical_cov - p) / sd
    assert len(result.grid) == 11 and z.max() <= 4.0
    print(f"\nPASS criterion 9 (Q={q:g}I): empirical covariances at {len(result.grid)} "
          f"checkpoints within max |z| = {z.max():.2f} <= 4 of the exact scheme moments")


def test_criterion_10_input_weight_reduction():
    direct = solve(inertial_problem(1.0, r=4.0 * np.eye(1)), 1000)
    scaled_sys = make_system([[0.0, 1.0], [0.0, 0.0]], [[0.0], [0.5]], np.eye(2))
    transformed = solve(SteeringProblem(scaled_sys, SIGMA0, SIGMA1, 1.0), 1000)
    gap = float(np.abs(direct.pi - transformed.pi).max())
    assert gap < 1e-8
    print(f"\nPASS criterion 10: R=4 solve matches the rescaled-channel solve, "
          f"Pi-trajectory gap {gap:.3e} < 1e-8")
