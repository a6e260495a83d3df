"""Closed-loop Euler-Maruyama ensemble simulation and diagnostics.

Validates a solved bridge by integrating the controlled SDE

    dx = (A(t) - B(t) K(t)) x dt + sqrt(eps) B(t) R(t)^-1/2 dw,   x(0) ~ N(0, Sigma0),

which is the noise model of :mod:`covsteer.bridge`, over many paths,
estimating empirical covariances at checkpoints and the expected quadratic
cost. The noise enters through :func:`covsteer.bridge.noise_channel`.
Randomness is counter-based: path i draws from a Philox stream keyed by
(seed, i), so a path's states and cost depend on (seed, i, n_steps) only,
not on n_paths or on the block of paths it is simulated in.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bridge import BridgeSolution, SteeringProblem, noise_channel, sqrt_spd
from .errors import DomainError, UnsupportedDimensionError
from .integrate import grid_indices

_PERTURBATION_STREAM = 0xC0575EE2  # fixed substream key for gain perturbations
_BLOCK_PATHS = 4096  # paths simulated together; bounds the noise buffer's memory


@dataclass(frozen=True)
class SimulationResult:
    """Ensemble summary; states are thinned to the checkpoint grid."""

    n_paths: int
    grid: np.ndarray
    states: np.ndarray  # (n_paths, len(grid), n)
    empirical_cov: np.ndarray  # (len(grid), n, n)
    costs: np.ndarray  # (n_paths,)
    cost_estimate: float
    cost_stderr: float
    seed: int


def _interp_matrices(src_t: np.ndarray, src_m: np.ndarray, dst_t: np.ndarray) -> np.ndarray:
    """Entrywise linear interpolation of a matrix trajectory onto dst_t."""
    flat = src_m.reshape(len(src_t), -1)
    out = np.empty((len(dst_t), flat.shape[1]))
    for j in range(flat.shape[1]):
        out[:, j] = np.interp(dst_t, src_t, flat[:, j])
    return out.reshape((len(dst_t),) + src_m.shape[1:])


def _simulate_gain(
    problem: SteeringProblem,
    gain_t: np.ndarray,
    gain_seq: np.ndarray,
    n_paths: int,
    n_steps: int,
    seed: int,
    checkpoints,
) -> SimulationResult:
    """Core ensemble run under an explicit gain trajectory."""
    if n_paths < 2:
        raise DomainError("n_paths must be at least 2")
    if n_steps < 1:
        raise DomainError("n_steps must be positive")
    sys = problem.sys
    n, m = sys.dim_state, sys.dim_input
    eps = problem.epsilon
    dt = 1.0 / n_steps
    t_grid = np.linspace(0.0, 1.0, n_steps + 1)

    a_seq = np.stack([sys.A(t) for t in t_grid])
    b_seq = np.stack([sys.B(t) for t in t_grid])
    q_seq = np.stack([sys.Q(t) for t in t_grid])
    r_seq = np.stack([sys.R(t) for t in t_grid])
    k_seq = _interp_matrices(gain_t, gain_seq, t_grid)
    closed_seq = a_seq - np.matmul(b_seq, k_seq)
    noise_seq = np.stack([noise_channel(sys, t) for t in t_grid])

    cp_idx = grid_indices(checkpoints, t_grid)
    cp_lookup = {int(k): i for i, k in enumerate(cp_idx)}
    init_root = sqrt_spd(problem.sigma0)
    noise_scale = np.sqrt(eps * dt)

    states = np.empty((n_paths, len(cp_idx), n))
    costs = np.empty(n_paths)

    def run_block(lo: int, hi: int) -> None:
        # a function, so that one block's noise is freed before the next is drawn
        count = hi - lo
        x0 = np.empty((count, n))
        noise = np.empty((count, n_steps, m))
        for j, path in enumerate(range(lo, hi)):
            gen = np.random.Generator(np.random.Philox(key=[seed, path]))
            x0[j] = gen.standard_normal(n)
            noise[j] = gen.standard_normal((n_steps, m))
        x = x0 @ init_root  # init_root is symmetric, so this is sqrt(Sigma0) x0
        cost = np.zeros(count)
        for k in range(n_steps + 1):
            u = -(x @ k_seq[k].T)
            integrand = np.einsum("pi,ij,pj->p", u, r_seq[k], u)
            integrand += np.einsum("pi,ij,pj->p", x, q_seq[k], x)
            weight = 0.5 if k in (0, n_steps) else 1.0
            cost += weight * dt * integrand
            ci = cp_lookup.get(k)
            if ci is not None:
                states[lo:hi, ci] = x
            if k < n_steps:
                x = x + dt * (x @ closed_seq[k].T)
                if eps > 0:
                    x = x + noise_scale * (noise[:, k] @ noise_seq[k].T)
        costs[lo:hi] = cost

    for lo in range(0, n_paths, _BLOCK_PATHS):
        run_block(lo, min(lo + _BLOCK_PATHS, n_paths))

    emp = np.einsum("pci,pcj->cij", states, states) / n_paths
    emp = 0.5 * (emp + np.transpose(emp, (0, 2, 1)))
    return SimulationResult(
        n_paths=n_paths,
        grid=t_grid[cp_idx],
        states=states,
        empirical_cov=emp,
        costs=costs,
        cost_estimate=float(costs.mean()),
        cost_stderr=float(costs.std(ddof=1) / np.sqrt(n_paths)),
        seed=int(seed),
    )


def simulate(
    problem: SteeringProblem,
    solution: BridgeSolution,
    n_paths: int,
    n_steps: int,
    seed: int,
    checkpoints=None,
) -> SimulationResult:
    """Simulate the closed loop under the solved feedback gain.

    Gains between solver grid points are linearly interpolated; the running
    cost u'Ru + x'Qx is accumulated per path by the trapezoidal rule. The
    result is deterministic in (seed, n_paths, n_steps, checkpoints).
    """
    if checkpoints is None:
        checkpoints = np.linspace(0.0, 1.0, 11)
    return _simulate_gain(
        problem, solution.grid, solution.k, n_paths, n_steps, seed, checkpoints
    )


def empirical_covariance(result: SimulationResult, t: float) -> np.ndarray:
    """Zero-mean second moment (1/N) sum x x' at a recorded checkpoint."""
    hits = np.flatnonzero(np.isclose(result.grid, t, atol=1e-12))
    if len(hits) == 0:
        raise DomainError(f"time {t} was not recorded as a checkpoint")
    return result.empirical_cov[hits[0]]


def tolerance_tube(
    solution: BridgeSolution,
    level: float = 3.0,
    resolution: int = 64,
) -> np.ndarray:
    """Boundary points of {z : z' Sigma(t)^-1 z = level^2} per grid time (n = 2).

    Returns an array (len(grid), resolution, 2): the unit circle scaled by
    level and mapped through the SPD square root of Sigma(t).
    """
    if solution.sigma.shape[1] != 2:
        raise UnsupportedDimensionError("tolerance tube is defined for 2-d states only")
    if level <= 0 or resolution < 3:
        raise DomainError("level must be positive and resolution at least 3")
    theta = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    circle = level * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    out = np.empty((len(solution.grid), resolution, 2))
    for i in range(len(solution.grid)):
        root = sqrt_spd(solution.sigma[i])
        out[i] = circle @ root  # root is symmetric
    return out


@dataclass(frozen=True)
class CostGapReport:
    """Paired-seed cost comparison between the optimal and a perturbed gain.

    The perturbed run does not re-enforce the terminal covariance, so the gap
    must be read together with terminal_cov_residual_perturbed: the optimal
    law both meets the boundary and achieves the stated cost.
    """

    gap: float
    gap_stderr: float
    cost_optimal: float
    cost_perturbed: float
    terminal_cov_residual_optimal: float
    terminal_cov_residual_perturbed: float


def cost_gap(
    problem: SteeringProblem,
    solution: BridgeSolution,
    perturbation_scale: float,
    n_paths: int,
    n_steps: int,
    seed: int,
) -> CostGapReport:
    """Estimate perturbed-minus-optimal expected cost with common random numbers.

    The perturbation is a fixed unit-Frobenius random gain offset drawn from
    a dedicated substream of seed, scaled by perturbation_scale and added to
    K(t) at every grid time.
    """
    sys = problem.sys
    checkpoints = [0.0, 1.0]
    base = _simulate_gain(
        problem, solution.grid, solution.k, n_paths, n_steps, seed, checkpoints
    )
    gen = np.random.Generator(np.random.Philox(key=[seed, _PERTURBATION_STREAM]))
    delta = gen.standard_normal((sys.dim_input, sys.dim_state))
    delta /= np.linalg.norm(delta)
    k_pert = solution.k + perturbation_scale * delta
    pert = _simulate_gain(
        problem, solution.grid, k_pert, n_paths, n_steps, seed, checkpoints
    )
    diffs = pert.costs - base.costs
    s1_norm = np.linalg.norm(problem.sigma1)
    return CostGapReport(
        gap=float(diffs.mean()),
        gap_stderr=float(diffs.std(ddof=1) / np.sqrt(n_paths)),
        cost_optimal=base.cost_estimate,
        cost_perturbed=pert.cost_estimate,
        terminal_cov_residual_optimal=float(
            np.linalg.norm(empirical_covariance(base, 1.0) - problem.sigma1) / s1_norm
        ),
        terminal_cov_residual_perturbed=float(
            np.linalg.norm(empirical_covariance(pert, 1.0) - problem.sigma1) / s1_norm
        ),
    )
