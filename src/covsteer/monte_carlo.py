"""Closed-loop Euler-Maruyama ensemble simulation and diagnostics.

Validates a solved bridge by integrating the controlled SDE

    dx = (A(t) - B(t) K(t)) x dt + sqrt(eps) B(t) R(t)^-1/2 dw,   x(0) ~ N(0, Sigma0),

which is the noise model of :mod:`covsteer.bridge`, over many paths,
estimating empirical covariances at checkpoints and the expected quadratic
cost. The noise enters through :func:`covsteer.bridge.noise_channel`.

One pass over the steps carries every path, with paths in the last axis of
an (n, n_paths) state; each step applies the Euler step I + dt (A - BK), the
cost weight Q + K'RK (so u'Ru + x'Qx = x'(Q + K'RK)x) and the scaled noise
channel sqrt(eps dt) B R^-1/2, all precomputed on the grid.

Randomness is counter-based. Paths come in blocks of 4096, and block b draws
from the Philox stream keyed by (seed, b): first x(0) as an (n, 4096) array,
then, when eps > 0, an (m, 4096) array per step, always at full width. Path i
is column i mod 4096 of the stream keyed by (seed, i // 4096), so its states
and cost depend on (seed, i, n_steps) only, not on n_paths.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bridge import BridgeSolution, SteeringProblem, noise_channel, sqrt_spd
from .errors import DomainError, UnsupportedDimensionError
from .integrate import grid_indices, thin_nodes

_PERTURBATION_STREAM = 0xC0575EE2  # fixed substream key for gain perturbations
_BLOCK_PATHS = 4096  # paths per Philox stream


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
    """Entrywise linear interpolation of a matrix trajectory onto dst_t.

    Every entry at once, with np.interp's formula and its end values: a time
    before src_t[0] takes src_m[0] and one at or after src_t[-1] takes src_m[-1].
    """
    x = np.clip(dst_t, src_t[0], src_t[-1])
    i = np.clip(np.searchsorted(src_t, x, side="right") - 1, 0, len(src_t) - 2)
    lo_t = src_t[i][:, None, None]
    slope = (src_m[i + 1] - src_m[i]) / (src_t[i + 1][:, None, None] - lo_t)
    out = slope * (x[:, None, None] - lo_t) + src_m[i]
    out[x == src_t[-1]] = src_m[-1]
    return out


def check_seed(seed: int) -> None:
    """Raise DomainError unless seed lies in [0, 2**63), where each seed keys its own streams.

    2**63 and -2**63 would key the same Philox stream, and 2**64 and up key none.
    """
    if not 0 <= seed < 2**63:
        raise DomainError(f"seed must be in [0, 2**63), got {seed}")


def _simulate_gain(
    problem: SteeringProblem,
    gain_t: np.ndarray,
    gain_seq: np.ndarray,
    n_paths: int,
    n_steps: int,
    seed: int,
    checkpoints,
) -> SimulationResult:
    """Core ensemble run under an explicit gain trajectory (see the module docstring)."""
    if n_paths < 2:
        raise DomainError("n_paths must be at least 2")
    if n_steps < 1:
        raise DomainError("n_steps must be positive")
    check_seed(seed)
    sys = problem.sys
    n, m = sys.dim_state, sys.dim_input
    eps = problem.epsilon
    dt = 1.0 / n_steps
    t_grid = np.linspace(0.0, 1.0, n_steps + 1)

    a_seq, b_seq, q_seq, r_seq = sys.A(t_grid), sys.B(t_grid), sys.Q(t_grid), sys.R(t_grid)
    k_seq = _interp_matrices(gain_t, gain_seq, t_grid)
    step_seq = np.eye(n) + dt * (a_seq - b_seq @ k_seq)  # Euler step F_k
    weight_seq = q_seq + np.swapaxes(k_seq, -1, -2) @ r_seq @ k_seq  # u'Ru + x'Qx = x'W_k x
    noise_seq = np.sqrt(eps * dt) * noise_channel(b_seq, r_seq)
    trapezoid = np.full(n_steps + 1, dt)
    trapezoid[[0, -1]] = 0.5 * dt

    cp_idx = (thin_nodes(n_steps, 10) if checkpoints is None
              else grid_indices(checkpoints, t_grid))
    cp_lookup = {int(k): i for i, k in enumerate(cp_idx)}
    gens = [np.random.Generator(np.random.Philox(key=[seed, b]))
            for b in range(-(-n_paths // _BLOCK_PATHS))]

    def draw(rows: int) -> np.ndarray:
        # every block draws at full width, so a path's draws do not depend on n_paths
        return np.concatenate(
            [gen.standard_normal((rows, _BLOCK_PATHS)) for gen in gens], axis=1
        )[:, :n_paths]

    x = sqrt_spd(problem.sigma0) @ draw(n)
    states = np.empty((n_paths, len(cp_idx), n))
    costs = np.zeros(n_paths)
    for k in range(n_steps + 1):
        costs += trapezoid[k] * ((weight_seq[k] @ x) * x).sum(axis=0)
        ci = cp_lookup.get(k)
        if ci is not None:
            states[:, ci] = x.T
        if k < n_steps:
            x = step_seq[k] @ x
            if eps > 0:
                x += np.dot(noise_seq[k], draw(m))  # matmul is slower for m = 1

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
    cost u'Ru + x'Qx = x'(Q + K'RK)x is accumulated per path by the
    trapezoidal rule. Path i draws from column i mod 4096 of the Philox
    stream keyed by (seed, i // 4096): x(0) first, then one draw per step
    when eps > 0. Its states and cost depend on (seed, i, n_steps) only.
    Checkpoints are grid nodes, by default every max(1, n_steps // 10)-th
    and t = 1 (t = 0, 0.1, ..., 1 when n_steps is a multiple of 10).
    """
    return _simulate_gain(
        problem, solution.grid, solution.k, n_paths, n_steps, seed, checkpoints
    )


def empirical_covariance(result: SimulationResult, t: float) -> np.ndarray:
    """Zero-mean second moment (1/N) sum x x' at a recorded checkpoint."""
    hits = np.flatnonzero(np.abs(result.grid - t) <= 1e-12)
    if len(hits) == 0:
        raise DomainError(f"time {t} was not recorded as a checkpoint")
    return result.empirical_cov[hits[0]]


def check_tube(level: float, resolution: int) -> None:
    """Raise DomainError unless level is finite and positive and resolution is at least 3.

    The messages name the arguments as the config fields tube_level and tube_resolution.
    """
    if not 0.0 < level < np.inf:
        raise DomainError(f"tube_level must be finite and positive, got {level}")
    if resolution < 3:
        raise DomainError(f"tube_resolution must be at least 3, got {resolution}")


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
    check_tube(level, resolution)
    theta = np.linspace(0.0, 2.0 * np.pi, resolution, endpoint=False)
    circle = level * np.stack([np.cos(theta), np.sin(theta)], axis=1)
    return circle @ sqrt_spd(solution.sigma)  # each root is symmetric


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
