"""Closed-loop Euler-Maruyama ensemble simulation and diagnostics.

Validates a solved bridge by integrating the controlled SDE

    dx = (A(t) - B(t) K(t)) x dt + sqrt(eps) B(t) R(t)^-1/2 dw,   x(0) ~ N(0, Sigma0),

which is the noise model of :mod:`covsteer.bridge`, over many paths,
estimating empirical covariances at checkpoints and the expected quadratic
cost. The noise enters through :func:`covsteer.systems.noise_channel`.

Paths are stepped one 5000-path block at a time, paths in the last axis. One
step matrix per grid step is built before the loop,

    S_k = [[G_k, F_k], [0, trap_k W_k]],

from the scaled noise channel G_k = sqrt(eps dt) B R^-1/2, the Euler step
F_k = I + dt (A - BK), the cost weight W_k = Q + K'RK (so u'Ru + x'Qx =
x'W_k x) and the trapezoid weight trap_k. Two reused buffers hold a block's
stacked state [dw; x; W x]: each step draws dw in place, and one product with
S_k gives both x_{k+1} and trap_k W_k x_k, whose inner product with x_k is the
step's cost. At eps = 0 the dw rows and G_k are left out.

Paths come in blocks of 5000, and block b draws from an SFC64 generator
seeded by the b-th child of SeedSequence(seed), that is
SeedSequence(seed, spawn_key=(b,)): first x(0) as an (n, 5000) array, then,
when eps > 0, an (m, 5000) array per step, always at full width. Path i is
column i mod 5000 of block i // 5000's stream, so its states and cost depend
on (seed, i, n_steps) only, not on n_paths. The width is the CLI's default
path count, so a default run is one block and draws only the normals it
keeps, and 20000 paths are four whole blocks. The spawn key, unlike list
entropy such as [seed, b], keeps (seed, b) pairs apart: SeedSequence splits a
list into 32-bit words and zero-pads them, so [5, 7] and [7 * 2**32 + 5, 0]
would seed one stream. Blocks were 4096 paths wide in the previous version,
and before that block b drew from the Philox stream keyed by (seed, b); a
given seed now draws other paths than under either.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .bridge import BridgeSolution, SteeringProblem, sqrt_spd
from .errors import DomainError, UnsupportedDimensionError
from .integrate import grid_indices, is_int, is_real, positive_int
from .systems import noise_channel

# spawn key of cost_gap's perturbation; no block reaches it below 1.6e13 paths
_PERTURBATION_STREAM = 0xC0575EE2
# paths per stream, and the default n_paths: block b draws from the b-th child
# of SeedSequence(seed); it was 4096 in the previous version
_BLOCK_PATHS = 5000


class SimulationResult(NamedTuple):
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


def check_seed(seed) -> int:
    """seed as an int; DomainError unless it is an integer in [0, 2**63).

    An integer is what :func:`covsteer.integrate.is_int` accepts: an int or a
    numpy integer, not a bool, a float or a string. The range is that of a
    non-negative int64, so every accepted seed is also a numpy integer seed.
    """
    if not is_int(seed):
        raise DomainError(f"seed must be an integer, got {seed!r}")
    if not 0 <= seed < 2**63:
        raise DomainError(f"seed must be in [0, 2**63), got {seed}")
    return int(seed)


def check_counts(n_paths, n_steps) -> None:
    """Raise DomainError unless n_paths is an integer >= 2 and n_steps a positive integer.

    An integer is what :func:`covsteer.integrate.is_int` accepts. The messages
    name the arguments as the config fields n_paths and n_steps.
    """
    if positive_int(n_paths, "n_paths") < 2:
        raise DomainError("n_paths must be at least 2")
    positive_int(n_steps, "n_steps")


def _stream(seed: int, key: int) -> np.random.Generator:
    """Generator over SFC64 seeded by SeedSequence(seed, spawn_key=(key,)), the key-th child."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(seed, spawn_key=(key,))))


def _check_gain(gain_t: np.ndarray, gain_seq: np.ndarray, m: int, n: int) -> None:
    """Raise DomainError unless (gain_t, gain_seq) is a finite m x n gain on [0, 1].

    gain_t must be 1-d, strictly increasing and run from 0 to 1 within 1e-12,
    and gain_seq must hold one finite m x n gain per time of gain_t. A gain of
    another shape would broadcast through the step matrices, and one on a
    shorter span would be held at its end values, each into a wrong cost.
    """
    if not (gain_t.ndim == 1 and len(gain_t) >= 2 and (np.diff(gain_t) > 0).all()):
        raise DomainError("the gain's times must be a strictly increasing 1-d array "
                          f"of at least two, got shape {gain_t.shape}")
    if not (abs(gain_t[0]) <= 1e-12 and abs(gain_t[-1] - 1.0) <= 1e-12):
        raise DomainError(f"the gain's times must run from 0 to 1, got [{gain_t[0]:g}, "
                          f"{gain_t[-1]:g}]")
    if gain_seq.shape != (len(gain_t), m, n):
        raise DomainError(f"the gain must have shape {(len(gain_t), m, n)} for this "
                          f"problem, got {gain_seq.shape}")
    if not np.isfinite(gain_seq).all():
        raise DomainError("the gain has non-finite entries")


def _check_epsilon(problem: SteeringProblem, solution: BridgeSolution) -> None:
    """DomainError unless solution was solved at problem's eps: another eps's gain misses Sigma1."""
    if solution.epsilon != problem.epsilon:
        raise DomainError(f"the solution was solved at epsilon = {solution.epsilon}, "
                          f"but the problem's epsilon is {problem.epsilon}")


def _simulate_gain(
    problem: SteeringProblem,
    gain_t: np.ndarray,
    gain_seq: np.ndarray,
    n_paths: int,
    n_steps: int,
    seed: int,
    checkpoints,
) -> SimulationResult:
    """Core ensemble run under an explicit gain trajectory (see the module docstring).

    Raises DomainError unless the counts pass :func:`check_counts`, the check
    the CLI applies to its config's n_paths and n_steps, the seed passes
    :func:`check_seed`, the gain belongs to the problem (see :func:`_check_gain`)
    and the checkpoints pass :func:`covsteer.integrate.grid_indices`.
    """
    check_counts(n_paths, n_steps)
    seed = check_seed(seed)
    sys = problem.sys
    n, m = sys.dim_state, sys.dim_input
    gain_t, gain_seq = np.asarray(gain_t, dtype=float), np.asarray(gain_seq, dtype=float)
    _check_gain(gain_t, gain_seq, m, n)
    cp_idx = grid_indices(checkpoints, n_steps)
    eps = problem.epsilon
    dt = 1.0 / n_steps
    t_grid = np.linspace(0.0, 1.0, n_steps + 1)

    a_seq, b_seq, q_seq, r_seq = sys.A(t_grid), sys.B(t_grid), sys.Q(t_grid), sys.R(t_grid)
    k_seq = _interp_matrices(gain_t, gain_seq, t_grid)
    trapezoid = np.full((n_steps + 1, 1, 1), dt)
    trapezoid[[0, -1]] = 0.5 * dt
    w = m if eps > 0 else 0  # noise rows of the stacked state [dw; x; W x]
    # S_k = [[G_k, F_k], [0, trap_k W_k]] maps [dw_k; x_k] to [x_{k+1}; trap_k W_k x_k]
    steps = np.zeros((n_steps + 1, 2 * n, w + n))
    if w:
        steps[:, :n, :w] = np.sqrt(eps * dt) * noise_channel(b_seq, r_seq, t_grid)
    steps[:, :n, w:] = np.eye(n) + dt * (a_seq - b_seq @ k_seq)
    steps[:, n:, w:] = trapezoid * (q_seq + np.swapaxes(k_seq, -1, -2) @ r_seq @ k_seq)

    cp_lookup = {int(k): i for i, k in enumerate(cp_idx)}
    root0 = sqrt_spd(problem.sigma0)
    states = np.empty((n_paths, len(cp_idx), n))
    costs = np.zeros(n_paths)
    z, z_next = np.empty((2, w + 2 * n, _BLOCK_PATHS))
    for lo in range(0, n_paths, _BLOCK_PATHS):
        gen = _stream(seed, lo // _BLOCK_PATHS)
        cols = min(_BLOCK_PATHS, n_paths - lo)
        block_states, block_costs = states[lo:lo + cols], costs[lo:lo + cols]
        # every draw is at full width, so a path's draws do not depend on n_paths
        gen.standard_normal(out=z_next[:n])
        np.matmul(root0, z_next[:n, :cols], out=z[w:w + n, :cols])
        for k in range(n_steps + 1):
            x = z[w:w + n, :cols]
            ci = cp_lookup.get(k)
            if ci is not None:
                block_states[:, ci] = x.T
            if k < n_steps:
                if w:
                    gen.standard_normal(out=z[:w])
                np.matmul(steps[k], z[:w + n, :cols], out=z_next[w:, :cols])
            else:
                np.matmul(steps[k, n:, w:], x, out=z_next[w + n:, :cols])
            block_costs += np.einsum("ip,ip->p", x, z_next[w + n:, :cols])
            z, z_next = z_next, z

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
        seed=seed,
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
    trapezoidal rule. Path i draws from column i mod 5000 of an SFC64
    stream seeded by SeedSequence(seed, spawn_key=(i // 5000,)): x(0) first,
    then one draw per step when eps > 0. Its states and cost depend on
    (seed, i, n_steps) only. The blocks were 4096 paths wide in the previous
    version, and Philox streams before that, so a given seed now draws other
    paths.
    Checkpoints are strictly increasing nodes of the n_steps grid on [0, 1],
    by default every max(1, n_steps // 10)-th node and the last (see
    :func:`covsteer.integrate.grid_indices`, which finds them without
    building the grid). A solution solved at another eps than the problem's,
    or whose gain is not a finite (len(grid), m, n) stack on a grid from 0
    to 1, raises DomainError.
    """
    _check_epsilon(problem, solution)
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
    """Raise DomainError unless level is a finite positive real and resolution an integer >= 3.

    A bool is neither (see :func:`covsteer.integrate.is_real` and
    :func:`covsteer.integrate.is_int`). The messages name the arguments as the
    config fields tube_level and tube_resolution.
    """
    if not is_real(level):
        raise DomainError(f"tube_level must be a real number, got {level!r}")
    if not 0.0 < level < np.inf:
        raise DomainError(f"tube_level must be finite and positive, got {level}")
    if not is_int(resolution):
        raise DomainError(f"tube_resolution must be an integer, got {resolution!r}")
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


class CostGapReport(NamedTuple):
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

    Both runs draw the paths of :func:`simulate` at seed, with checkpoints
    0 and 1. The perturbation delta is one standard normal (m, n) draw from
    an SFC64 stream seeded by SeedSequence(seed, spawn_key=(0xC0575EE2,)),
    divided by its Frobenius norm, scaled by perturbation_scale and added to
    K(t) at every grid time; before this rule it came from the Philox stream
    keyed by (seed, 0xC0575EE2), so a given seed now draws another delta and
    other paths. A perturbation_scale that is not a finite real number (a
    bool is not one), or a solution :func:`simulate` would refuse, raises
    DomainError.
    """
    if not (is_real(perturbation_scale) and math.isfinite(perturbation_scale)):
        raise DomainError("perturbation_scale must be finite and a real number, "
                          f"got {perturbation_scale!r}")
    _check_epsilon(problem, solution)
    sys = problem.sys
    checkpoints = [0.0, 1.0]
    base = _simulate_gain(
        problem, solution.grid, solution.k, n_paths, n_steps, seed, checkpoints
    )
    gen = _stream(base.seed, _PERTURBATION_STREAM)
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
