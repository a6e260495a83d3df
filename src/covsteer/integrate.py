"""Fixed-step classical Runge-Kutta integration and Simpson quadrature.

:func:`rk4_grid` is the only integrator. It works on arbitrary ndarray-valued
states (vectors, matrices, stacked matrices) so the same machinery drives
every linear flow of the package (transitions, the Gramian's sweep and the
pass yielding Pi, H and Sigma) on a uniform ``np.linspace`` grid. A caller
that wants the state at chosen times (checkpoints) integrates the whole grid
and picks out nodes, so every checkpoint must be a grid node;
:func:`grid_indices` enforces this. The state at a node therefore does not
depend on which checkpoints were asked for.

Each of those flows is linear, y' = G(t) y, and an RK4 pass over an N-step
grid evaluates G only at the 2N + 1 nodes and midpoints of the grid.
:func:`stage_sampler` samples G once per such stage time, in pages of
:data:`STAGE_PAGE` times, so a pass neither rebuilds G four times per step
nor holds all 2N + 1 samples at once.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError

Rhs = Callable[[float, np.ndarray], np.ndarray]

STAGE_PAGE = 256  # stage times sampled at once by stage_sampler; bounds its memory


def rk4_step(f: Rhs, t: float, y: np.ndarray, dt: float) -> np.ndarray:
    """Single classical RK4 step from t to t+dt (dt may be negative)."""
    k1 = f(t, y)
    k2 = f(t + 0.5 * dt, y + 0.5 * dt * k1)
    k3 = f(t + 0.5 * dt, y + 0.5 * dt * k2)
    k4 = f(t + dt, y + dt * k3)
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def steps_for_span(steps_per_unit: int, a: float, b: float) -> int:
    """Step count for [a, b] at a density of steps_per_unit on a unit interval."""
    return max(1, math.ceil(steps_per_unit * abs(b - a) - 1e-12))


def grid_indices(checkpoints, grid: np.ndarray) -> np.ndarray:
    """Index of each checkpoint among the nodes of a uniform grid.

    Raises DomainError unless the checkpoints are nonempty, sorted ascending
    and each lies within 1e-9 of a step of a node.
    """
    n = len(grid) - 1
    h = (grid[-1] - grid[0]) / n
    idx = []
    for c in checkpoints:
        c = float(c)
        k = min(max(round((c - grid[0]) / h), 0), n) if h > 0 and math.isfinite(c) else 0
        if not abs(c - grid[k]) <= 1e-9 * h:
            raise DomainError(f"checkpoint {c} is not a node of the {n}-step grid "
                              f"on [{grid[0]:g}, {grid[-1]:g}]")
        idx.append(k)
    if len(idx) == 0 or sorted(idx) != idx:
        raise DomainError("checkpoints must be nonempty and sorted")
    return np.array(idx, dtype=int)


def rk4_grid(f: Rhs, y0: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Integrate along a uniform grid, returning the state at every node.

    Result has shape (len(grid),) + y0.shape with result[0] == y0.
    """
    y = np.asarray(y0, dtype=float)
    out = np.empty((len(grid),) + y.shape)
    out[0] = y
    for k in range(len(grid) - 1):
        y = rk4_step(f, grid[k], y, grid[k + 1] - grid[k])
        out[k + 1] = y
    return out


def stage_sampler(
    grid: np.ndarray,
    fill: Callable[[np.ndarray, np.ndarray], object],
    shape: tuple[int, ...],
) -> Callable[[float], np.ndarray]:
    """G(t) at the RK4 stage times of a pass of :func:`rk4_grid` over grid.

    A pass over an N-step uniform grid spanning [lo, hi] (either direction)
    evaluates its rhs only at the 2N + 1 stage times: the nodes and the
    midpoints t + dt/2 that :func:`rk4_step` forms, each within an ulp of
    np.linspace(lo, hi, 2N + 1). The returned function maps a stage time t
    to its index j = round(2N (t - lo) / (hi - lo)), 0 on a zero-length
    span, and returns G at that stage time from a page of at most
    STAGE_PAGE samples. fill(ts, out) writes G(ts[i]) into out[i]. A page
    is refilled only when j leaves it, with the next page laid out ahead in
    the direction of the pass, so one pass samples each stage time exactly
    once. The returned matrix is a view that the next refill overwrites.
    """
    n2 = 2 * (len(grid) - 1)
    forward = grid[-1] >= grid[0]
    times = np.empty(n2 + 1)
    times[::2] = grid
    times[1::2] = grid[:-1] + 0.5 * np.diff(grid)  # bit for bit as rk4_step forms them
    if not forward:
        times = times[::-1]
    lo, hi = float(times[0]), float(times[-1])
    scale = n2 / (hi - lo) if hi > lo else 0.0
    page = np.empty((min(STAGE_PAGE, n2 + 1),) + tuple(shape))
    start = stop = 0  # page holds the samples of times[start:stop]

    def at(t: float) -> np.ndarray:
        nonlocal start, stop
        j = round((float(t) - lo) * scale)  # a Python float rounds 8x faster
        if not start <= j < stop:
            if not 0 <= j <= n2:
                raise DomainError(f"time {t} is not a stage time of the {n2 // 2}-step grid")
            if forward:
                start, stop = j, min(j + len(page), n2 + 1)
            else:
                start, stop = max(j + 1 - len(page), 0), j + 1
            fill(times[start:stop], page[: stop - start])
        return page[j - start]

    return at


def simpson_uniform(samples: np.ndarray, h: float) -> np.ndarray:
    """Composite Simpson rule over uniformly spaced samples, any positive interval count.

    An odd count n >= 3 takes Simpson's rule on the first n - 3 intervals and
    the 3/8 rule on the last three; a single interval takes the trapezoid rule.
    """
    n = len(samples) - 1
    if n < 1:
        raise DomainError("quadrature needs a positive interval count")
    if n == 1:
        return (0.5 * h) * (samples[0] + samples[1])
    if n % 2:
        tail = (3.0 * h / 8.0) * (samples[-4] + 3.0 * (samples[-3] + samples[-2]) + samples[-1])
        return tail if n == 3 else simpson_uniform(samples[:-3], h) + tail
    acc = samples[0] + samples[-1]
    acc = acc + 4.0 * np.sum(samples[1:-1:2], axis=0)
    acc = acc + 2.0 * np.sum(samples[2:-1:2], axis=0)
    return (h / 3.0) * acc
