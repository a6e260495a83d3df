"""Fixed-step classical Runge-Kutta integration and Simpson quadrature.

:func:`rk4_grid` is the only integrator. It works on arbitrary ndarray-valued
states (vectors, matrices, stacked matrices) so the same machinery drives
every linear flow of the package (transitions, the Gramian's sweep and the
pass yielding Pi, H and Sigma) on a uniform ``np.linspace`` grid. A caller
that wants the state at chosen times (checkpoints) integrates the whole grid
and picks out nodes, so every checkpoint must be a grid node;
:func:`grid_indices` enforces this. The state at a node therefore does not
depend on which checkpoints were asked for.
"""

from __future__ import annotations

import math
from typing import Callable

import numpy as np

from .errors import DomainError

Rhs = Callable[[float, np.ndarray], np.ndarray]


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
