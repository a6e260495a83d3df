"""Fixed-step classical Runge-Kutta integration and Simpson quadrature.

:func:`rk4_grid` is the only integrator. Every flow of the package is linear,
y' = G(t) y (transitions, the Gramian's sweep and the pass yielding Pi, H and
Sigma), and works on a vector or matrix state on a uniform ``np.linspace``
grid. A caller that wants the state at chosen times integrates the whole grid
and picks out nodes, so the state at a node does not depend on which nodes
were asked for. :func:`thin_nodes` is the one rule for keeping about
``count`` evenly spaced nodes. :func:`grid_indices` is the one checkpoint
rule of the Monte Carlo's n-step grid on [0, 1]: it finds each checkpoint's
node k from n alone, node k being the time k/n, without building the grid.

Because the flow is linear, one RK4 step is a matrix: y_{k+1} = E_k y_k, where
E_k depends only on G at the step's start, midpoint and end. An RK4 pass over
an N-step grid therefore evaluates G only at the 2N + 1 nodes and midpoints
of the grid, its :func:`stage_times`. :func:`step_stack` takes G as a sampler
of an array of times and samples them a page of :data:`STAGE_PAGE` steps at a
time, so G is sampled once per stage time, in few calls; from each page of
samples :func:`step_matrices` builds every E_k of the page with stacked
arithmetic, into one (N, d, d) stack of the whole grid. :func:`rk4_grid`
multiplies a state through such a stack with one :func:`rk4_step`, a single
``E_k.dot(y)``, per step, so the number of :func:`rk4_step` calls is the
number of steps. Two passes of one flow on one grid can share the stack,
which is how the pass yielding Pi, H and Sigma reuses the Hamiltonian
transition's E_k.

A constant coefficient returns, at an array of times, one matrix repeated
with zero stride along time (:func:`is_constant`), and :func:`once` carries
that stack through arithmetic done matrix by matrix. When G comes back so,
E_k depends on the step size alone: :func:`step_stack` samples G once for
the whole pass and builds one E per distinct step size. ``np.linspace(0, 1,
2001)`` has about ten of them, so a 2000-step pass builds about ten E in
place of 2000, each to the byte the E_k a per-step build gives.
"""

from __future__ import annotations

import math
import numbers
from typing import Callable

import numpy as np

from .errors import DomainError

STAGE_PAGE = 256  # steps whose stage samples and step matrices step_stack builds at once


def step_matrices(g: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The RK4 step matrices E_k of y' = G(t) y for a page of steps, as one stack.

    g is G at the page's stage times (2P + 1 of them, as :func:`stage_times`
    orders them) and h the P step sizes, negative on a backward grid. With
    K1 = G0, K2 = Gh(I + h/2 K1), K3 = Gh(I + h/2 K2) and K4 = G1(I + h K3),
    E_k = I + h/6 (K1 + 2 K2 + 2 K3 + K4) maps the state at node k to node k + 1.
    """
    g0, gh, g1 = g[:-1:2], g[1::2], g[2::2]
    eye = np.eye(g.shape[-1])
    h = h[:, None, None]
    half = 0.5 * h
    # E_k as above, operation for operation, so to the byte, in three page-sized
    # buffers: arg holds each stage's I + c h K, k the stage's K and acc the sum
    arg = np.multiply(half, g0)
    arg += eye
    k = np.matmul(gh, arg)  # K2
    acc = np.multiply(2.0, k)
    acc += g0
    np.multiply(half, k, out=arg)
    arg += eye
    np.matmul(gh, arg, out=k)  # K3
    np.multiply(h, k, out=arg)
    arg += eye
    k *= 2.0
    acc += k
    np.matmul(g1, arg, out=k)  # K4
    acc += k
    acc *= h / 6.0
    acc += eye
    return acc


def rk4_step(e: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """One RK4 step: out = e @ y for the step's matrix e from :func:`step_matrices`.

    y is a vector or a matrix, so the ``e.dot`` method is ``np.matmul`` here,
    down to the same BLAS call and so the same bytes. It goes straight to
    that C routine: ``np.matmul`` adds the generalized-ufunc dispatch and
    ``np.dot`` a Python-level ``__array_function__`` dispatcher, each a
    sizeable part of a small step's time.
    """
    return e.dot(y, out)


def is_int(value) -> bool:
    """True for an int or a numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """True for a real number (an int, a float or a numpy one); a bool is not one."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def positive_int(value, name: str) -> int:
    """value as an int; DomainError unless it is an integer (see :func:`is_int`) >= 1."""
    if not is_int(value) or value < 1:
        raise DomainError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def steps_for_span(steps_per_unit: int, a: float, b: float) -> int:
    """Step count for [a, b] at a density of steps_per_unit on a unit interval.

    Raises DomainError unless steps_per_unit is a positive integer.
    """
    steps_per_unit = positive_int(steps_per_unit, "steps_per_unit")
    return max(1, math.ceil(steps_per_unit * abs(b - a) - 1e-12))


def grid_indices(checkpoints, n: int) -> np.ndarray:
    """Node of each checkpoint on the n-step grid on [0, 1], node k being the time k/n.

    No checkpoints (None) give the default nodes, ``thin_nodes(n, 10)``: t = 0,
    0.1, ..., 1 when n is a multiple of 10. Otherwise raises DomainError
    unless the checkpoints are a nonempty list, tuple or 1-d array of real
    numbers (see :func:`is_real`), each c lies within max(1e-9 / n,
    ulp(k / n)) of its node k = round(c n), and their nodes are strictly
    increasing. The ulp floor matters from n = 10**7 on, where 1e-9 of a
    step falls below an ulp: a node formed as k * (1 / n), as np.linspace
    forms it, can lie an ulp from k / n.
    """
    if checkpoints is None:
        return thin_nodes(n, 10)
    values = checkpoints.tolist() if isinstance(checkpoints, np.ndarray) else checkpoints
    if not (isinstance(values, (list, tuple)) and all(is_real(c) for c in values)):
        raise DomainError(f"checkpoints must be a 1-d sequence of real numbers, got {checkpoints!r}")
    idx = []
    for c in values:
        c = float(c)
        k = round(min(max(c, 0.0), 1.0) * n) if math.isfinite(c) else 0
        if not abs(c - k / n) <= max(1e-9 / n, math.ulp(k / n)):
            raise DomainError(f"checkpoints must be nodes of the {n}-step grid on [0, 1], got {c}")
        idx.append(k)
    if len(idx) == 0 or any(j <= i for i, j in zip(idx, idx[1:])):
        raise DomainError("checkpoints must be nonempty and strictly increasing")
    return np.array(idx, dtype=int)


def thin_nodes(n: int, count: int) -> np.ndarray:
    """Indices of every max(1, n // count)-th node of an n-step grid, and of its last node."""
    return np.append(np.arange(0, n, max(1, n // count)), n)


def stage_times(grid: np.ndarray) -> np.ndarray:
    """The 2N + 1 stage times of a pass of :func:`rk4_grid` over an N-step grid.

    The nodes and the midpoints t + dt/2, in grid order.
    """
    times = np.empty(2 * len(grid) - 1)
    times[::2] = grid
    times[1::2] = grid[:-1] + 0.5 * np.diff(grid)
    return times


def is_constant(stack: np.ndarray) -> bool:
    """True for a stack that repeats one matrix with zero stride along time.

    A constant coefficient returns such a stack at an array of times.
    """
    return stack.ndim == 3 and stack.strides[0] == 0


def once(fn: Callable[..., np.ndarray], *stacks: np.ndarray) -> np.ndarray:
    """fn(*stacks), computed once on the first matrices when every stack is constant.

    fn must work matrix by matrix along the first axis. When every stack is
    constant (see :func:`is_constant`), fn takes their first matrices, as
    stacks of one, and its one result is broadcast along time with zero
    stride, read-only; each matrix has the bytes fn would give it in the
    full stack. Any other stacks, and single matrices, go to fn whole.
    """
    if not all(is_constant(s) for s in stacks):
        return fn(*stacks)
    out = fn(*(s[:1] for s in stacks))
    return np.broadcast_to(out, stacks[0].shape[:1] + out.shape[1:])


def step_stack(sample: Callable[[np.ndarray], np.ndarray], grid: np.ndarray) -> np.ndarray:
    """The RK4 step matrices E_k of y' = G(t) y along a uniform grid, as one (N, d, d) stack.

    For each page of at most STAGE_PAGE steps it calls sample(ts), which
    returns the stack of G(ts[i]), once on the page's stage times in the order
    of the pass, a node shared by two pages being sampled once, and writes the
    page's E_k from :func:`step_matrices`, with the step sizes of
    ``np.diff(grid)`` (negative on a backward grid), into the stack.

    A first page that comes back constant (see :func:`is_constant`) is the
    only sample of the pass: E_k then depends on the step size alone, so
    :func:`step_matrices` builds one E per distinct size of ``np.diff(grid)``
    and the stack is gathered from those few. Every E_k is built by the same
    operations on the same G and h, so it keeps its bytes.
    """
    n = len(grid) - 1
    g = sample(stage_times(grid[:min(STAGE_PAGE, n) + 1]))
    if is_constant(g):
        sizes, which = np.unique(np.diff(grid), return_inverse=True)
        distinct = step_matrices(np.broadcast_to(g[0], (2 * len(sizes) + 1,) + g.shape[1:]), sizes)
        return distinct[which]
    e = np.empty((n,) + g.shape[1:])
    for start in range(0, n, STAGE_PAGE):
        stop = min(start + STAGE_PAGE, n)
        if start:  # the node this page shares with the last one is sampled once
            g = np.concatenate((g[-1:], sample(stage_times(grid[start:stop + 1])[1:])))
        e[start:stop] = step_matrices(g, np.diff(grid[start:stop + 1]))
    return e


def rk4_grid(e: np.ndarray, y0: np.ndarray, grid: np.ndarray) -> np.ndarray:
    """Integrate y' = G(t) y along a grid, returning the state at every node.

    e is the (N, d, d) stack of the grid's step matrices in order, as
    :func:`step_stack` builds it; each step is one call of :func:`rk4_step`,
    E_k @ y written into its node, so the calls count the steps. y0 is a
    vector or a matrix, else DomainError (``dot`` would contract other axes
    of a stack than ``@`` does). Result has shape (len(grid),) + y0.shape
    with result[0] == y0.
    """
    y = np.asarray(y0, dtype=float)
    if not 1 <= y.ndim <= 2:
        raise DomainError(f"the state must be a vector or a matrix, got shape {y.shape}")
    out = np.empty((len(grid),) + y.shape)
    out[0] = y
    for e_k, slot in zip(e, out[1:]):
        y = rk4_step(e_k, y, slot)
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
