"""Span recording for the traced benchmark run.

The package has no timers of its own, so the traced run wraps, from outside,
the module-level names through which covsteer's layers call each other. A
name is replaced in every covsteer module that holds the same function object
(for example ``bridge.propagate`` and ``cli.propagate``), and restored on
exit.

Spans carry a name, start, end and parent id and stay in memory until the
run ends. Two kinds of call are too frequent to keep one record each (about
80 000 coefficient evaluations per solve, 20 000 generators per Monte Carlo
call): they are leaves, folded into (calls, seconds) on the span that
encloses them. Counters, such as RK4 steps, are likewise attributed to the
innermost open span.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
import types
from collections import defaultdict

import numpy as np

ROOT = -1  # parent id of spans opened outside any other span
PACKAGE = "covsteer"


class Recorder:
    """Spans, leaf totals and counters of one traced run."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.reset()

    def reset(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent]
        self.leaves: dict[tuple[int, str], list] = {}  # (span, name) -> [calls, seconds]
        self.counts: dict[tuple[int, str], int] = defaultdict(int)  # (span, key) -> total
        self._stack = [ROOT]

    def open(self, name: str) -> int:
        sid = len(self.spans)
        self.spans.append([name, self.clock(), None, self._stack[-1]])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][2] = self.clock()
        self._stack.pop()

    def span(self, name: str):
        return _SpanContext(self, name)

    def leaf(self, name: str, seconds: float) -> None:
        key = (self._stack[-1], name)
        entry = self.leaves.get(key)
        if entry is None:
            self.leaves[key] = [1, seconds]
        else:
            entry[0] += 1
            entry[1] += seconds

    def count(self, key: str, n: int = 1) -> None:
        self.counts[(self._stack[-1], key)] += n

    def totals(self) -> dict[str, float]:
        """Flat totals: <span>.calls, <span>.self_s, <span>.<counter>, <leaf>.calls/.self_s."""
        return summarize(self.spans, self.leaves, self.counts)

    def dump(self) -> dict:
        return {
            "spans": [{"id": i, "name": n, "start": s, "end": e, "parent": p}
                      for i, (n, s, e, p) in enumerate(self.spans)],
            "leaves": [{"span": sid, "name": name, "calls": c, "seconds": t}
                       for (sid, name), (c, t) in self.leaves.items()],
            "counts": [{"span": sid, "key": key, "value": v}
                       for (sid, key), v in self.counts.items()],
        }


class _SpanContext:
    def __init__(self, recorder: Recorder, name: str):
        self.recorder, self.name = recorder, name

    def __enter__(self):
        self.sid = self.recorder.open(self.name)
        return self.sid

    def __exit__(self, *exc):
        self.recorder.close(self.sid)
        return False


def self_times(spans, leaves) -> list[float]:
    """Per span: duration minus its child spans' durations and its leaf time.

    Spans open and close on one stack, so siblings never overlap.
    """
    child_time = defaultdict(float)
    for name, start, end, parent in spans:
        child_time[parent] += end - start
    leaf_time = defaultdict(float)
    for (sid, _), (_, seconds) in leaves.items():
        leaf_time[sid] += seconds
    return [
        (end - start) - child_time[sid] - leaf_time[sid]
        for sid, (name, start, end, parent) in enumerate(spans)
    ]


def summarize(spans, leaves, counts) -> dict[str, float]:
    out: dict[str, float] = defaultdict(float)
    for (name, *_), own in zip(spans, self_times(spans, leaves)):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += own
    for (_, name), (calls, seconds) in leaves.items():
        out[f"{name}.calls"] += calls
        out[f"{name}.self_s"] += seconds
    for (sid, key), value in counts.items():
        if key == "rk4_steps":
            owner = spans[sid][0] if sid != ROOT else "untraced"
            out[f"{owner}.rk4_steps"] += value
        else:
            out[key] += value
    return dict(out)


# ---------------------------------------------------------------------------
# wrapping covsteer

def _span_wrapper(rec: Recorder, name: str, fn, on_call=None):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = rec.open(name)
        try:
            if on_call is not None:
                on_call(args, kwargs)
            return fn(*args, **kwargs)
        finally:
            rec.close(sid)

    return wrapper


def _leaf_wrapper(rec: Recorder, name: str, fn):
    clock = rec.clock

    def wrapper(*args, **kwargs):
        t0 = clock()
        try:
            return fn(*args, **kwargs)
        finally:
            rec.leaf(name, clock() - t0)

    return wrapper


class _TracedGenerator:
    """numpy Generator whose draws are timed as monte_carlo.rng leaves."""

    def __init__(self, gen, rec: Recorder):
        self._gen = gen
        self.standard_normal = _leaf_wrapper(rec, "monte_carlo.rng", gen.standard_normal)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _traced_numpy(rec: Recorder) -> types.ModuleType:
    """A stand-in for monte_carlo's ``np`` whose Philox and Generator are timed."""
    make_philox = _leaf_wrapper(rec, "monte_carlo.rng", np.random.Philox)
    make_generator = _leaf_wrapper(rec, "monte_carlo.rng", np.random.Generator)

    def generator(bit_generator):
        rec.count("monte_carlo.rng.generators")
        return _TracedGenerator(make_generator(bit_generator), rec)

    rnd = types.ModuleType("numpy.random")
    rnd.__dict__.update(np.random.__dict__)
    rnd.Philox = make_philox
    rnd.Generator = generator
    shim = types.ModuleType("numpy")
    shim.__dict__.update(np.__dict__)
    shim.random = rnd
    return shim


class Tracer:
    """Installs span wrappers on the loaded covsteer modules; use as a context manager.

    It may be entered again after each exit; every exit restores the originals.
    """

    def __init__(self, recorder: Recorder):
        self.rec = recorder
        self._undo: list[tuple[types.ModuleType, str, object]] = []

    def _modules(self, only=None) -> list[types.ModuleType]:
        names = [n for n in sys.modules
                 if n == PACKAGE or n.startswith(PACKAGE + ".")]
        if only is not None:
            names = [n for n in names if n in only]
        return [sys.modules[n] for n in sorted(names)]

    def _replace(self, original, replacement, only=None) -> None:
        hits = 0
        for mod in self._modules(only):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    self._undo.append((mod, attr, original))
                    hits += 1
        if hits == 0:
            raise LookupError(f"{getattr(original, '__qualname__', original)} is not "
                              f"reachable from any {PACKAGE} module")

    def __enter__(self):
        mods = {name.rsplit(".", 1)[-1]: sys.modules[name]
                for name in sys.modules if name.startswith(PACKAGE + ".")}
        integrate, systems, hamiltonian = mods["integrate"], mods["systems"], mods["hamiltonian"]
        bridge, mc, cli = mods["bridge"], mods["monte_carlo"], mods["cli"]
        rec = self.rec
        try:
            step = integrate.rk4_step

            def counted_step(*args, **kwargs):
                rec.count("rk4_steps")
                return step(*args, **kwargs)

            self._replace(step, counted_step)

            for factory in (systems.constant_coefficient,
                            systems.piecewise_constant_coefficient,
                            systems.sampled_coefficient):
                self._replace(factory, self._coefficient_factory(factory))

            spans = (
                (systems.reachability_gramian, "systems.gramian", None),
                (hamiltonian.propagate, "hamiltonian.propagate", None),
                (bridge.rk4_grid, "bridge.trajectory", {f"{PACKAGE}.bridge"}),
                (bridge.solve, "bridge.solve", None),
                (bridge.coupling_roots, "bridge.coupling_roots", None),
                (bridge.spurious_root_escape, "bridge.escape", None),
                (mc._interp_matrices, "monte_carlo.interp", None),
                (mc.tolerance_tube, "monte_carlo.tube", None),
                (cli.load_config, "cli.config", None),
                (cli.build_problem, "cli.build_problem", None),
            )
            for fn, name, only in spans:
                self._replace(fn, _span_wrapper(rec, name, fn), only)

            signature = inspect.signature(mc._simulate_gain)

            def path_steps(args, kwargs):
                bound = signature.bind(*args, **kwargs).arguments
                rec.count("monte_carlo.path_steps", bound["n_paths"] * bound["n_steps"])

            self._replace(mc._simulate_gain,
                          _span_wrapper(rec, "monte_carlo.step", mc._simulate_gain, path_steps))
            self._replace(mc.np, _traced_numpy(rec), {f"{PACKAGE}.monte_carlo"})
            self._replace(cli._write_csv, self._csv_writer(cli._write_csv))
        except BaseException:
            self.__exit__(None, None, None)
            raise
        return self

    def __exit__(self, *exc):
        while self._undo:
            mod, attr, original = self._undo.pop()
            setattr(mod, attr, original)
        return False

    def _coefficient_factory(self, factory):
        rec = self.rec

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return _leaf_wrapper(rec, "systems.coef", factory(*args, **kwargs))

        return wrapper

    def _csv_writer(self, write_csv):
        rec = self.rec

        def counted(rows):
            for row in rows:
                rec.count("cli.emit.rows")
                yield row

        @functools.wraps(write_csv)
        def wrapper(path, header, rows, cfg):
            with rec.span("cli.emit"):
                write_csv(path, header, counted(rows), cfg)
                rec.count("cli.emit.bytes", os.path.getsize(path))

        return wrapper
