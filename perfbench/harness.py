"""covsteer benchmark: workloads, correctness gates, statistics and results.

Run it through run.py, which pins every thread count before numpy loads:

    python3 perfbench/run.py --workload solve --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30

Each workload is one process running a closed loop: an operation starts only
after the previous one has returned and been timed, with COVSTEER_THREADS=1.
Inputs come from --seed alone; covsteer receives only the generated inputs.
Every operation's output passes through a gate, written as ``not (x <= tol)``
so that NaN fails; an operation that raises or fails its gate is counted in
``failed`` and the run goes on.

--trace 0 reports the end-to-end metrics: the set-up time, the peak RSS, and
op_p50_s, each operation's median time averaged over the workload's
operations (so that a mix of fast and slow operations does not make the
median jump between them). The detail line adds the tail and the
workload-specific figures, also in reference seconds.

Both times are in reference seconds. A shared host runs the same code up to
1.9 times slower for stretches of a second to minutes, in CPU time as much
as in wall time, so raw seconds from two runs are not comparable. The
harness therefore samples the host's speed with a fixed calibration kernel
(see Probe): a few runs before and after every timed operation or set-up,
and one every PROBE_INTERVAL_S during it, from a timer signal. Each time is
rescaled by CAL_REF_S over the mean kernel time of its own samples, so a
time in reference seconds is what the operation takes on a host that runs
the kernel in CAL_REF_S. The raw seconds and the median kernel time are in
the detail line.

--trace 1 runs each operation untraced and then, at once, traced (see
tracer.py), and reports per-layer metrics per traced round (one pass over
the workload's fixed set of operations), plus the tracing overhead: per
round, the sum over operations of the median traced-minus-untraced time, so
that slow drift of the host cancels.

The last line of standard output is the result object; the line before it
holds the environment and the detailed figures.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from tracer import Recorder, Tracer

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORK_DIR = ROOT / ".perfbench-work"
THREAD_VARS = ("COVSTEER_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
               "MKL_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

GRID = 2000
RESIDUAL_TOL = 1e-4  # terminal covariance, relative Frobenius
PI0_TOL = 1e-8  # preset Pi(0) against the DOP853 reference, relative Frobenius
MC_COV_TOL = 0.05  # mc terminal empirical covariance against Sigma1, relative Frobenius
MC_PATHS, MC_STEPS = 20000, 1000
CLI_PATHS = 5000
TAIL_BEYOND = 10
SETUP_REPS = 50  # import and build, each about 25 ms; the median is set-up time
CAL_REPS = 3  # kernel runs before and after each timed operation
PROBE_INTERVAL_S = 0.05  # one kernel run this often during a timed operation
CAL_REF_S = 0.001  # one kernel run on the reference host (2.1 GHz Xeon) in its fast state

# The paper's planar double integrator (position/velocity, force input),
# steered from 2I to I/4; the same data as covsteer's inertial-* presets.
A_DI = [[0.0, 1.0], [0.0, 0.0]]
B_DI = [[0.0], [1.0]]
SIGMA0 = 2.0 * np.eye(2)
SIGMA1 = 0.25 * np.eye(2)
LTI_CASES = (  # label, Q scale, epsilon
    ("inertial-q1", 1.0, 1.0),
    ("inertial-q10", 10.0, 1.0),
    ("inertial-qneg5", -5.0, 1.0),
    ("inertial-q0", 0.0, 1.0),
    ("inertial-q1-eps0", 1.0, 0.0),
)

# random time-varying problems of the solve workload
TV_N, TV_M, TV_KNOTS, TV_PIECES, TV_POOL = 6, 2, 21, 4, 2


class BenchError(Exception):
    """The benchmark itself cannot run (missing sources, bad arguments)."""


def rel_err(x, ref) -> float:
    ref = np.asarray(ref, dtype=float)
    return float(np.linalg.norm(np.asarray(x, dtype=float) - ref) / np.linalg.norm(ref))


# ---------------------------------------------------------------------------
# statistics

def tail(values) -> dict | None:
    """Highest order statistic with at least TAIL_BEYOND samples above it.

    Returns its value, its percentile and the sample count, or None when
    there are too few samples for any such percentile.
    """
    xs = sorted(values)
    n = len(xs)
    if n <= TAIL_BEYOND:
        return None
    i = n - 1 - TAIL_BEYOND
    return {"value": xs[i], "percentile": 100.0 * i / (n - 1), "samples": n}


# ---------------------------------------------------------------------------
# gates: each returns None when the output is correct, else the reason

def solve_failure(sol, sigma1, pi0_ref=None) -> str | None:
    sigma = np.asarray(sol.sigma, dtype=float)
    res = rel_err(sigma[-1], sigma1)
    if not (res <= RESIDUAL_TOL):
        return f"terminal residual {res:.3e} exceeds {RESIDUAL_TOL:.0e}"
    if not np.isfinite(sigma).all():
        return "Sigma(t) has non-finite entries"
    lam = float(np.linalg.eigvalsh(sigma).min())
    if not (lam > 0.0):
        return f"Sigma(t) is not positive definite (min eigenvalue {lam:.3e})"
    if pi0_ref is not None:
        err = rel_err(sol.pi[0], pi0_ref)
        if not (err <= PI0_TOL):
            return f"Pi(0) differs from the reference by {err:.3e} (tol {PI0_TOL:.0e})"
    return None


def mc_failure(result, sigma1) -> str | None:
    if not (abs(float(result.grid[-1]) - 1.0) <= 1e-12):
        return f"last checkpoint is t={result.grid[-1]}, not 1"
    err = rel_err(result.empirical_cov[-1], sigma1)
    if not (err <= MC_COV_TOL):
        return f"terminal empirical covariance off Sigma1 by {err:.3e} (tol {MC_COV_TOL})"
    if not math.isfinite(result.cost_estimate):
        return f"cost estimate {result.cost_estimate} is not finite"
    return None


def csv_failure(path: Path, comment: str, header: str, rows: int) -> str | None:
    """Exact comment and header lines, exact row count, CRLF line ends."""
    try:
        data = path.read_bytes()
    except OSError as exc:
        return f"{path.name}: {exc}"
    first = f"{comment}\r\n{header}\r\n".encode()
    if not data.startswith(first):
        got = data[:len(first)].decode(errors="replace")
        return f"{path.name}: header lines {got!r} != {first.decode()!r}"
    found = data.count(b"\r\n") - 2
    if found != rows or not data.endswith(b"\r\n"):
        return f"{path.name}: {found} rows, expected {rows}"
    return None


def last_row(path: Path) -> list[float]:
    return [float(v) for v in path.read_bytes().rstrip(b"\r\n").rsplit(b"\r\n", 1)[-1].split(b",")]


# ---------------------------------------------------------------------------
# operations and the closed loop

@dataclass
class Op:
    label: str
    call: Callable[[], object]
    gate: Callable[[object], str | None]


# the calibration kernel's array operand; built once so that a run only computes
_CAL_PATHS = np.linspace(-1.0, 1.0, 4000).reshape(2000, 2)
_CAL_A = np.array([[0.0, 1.0], [-1.0, 0.0]])


def kernel_s() -> float:
    """Seconds of one run of the calibration kernel, about CAL_REF_S.

    The kernel mixes the two kinds of work covsteer's layers do: an
    interpreter-bound loop of 2 x 2 matrix steps, as in the RK4 passes, and
    arithmetic on arrays of paths, as in the Monte Carlo step loop. It
    touches no covsteer code, so a change to the package cannot move it.
    """
    t0 = time.perf_counter()
    x, h = np.eye(2), 1e-3
    for _ in range(100):
        k1 = _CAL_A @ x
        x = x + h * (k1 + _CAL_A @ (x + 0.5 * h * k1))
    total = 0
    for i in range(5000):
        total += i * i
    y = _CAL_PATHS
    for _ in range(50):
        y = y @ _CAL_A * 0.5 + _CAL_PATHS
    return time.perf_counter() - t0


class Probe:
    """Samples of the host's speed: kernel times, in the order they were taken."""

    def __init__(self):
        self.samples: list[float] = []
        self._boundary()

    def _boundary(self):
        self.samples.extend(kernel_s() for _ in range(CAL_REPS))

    def _tick(self, signum, frame):
        self.samples.append(kernel_s())

    def sampled(self, fn):
        """Call fn() with the sampling timer on; return its result and the host's speed.

        The speed is CAL_REF_S over the mean kernel time from the boundary
        before the call through the one after it; a time taken inside fn()
        times the speed is in reference seconds.
        """
        first = len(self.samples) - CAL_REPS
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        try:
            out = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        self._boundary()
        return out, CAL_REF_S / statistics.mean(self.samples[first:])


def run_op(op: Op) -> tuple[float, str | None]:
    """Time one operation; a raised error or a failed gate is a failed operation."""
    t0 = time.perf_counter()
    try:
        out = op.call()
    except Exception as exc:  # any error the program raises fails the operation
        return time.perf_counter() - t0, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    try:
        return elapsed, op.gate(out)
    except Exception as exc:  # malformed output the gate could not even read
        return elapsed, f"gate: {type(exc).__name__}: {exc}"


def measure(workload, cs, state, seconds: float, probe: Probe) -> list:
    """Whole rounds while the next one, as long as the last, still ends within `seconds`.

    Always runs at least one round. Returns a list of rounds, each a list of
    (label, seconds, failure, reference seconds).
    """
    rounds = []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        r = len(rounds)
        rounds.append([])
        for op in workload.ops(cs, state, r):
            (elapsed, failure), speed = probe.sampled(lambda: run_op(op))
            rounds[-1].append((op.label, elapsed, failure, elapsed * speed))
        workload.end_round(state, r)
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return rounds


def measure_traced(workload, cs, state, seconds: float):
    """Rounds in which each operation runs untraced and then traced, within `seconds`.

    Running the two copies of an operation back to back lets slow drift of
    the host cancel from their difference. The traced copy runs on a state
    built under the Tracer, so that the coefficient maps it holds are
    wrapped too. Returns the recorder, which holds the traced copies only,
    and the untraced and traced rounds.
    """
    rec = Recorder()
    tracer = Tracer(rec)
    with tracer:
        traced_state = workload.rebuild(cs, state)
    rec.reset()
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while True:
        started = time.perf_counter()
        r = 2 * len(plain)
        plain.append([])
        traced.append([])
        for op, traced_op in zip(workload.ops(cs, state, r),
                                 workload.ops(cs, traced_state, r + 1)):
            plain[-1].append((op.label, *run_op(op)))
            with tracer, rec.span(f"op.{op.label}"):
                traced[-1].append((op.label, *run_op(traced_op)))
        workload.end_round(state, r)
        workload.end_round(traced_state, r + 1)
        now = time.perf_counter()
        if now + (now - started) > deadline:
            return rec, plain, traced


# ---------------------------------------------------------------------------
# workloads

def tv_problem_data(rng: np.random.Generator) -> dict:
    """Raw arrays of one random time-varying problem (see oracle.tv_coefficients)."""
    n, m = TV_N, TV_M

    def spd(lo):  # eigenvalues in [lo, 10 lo], so condition number <= 10
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        return (q * (lo * 10.0 ** rng.uniform(0.0, 1.0, n))) @ q.T

    a_base = rng.normal(0.0, 0.5, (n, n))
    b_base = rng.normal(0.0, 1.0, (n, m))
    g = rng.normal(0.0, 0.5, (TV_PIECES, n, n))
    return {
        "knots": np.linspace(0.0, 1.0, TV_KNOTS),
        "a": a_base + rng.normal(0.0, 0.25, (TV_KNOTS, n, n)),
        "b": b_base + rng.normal(0.0, 0.25, (TV_KNOTS, n, m)),
        "q_breaks": np.linspace(0.0, 1.0, TV_PIECES + 1),
        "q": g @ np.transpose(g, (0, 2, 1)),
        "sigma0": spd(1.0),
        "sigma1": spd(0.1),
    }


def tv_problem(cs, data: dict):
    sys_ = cs.make_system(
        cs.sampled_coefficient(data["knots"], data["a"]),
        cs.sampled_coefficient(data["knots"], data["b"]),
        cs.piecewise_constant_coefficient(data["q_breaks"], data["q"]),
        np.eye(TV_M),
    )
    return cs.SteeringProblem(sys_, data["sigma0"], data["sigma1"], epsilon=1.0)


class Solve:
    """covsteer.solve at grid 2000 on the planar presets and on random time-varying problems.

    The presets have constant coefficients and n = 2, so they are bound by
    the interpreter; the eps = 0 case skips the sum-law diagnostic. The
    random problems (n = 6, m = 2, sampled A and B, piecewise Q) spend a
    large share in coefficient sampling and more in arithmetic.
    """

    name = "solve"
    prepare_reps = 0

    def build(self, cs, seed):
        ref = json.loads((BENCH_DIR / "reference.json").read_text(encoding="utf-8"))["cases"]
        rng = np.random.default_rng([seed, 0x7A])
        cases = []
        for i in rng.permutation(len(LTI_CASES)):
            label, q_scale, eps = LTI_CASES[i]
            sys_ = cs.make_system(A_DI, B_DI, q_scale * np.eye(2), [[1.0]])
            cases.append((label, cs.SteeringProblem(sys_, SIGMA0, SIGMA1, epsilon=eps),
                          np.array(ref[label]["pi0"])))
        for i in range(TV_POOL):
            cases.append((f"tv-{i}", tv_problem(cs, tv_problem_data(rng)), None))
        return {"cases": cases, "seed": seed}

    def rebuild(self, cs, state):
        return self.build(cs, state["seed"])

    def ops(self, cs, state, r):
        return [Op(label, lambda p=problem: cs.solve(p, grid_size=GRID),
                   lambda sol, p=problem, ref=ref: solve_failure(sol, p.sigma1, ref))
                for label, problem, ref in state["cases"]]

    def end_round(self, state, r):
        pass


class MonteCarlo:
    name = "mc"
    prepare_reps = 3  # the solve that produces the gain, about 0.8 s

    def _problem(self, cs):
        sys_ = cs.make_system(A_DI, B_DI, np.eye(2), [[1.0]])
        return cs.SteeringProblem(sys_, SIGMA0, SIGMA1, epsilon=1.0)

    def build(self, cs, seed):
        return {"problem": self._problem(cs), "seed": seed}

    def prepare(self, cs, state):
        return dict(state, solution=cs.solve(state["problem"], grid_size=GRID))

    def rebuild(self, cs, state):
        return dict(state, problem=self._problem(cs))

    def op_seed(self, seed, r):
        return (seed * 1_000_003 + r) % 2**63

    def ops(self, cs, state, r):
        problem, solution = state["problem"], state["solution"]
        seed = self.op_seed(state["seed"], r)
        return [Op("simulate",
                   lambda: cs.simulate(problem, solution, MC_PATHS, MC_STEPS, seed),
                   lambda res: mc_failure(res, problem.sigma1))]

    def end_round(self, state, r):
        pass


def cli_config(seed: int | None, n_paths: int) -> dict:
    """The inertial-q1 run configuration as the CLI records it (defaults filled in)."""
    return {
        "name": "inertial-q1",
        "system": {"A": A_DI, "B": B_DI, "Q": [[1.0, 0.0], [0.0, 1.0]], "R": [[1.0]]},
        "sigma0": [[2.0, 0.0], [0.0, 2.0]],
        "sigma1": [[0.25, 0.0], [0.0, 0.25]],
        "epsilon": 1.0,
        "grid_size": GRID,
        "eps_list": [10.0, 1.0, 0.1, 0.01, 0.0],
        "monte_carlo": {"n_paths": n_paths, "n_steps": 1000, "seed": seed,
                        "checkpoints": [i / 10 for i in range(11)],
                        "tube_level": 3.0, "tube_resolution": 64},
    }


def csv_comment(version: str, config: dict) -> str:
    digest = hashlib.sha256(json.dumps(config, sort_keys=True).encode("utf-8")).hexdigest()[:16]
    return f"# covsteer {version} schema=1 config={digest}"


def cli_solve_failure(out: Path, comment: str) -> str | None:
    rows = GRID + 1
    for name, header in (("gains", "t,k_1_1,k_1_2"), ("pi", "t,pi_1_1,pi_1_2,pi_2_2"),
                         ("h", "t,h_1_1,h_1_2,h_2_2"),
                         ("sigma", "t,sigma_1_1,sigma_1_2,sigma_2_2")):
        failure = csv_failure(out / f"{name}.csv", comment, header, rows)
        if failure:
            return failure
    t, s11, s12, s22 = last_row(out / "sigma.csv")
    if not (abs(t - 1.0) <= 1e-12):
        return f"sigma.csv last row is at t={t}"
    res = rel_err([[s11, s12], [s12, s22]], SIGMA1)
    if not (res <= RESIDUAL_TOL):
        return f"sigma.csv last row misses Sigma1 by {res:.3e}"
    if not (out / "report.txt").is_file():
        return "report.txt missing"
    return None


class Cli:
    """The four commands users run, in process, through covsteer.cli.main."""

    name = "cli"
    prepare_reps = 0

    def build(self, cs, seed):
        work = WORK_DIR / f"cli-{os.getpid()}"
        work.mkdir(parents=True, exist_ok=True)
        return {
            "seed": seed,
            "work": work,
            "solve_comment": csv_comment(cs.__version__, cli_config(None, CLI_PATHS)),
            "sim_comment": csv_comment(cs.__version__, cli_config(seed, CLI_PATHS)),
        }

    def rebuild(self, cs, state):
        return state

    @staticmethod
    def _main(cs, argv):
        """Exit code and captured output of one in-process CLI command."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cs.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def ops(self, cs, state, r):
        base = state["work"] / f"r{r}"
        seed = state["seed"]

        def cmd(*argv):
            return lambda: self._main(cs, list(argv))

        def exit_failure(res):
            code, _, err = res
            return None if code == 0 else f"exit code {code}: {err.strip()[-300:]}"

        def solved(res, out=base / "solve"):
            return exit_failure(res) or cli_solve_failure(out, state["solve_comment"])

        def simulated(res, out=base / "simulate"):
            comment = state["sim_comment"]
            return (exit_failure(res)
                    or cli_solve_failure(out, comment)
                    or csv_failure(out / "paths.csv", comment, "path_id,t,x_1,x_2",
                                   CLI_PATHS * 11)
                    or csv_failure(out / "empirical_cov.csv", comment,
                                   "t,cov_1_1,cov_1_2,cov_2_2", 11)
                    or csv_failure(out / "tube.csv", comment,
                                   "t,point_index,z_1,z_2,level", (GRID + 1) * 64)
                    or (None if (out / "cost.txt").is_file() else "cost.txt missing"))

        def swept(res, out=base / "sweep"):
            failure = exit_failure(res) or csv_failure(
                out / "sweep.csv", state["solve_comment"],
                "epsilon,pi0_gap,boundary_residual_0,boundary_residual_1", 5)
            if failure:
                return failure
            rows = np.loadtxt(out / "sweep.csv", delimiter=",", skiprows=2, ndmin=2)
            worst = float(rows[:, 3].max()) if np.isfinite(rows).all() else math.nan
            return None if worst <= RESIDUAL_TOL else f"sweep terminal residual {worst:.3e}"

        def verified(res):
            failure = exit_failure(res)
            if failure:
                return failure
            lines = res[1].splitlines()
            bad = [ln for ln in lines if not ln.startswith("PASS ")]
            if len(lines) != 15 or bad:
                return f"verify printed {len(lines)} lines, non-PASS: {bad[:3]}"
            return None

        return [
            Op("cli-solve", cmd("solve", "--preset", "inertial-q1", "--out", str(base / "solve")),
               solved),
            Op("cli-simulate", cmd("simulate", "--preset", "inertial-q1", "--seed", str(seed),
                                   "--paths", str(CLI_PATHS), "--out", str(base / "simulate")),
               simulated),
            Op("cli-sweep", cmd("sweep", "--preset", "inertial-q1", "--out", str(base / "sweep")),
               swept),
            Op("cli-verify", cmd("verify"), verified),
        ]

    def end_round(self, state, r):
        shutil.rmtree(state["work"] / f"r{r}", ignore_errors=True)

    def known_defects(self, cs, state) -> dict:
        """`solve --preset inertial-r4` exits 2 at this commit (R != I noise-model defect).

        Run once, untimed and outside the counted operations, so that the
        defect stays visible in every cli result without making the measured
        workload fail.
        """
        code, _, err = self._main(cs, ["solve", "--preset", "inertial-r4",
                                       "--out", str(state["work"] / "r4")])
        return {"solve --preset inertial-r4": {"exit_code": code, "stderr": err.strip()[-200:]}}


WORKLOADS = {w.name: w for w in (Solve(), MonteCarlo(), Cli())}


# ---------------------------------------------------------------------------
# environment and set-up

def import_covsteer():
    """Import covsteer afresh from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    if not (src / "covsteer" / "__init__.py").is_file():
        raise BenchError(f"no covsteer sources at {src / 'covsteer'}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "covsteer" or n.startswith("covsteer.")]:
        del sys.modules[name]
    cs = importlib.import_module("covsteer")
    importlib.import_module("covsteer.cli")
    if Path(cs.__file__).resolve().parent != (src / "covsteer").resolve():
        raise BenchError(f"covsteer imported from {cs.__file__}, not from {src}")
    return cs


def git_commit() -> str:
    """HEAD of the checkout; 'none' if the checkout is not a git repository."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))  # never a parent's repo
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "none"
    return proc.stdout.strip() if proc.returncode == 0 else "none"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "covsteer").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def environment(seed: int) -> dict:
    return {
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "threads": {var: os.environ.get(var) for var in THREAD_VARS},
        "seed": seed,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# one workload run

def timed_reps(step, reps: int, probe: Probe) -> tuple[object, list[float], list[float]]:
    """The last result of `reps` calls of step(), and their seconds and reference seconds."""
    def timed():
        t0 = time.perf_counter()
        out = step()
        return out, time.perf_counter() - t0

    out, raw, ref = None, [], []
    for _ in range(reps):
        (out, elapsed), speed = probe.sampled(timed)
        raw.append(elapsed)
        ref.append(elapsed * speed)
    return out, raw, ref


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    workload = WORKLOADS[name]

    def set_up():
        cs = import_covsteer()
        return cs, workload.build(cs, seed)

    probe = Probe()
    (cs, state), setup_raw, setup_ref = timed_reps(set_up, SETUP_REPS, probe)
    setup_s = statistics.median(setup_ref)
    setup_raw_s = statistics.median(setup_raw)
    prepare_raw = []
    if workload.prepare_reps:
        state, prepare_raw, prepare_ref = timed_reps(
            lambda: workload.prepare(cs, state), workload.prepare_reps, probe)
        setup_s += statistics.median(prepare_ref)
        setup_raw_s += statistics.median(prepare_raw)

    detail = {"workload": name, "env": environment(seed),
              "setup_s_each": setup_raw, "prepare_s_each": prepare_raw,
              "setup_kernel_s": statistics.median(probe.samples)}
    try:
        if trace:
            rec, plain, traced = measure_traced(workload, cs, state, seconds)
            rounds = plain + traced
        else:
            probe = Probe()
            rounds = measure(workload, cs, state, seconds, probe)
            detail["kernel_s"] = statistics.median(probe.samples)
            detail["kernel_samples"] = len(probe.samples)
        if isinstance(workload, Cli):
            detail["known_defects"] = workload.known_defects(cs, state)
    finally:
        if isinstance(workload, Cli):
            shutil.rmtree(state["work"], ignore_errors=True)
            with contextlib.suppress(OSError):
                WORK_DIR.rmdir()

    records = [record for rnd in rounds for record in rnd]
    failures = [(label, why) for label, _, why, *_ in records if why is not None]
    detail["ops_attempted"] = len(records)
    detail["ops_failed"] = len(failures)
    detail["failures"] = failures[:10]
    detail["rounds"] = len(rounds)

    if trace:
        metrics = per_layer_metrics(rec, plain, traced)
        dump = ROOT / ".perfbench-out" / f"trace-{name}-seed{seed}.json"
        dump.parent.mkdir(exist_ok=True)
        dump.write_text(json.dumps(rec.dump()), encoding="utf-8")
        detail["trace_file"] = str(dump.relative_to(ROOT))
        detail["traced_rounds"] = len(traced)
    else:
        times, ref_times = op_times(records, 1), op_times(records, 3)
        metrics = {
            "setup_s": (setup_s, "s"),
            "op_p50_s": (p50_over_ops(ref_times), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MiB"),
        }
        detail["op_times_s"] = times
        detail["op_ref_times_s"] = ref_times
        detail["figures"] = figures(name, ref_times, metrics)
        detail["figures"]["setup_raw_s"] = setup_raw_s
        detail["figures"]["op_p50_raw_s"] = p50_over_ops(times)

    result = {
        "correct": not failures,
        "attempted": len(records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return result, detail


def op_times(records, field: int) -> dict[str, list[float]]:
    """One field of each run of each operation (1: seconds, 3: reference seconds), by label."""
    times: dict[str, list[float]] = {}
    for record in records:
        times.setdefault(record[0], []).append(record[field])
    return times


def p50_over_ops(times: dict[str, list[float]]) -> float:
    """Each operation's median time, averaged over the operations."""
    return statistics.mean(statistics.median(ts) for ts in times.values())


def figures(name: str, times: dict[str, list[float]], metrics) -> dict:
    """Workload-specific end-to-end figures from `times`; None where a figure does not apply."""
    every = [t for ts in times.values() for t in ts]
    tv = [t for label, ts in times.items() if label.startswith("tv-") for t in ts]
    lti = [t for label, ts in times.items() if not label.startswith("tv-") for t in ts]
    solve = name == "solve"
    cli = {f"cli_{cmd}_s": statistics.median(times[f"cli-{cmd}"]) if name == "cli" else None
           for cmd in ("solve", "simulate", "sweep", "verify")}
    return {
        "setup_s": metrics["setup_s"][0],
        "op_p50_s": metrics["op_p50_s"][0],
        "solve_p50_s": statistics.median(every) if solve else None,
        "solve_tail_s": tail(every) if solve else None,
        "solve_lti_p50_s": statistics.median(lti) if solve else None,
        "solve_tv_p50_s": statistics.median(tv) if solve else None,
        "mc_path_steps_per_s": (MC_PATHS * MC_STEPS * len(every) / sum(every)
                                if name == "mc" else None),
        **cli,
        "peak_rss_mb": metrics["peak_rss_mb"][0],
    }


PER_LAYER = {  # metric -> unit; values are per round of the traced phase
    "systems.coef.calls": "count",
    "systems.coef.self_s": "s",
    "systems.gramian.calls": "count",
    "systems.gramian.self_s": "s",
    "systems.gramian.rk4_steps": "count",
    "hamiltonian.propagate.calls": "count",
    "hamiltonian.propagate.self_s": "s",
    "hamiltonian.propagate.rk4_steps": "count",
    "bridge.trajectory.self_s": "s",
    "bridge.trajectory.rk4_steps": "count",
    "bridge.solve.self_s": "s",
    "bridge.coupling_roots.calls": "count",
    "bridge.coupling_roots.self_s": "s",
    "bridge.escape.self_s": "s",
    "monte_carlo.rng.generators": "count",
    "monte_carlo.rng.self_s": "s",
    "monte_carlo.step.self_s": "s",
    "monte_carlo.path_steps": "count",
    "monte_carlo.interp.self_s": "s",
    "monte_carlo.tube.self_s": "s",
    "cli.emit.self_s": "s",
    "cli.emit.bytes": "B",
    "cli.emit.rows": "count",
    "cli.config.self_s": "s",
    "cli.build_problem.calls": "count",
    "trace.overhead_s": "s",
    "trace.overhead_pct": "%",
}


def per_layer_metrics(rec: Recorder, plain, traced) -> dict:
    totals = rec.totals()
    n = len(traced)
    metrics = {k: (totals.get(k, 0.0) / n, unit) for k, unit in PER_LAYER.items()
               if not k.startswith("trace.")}
    plain_s, extra_s = defaultdict(list), defaultdict(list)  # by operation label
    for plain_round, traced_round in zip(plain, traced):
        for (label, p, _), (_, t, _) in zip(plain_round, traced_round):
            plain_s[label].append(p)
            extra_s[label].append(t - p)
    overhead = sum(statistics.median(ts) for ts in extra_s.values())
    round_s = sum(statistics.median(ts) for ts in plain_s.values())
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_pct"] = (100.0 * overhead / round_s, "%")
    return metrics


# ---------------------------------------------------------------------------
# command line

def _summary(seed: int, seconds: float) -> int:
    """Run every workload in its own process, one after another, and tabulate."""
    run_py = str(BENCH_DIR / "run.py")
    rows, results = [], {}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, run_py, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", "0"],
            capture_output=True, text=True, timeout=600, cwd=ROOT)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            print(proc.stderr, file=sys.stderr)
            raise BenchError(f"workload {name} exited {proc.returncode}")
        results[name] = json.loads(lines[-1])
        rows.append((name, json.loads(lines[-2])["detail"]))
    units = {"mc_path_steps_per_s": "1/s", "peak_rss_mb": "MiB"}
    names = list(rows[0][1]["figures"])
    print(f"{'metric':<28}" + "".join(f"{name:>14}" for name, _ in rows))
    for metric in names + ["ops_attempted", "ops_failed"]:
        cells = []
        for _, d in rows:
            v = d["figures"].get(metric, d.get(metric))
            if isinstance(v, dict):
                v = v["value"]
            cells.append("-" if v is None else f"{v:.6g}")
        unit = units.get(metric, "s" if metric.endswith("_s") else "count")
        print(f"{metric + ' [' + unit + ']':<28}" + "".join(f"{c:>14}" for c in cells))
    for name, d in rows:
        t = d["figures"]["solve_tail_s"]
        if t is not None:
            print(f"{name}: solve_tail_s is p{t['percentile']:.0f} of {t['samples']} solves")
        elif d["figures"]["solve_p50_s"] is not None:
            print(f"{name}: solve_tail_s needs more than {TAIL_BEYOND} solves, "
                  f"got {sum(map(len, d['op_times_s'].values()))}")
        if "known_defects" in d:
            print(f"{name}: known defects {json.dumps(d['known_defects'])}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        if args.workload == "all":
            return _summary(args.seed, args.seconds)
        result, detail = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    print(json.dumps({"detail": detail}))
    print(json.dumps(result))
    return 0
