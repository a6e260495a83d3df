"""Command-line workflows: solve / simulate / sweep / verify.

Configuration is a single JSON document (matrices as row-major nested
arrays); a handful of presets are shipped embedded. All numeric output is
CSV (UTF-8, '.' decimal, 17 significant digits) plus plain-text reports,
intended for external plotting. Exit codes: 0 ok, 1 config or usage error,
2 solver error, 3 verify failure, 4 out of memory.

CSV emission formats each shared cell once. A file's lines come in blocks
(a grid node, path, checkpoint or epsilon) whose key cell and row templates
(with fixed cells such as a tube point's index and level) are formatted once
per command; :func:`_block_rows` fills the varying %.17g slots of up to
CHUNK_ROWS lines by one %. :func:`_write_csv` is the one writer.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from itertools import chain, islice
from pathlib import Path
from typing import Iterator

import numpy as np

from . import __version__
from .bridge import (
    SteeringProblem,
    _checked_eps_list,
    _checked_epsilon,
    corollary_q_zero,
    coupling_roots,
    epsilon_sweep,
    initial_conditions,
    lemma1_residual,
    solve,
    spurious_root_escape,
)
from .errors import ConfigError, CovsteerError, DomainError
from .hamiltonian import propagate, symplectic_residual
from .integrate import grid_indices, positive_int, thin_nodes
from .monte_carlo import (
    check_counts,
    check_seed,
    check_tube,
    simulate,
    tolerance_tube,
)
from .systems import (
    constant_coefficient,
    make_system,
    piecewise_constant_coefficient,
    sampled_coefficient,
)

SCHEMA_VERSION = 1
VERIFY_SEED = 20260826  # default seed of verify's random lemma-1 draws
CHUNK_ROWS = 1024  # CSV data lines formatted, and written, at once


# ---------------------------------------------------------------------------
# configuration

@dataclass
class MonteCarloConfig:
    n_paths: int = 5000
    n_steps: int = 1000
    seed: int | None = None
    checkpoints: list[float] | None = None  # None: grid_indices(None, n_steps) as times
    tube_level: float = 3.0
    tube_resolution: int = 64


@dataclass
class RunConfig:
    """In-memory mirror of the JSON config; round-trips losslessly."""

    name: str
    system: dict
    sigma0: list
    sigma1: list
    epsilon: float = 1.0
    grid_size: int = 2000
    eps_list: list[float] = field(default_factory=lambda: [10.0, 1.0, 0.1, 0.01, 0.0])
    monte_carlo: MonteCarloConfig = field(default_factory=MonteCarloConfig)

    @classmethod
    def from_dict(cls, raw: dict) -> "RunConfig":
        _check_fields(cls, raw, "config root must be a JSON object", "")
        mc_raw = raw.get("monte_carlo", {})
        _check_fields(MonteCarloConfig, mc_raw, "monte_carlo must be an object", "monte_carlo.")
        cfg = cls(**{**raw, "monte_carlo": MonteCarloConfig(**mc_raw)})
        cfg.name = str(cfg.name)
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return asdict(self)

    def validate(self) -> None:
        """Check each field by the library's own rule for it, then build the problem.

        A rule's DomainError becomes a ConfigError naming the field's config
        path (see :func:`_checked`); a problem the library refuses is an
        "invalid problem definition". epsilon, eps_list and checkpoints are
        stored as floats, so the config hash reads a JSON 1 as 1.0, and absent
        checkpoints become the nodes simulate() records by default, as times.
        Nothing here is the size of n_steps: :func:`grid_indices` finds the
        checkpoints' nodes without building the grid.
        """
        self.epsilon = _checked(_checked_epsilon, self.epsilon)
        _checked(positive_int, self.grid_size, "grid_size")
        if not isinstance(self.eps_list, list):
            raise ConfigError("eps_list must be a list of numbers")
        self.eps_list = _checked(_checked_eps_list, self.eps_list)
        mc = self.monte_carlo
        _checked(check_counts, mc.n_paths, mc.n_steps, section="monte_carlo.")
        nodes = _checked(grid_indices, mc.checkpoints, mc.n_steps, section="monte_carlo.")
        mc.checkpoints = ((nodes / mc.n_steps).tolist() if mc.checkpoints is None
                          else [float(c) for c in mc.checkpoints])
        _checked(check_tube, mc.tube_level, mc.tube_resolution, section="monte_carlo.")
        if mc.seed is not None:
            _checked(check_seed, mc.seed, section="monte_carlo.")
        try:
            self.problem()
        except ConfigError:
            raise
        except (CovsteerError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid problem definition: {exc}") from exc

    def problem(self) -> SteeringProblem:
        """The problem this config defines, built again only after its definition changes."""
        key = json.dumps([self.system, self.sigma0, self.sigma1, self.epsilon], sort_keys=True)
        if self.__dict__.get("_problem_key") != key:
            self._problem, self._problem_key = build_problem(self), key
        return self._problem


def _check_fields(cls, raw, not_object: str, prefix: str) -> None:
    """Raise ConfigError unless raw is a dict with every required field of cls and no other."""
    if not isinstance(raw, dict):
        raise ConfigError(not_object)
    for f in fields(cls):
        if f.name not in raw and f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"missing required config field '{prefix}{f.name}'")
    known = {f.name for f in fields(cls)}
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config field '{prefix}{key}'")


def _checked(check, *args, section: str = ""):
    """check(*args), its DomainError raised again as a ConfigError naming the config path.

    The library's messages start with the field's name, so section (the path
    of the object holding the field, such as "monte_carlo.") completes it.
    """
    try:
        return check(*args)
    except DomainError as exc:
        raise ConfigError(f"{section}{exc}") from exc


def _coefficient(spec, path: str):
    if isinstance(spec, list):
        spec = {"kind": "constant", "value": spec}
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: coefficient must be a nested array or an object")
    kind = spec.get("kind")
    if kind not in ("constant", "piecewise", "sampled"):
        raise ConfigError(f"{path}: unknown coefficient kind '{kind}'")
    try:
        if kind == "constant":  # make_system takes the matrix itself and symmetrizes it once
            return constant_coefficient(spec["value"])(0.0)
        if kind == "piecewise":
            coef = piecewise_constant_coefficient(spec["breaks"], spec["values"])
        else:
            coef = sampled_coefficient(spec["times"], spec["values"])
        coef(0.0), coef(1.0)  # a table must cover the whole horizon
    except KeyError as exc:
        raise ConfigError(f"{path}: missing key {exc} for kind '{kind}'") from exc
    except (DomainError, TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return coef


def _matrix(value, path: str) -> np.ndarray:
    try:
        return np.array(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"{path}: {exc}") from exc


def build_problem(cfg: RunConfig) -> SteeringProblem:
    sysd = cfg.system
    if not isinstance(sysd, dict) or "A" not in sysd or "B" not in sysd:
        raise ConfigError("system: must be an object with at least 'A' and 'B'")
    sys_obj = make_system(
        _coefficient(sysd["A"], "system.A"),
        _coefficient(sysd["B"], "system.B"),
        _coefficient(sysd["Q"], "system.Q") if "Q" in sysd else None,
        _coefficient(sysd["R"], "system.R") if "R" in sysd else None,
    )
    return SteeringProblem(
        sys_obj,
        _matrix(cfg.sigma0, "sigma0"),
        _matrix(cfg.sigma1, "sigma1"),
        cfg.epsilon,
    )


def _inertial(name: str, q_scale: float, r: float = 1.0) -> dict:
    return {
        "name": name,
        "system": {
            "A": [[0.0, 1.0], [0.0, 0.0]],
            "B": [[0.0], [1.0]],
            "Q": [[q_scale, 0.0], [0.0, q_scale]],
            "R": [[r]],
        },
        "sigma0": [[2.0, 0.0], [0.0, 2.0]],
        "sigma1": [[0.25, 0.0], [0.0, 0.25]],
        "epsilon": 1.0,
        "grid_size": 2000,
    }


PRESETS: dict[str, dict] = {
    "scalar-trivial": {
        "name": "scalar-trivial",
        "system": {"A": [[0.0]], "B": [[1.0]], "Q": [[0.0]], "R": [[1.0]]},
        "sigma0": [[1.0]],
        "sigma1": [[1.0]],
        "epsilon": 1.0,
        "grid_size": 1000,
        "eps_list": [1.0, 0.1, 0.01, 0.0],
    },
    "inertial-q1": _inertial("inertial-q1", 1.0),
    "inertial-q10": _inertial("inertial-q10", 10.0),
    "inertial-qneg5": _inertial("inertial-qneg5", -5.0),
    "inertial-q0": _inertial("inertial-q0", 0.0),
    "inertial-r4": _inertial("inertial-r4", 1.0, r=4.0),
}


def load_config(args) -> RunConfig:
    if args.config is None and args.preset is None:
        raise ConfigError("either --config or --preset is required")
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config is not valid JSON: {exc}") from exc
    else:
        if args.preset not in PRESETS:
            raise ConfigError(
                f"unknown preset '{args.preset}' (available: {', '.join(sorted(PRESETS))})"
            )
        raw = json.loads(json.dumps(PRESETS[args.preset]))
    mc_raw = raw.get("monte_carlo", {}) if isinstance(raw, dict) else None
    if isinstance(mc_raw, dict):
        for key, flag in (("seed", "seed"), ("n_steps", "steps"), ("n_paths", "paths")):
            if getattr(args, flag, None) is not None:
                mc_raw[key] = getattr(args, flag)
        raw["monte_carlo"] = mc_raw
    return RunConfig.from_dict(raw)


# ---------------------------------------------------------------------------
# CSV emission

def _config_hash(cfg: RunConfig) -> str:
    blob = json.dumps(cfg.to_dict(), sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def _write_csv(path: Path, header: list[str], rows, cfg: RunConfig) -> None:
    """Write the header comment, the header and rows, an iterable of CRLF-ended data lines."""
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# covsteer {__version__} schema={SCHEMA_VERSION} config={_config_hash(cfg)}\r\n")
        fh.write(",".join(header) + "\r\n")
        for chunk in iter(lambda: "".join(islice(rows, CHUNK_ROWS)), ""):
            fh.write(chunk)


def _cells(values) -> list[str]:
    """Each of values (any array-like) as a %.17g string, formatted by one %."""
    values = np.asarray(values, dtype=float).ravel().tolist()
    return ("%.17g," * len(values) % tuple(values)).split(",")[:-1]


def _slots(count: int) -> str:
    return ",".join(["%.17g"] * count)


def _block_rows(keys: list[str], templates: list[str], values) -> Iterator[str]:
    """Data lines: per block b and template r, keys[b], then template r filled from values[b, r].

    values has shape (len(keys), len(templates), slots per template). Each
    chunk of at most CHUNK_ROWS lines is one template string filled by one %;
    the chunks are made lazily, and chain walks each chunk's lines in C.
    """
    values = np.asarray(values, dtype=float)
    tails = [f",{row}\r\n" for row in templates]
    per = min(len(tails), CHUNK_ROWS)  # a block longer than a chunk is split
    step = max(1, CHUNK_ROWS // len(tails))

    def chunk(b: int, r: int) -> list[str]:
        parts = [""] + tails[r:r + per]  # key.join(parts) is the block's text
        text = "".join([key.join(parts) for key in keys[b:b + step]])
        return (text % tuple(values[b:b + step, r:r + per].ravel().tolist())).splitlines(True)

    return chain.from_iterable(chunk(b, r) for b in range(0, len(keys), step)
                               for r in range(0, len(tails), per))


def _table_rows(keys: list[str], table: np.ndarray) -> Iterator[str]:
    """One data line per key: the key cell, then the matching row of the 2-D table."""
    return _block_rows(keys, [_slots(table.shape[1])], table[:, None])


def _make_out_dir(out_dir: Path) -> None:
    """Create out_dir and its parents, or raise ConfigError naming it."""
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"cannot create output directory '{out_dir}': {exc}") from exc


def _upper_triangle_header(prefix: str, n: int) -> list[str]:
    return [f"{prefix}_{i + 1}_{j + 1}" for i in range(n) for j in range(i, n)]


def _upper_triangle(stack: np.ndarray) -> np.ndarray:
    rows, cols = np.triu_indices(stack.shape[-1])  # row by row, as the header names them
    return stack[..., rows, cols]


# ---------------------------------------------------------------------------
# commands

def run_solve(cfg: RunConfig, out_dir: Path) -> dict:
    problem, solution = _solved(cfg, out_dir)
    _write_solution(cfg, out_dir, problem, solution)
    return {"solution": solution, "problem": problem}


def _solved(cfg: RunConfig, out_dir: Path):
    """The config's problem and its solution; out_dir is made before the solve."""
    problem = cfg.problem()
    _make_out_dir(out_dir)
    return problem, solve(problem, cfg.grid_size)


def _write_solution(cfg: RunConfig, out_dir: Path, problem, solution) -> list[str]:
    """Write gains.csv, pi.csv, h.csv, sigma.csv and report.txt; return the t column's cells."""
    n, m = problem.sys.dim_state, problem.sys.dim_input

    t = _cells(solution.grid)  # the key column of all four files, and of tube.csv
    tables = [("gains", [f"k_{i + 1}_{j + 1}" for i in range(m) for j in range(n)],
               solution.k.reshape(len(t), -1))]
    for label, arr in (("pi", solution.pi), ("h", solution.h), ("sigma", solution.sigma)):
        tables.append((label, _upper_triangle_header(label, n), _upper_triangle(arr)))
    for label, names, table in tables:
        _write_csv(out_dir / f"{label}.csv", ["t"] + names, _table_rows(t, table), cfg)

    escape_plus = solution.diagnostics["escape_plus"]
    escape_minus = solution.diagnostics["escape_minus"]
    lines = [
        f"covsteer {__version__} solve report ({cfg.name})",
        f"config hash: {_config_hash(cfg)}",
        f"epsilon: {problem.epsilon:.17g}",
        f"boundary residual t=0: {solution.boundary_residuals[0]:.17g}",
        f"boundary residual t=1: {solution.boundary_residuals[1]:.17g}",
        f"symplectic residual of Phi(1,0): {solution.diagnostics['symplectic_residual']:.17g}",
        f"branch: minus root selected; Pi(0) eigenvalues "
        f"{np.array2string(np.linalg.eigvalsh(solution.pi[0]), precision=6)}",
        f"escape scan (minus root): sign change={escape_minus.sign_change}, "
        f"min |det X|={escape_minus.min_abs_determinant:.17g}",
        f"escape scan (plus root):  sign change={escape_plus.sign_change}, "
        f"min |det X|={escape_plus.min_abs_determinant:.17g}",
    ]
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return t


def run_simulate(cfg: RunConfig, out_dir: Path) -> dict:
    """Solve, simulate and take the tube, and only then write every file.

    So a run that fails, out of memory included, writes nothing to out_dir.
    """
    if cfg.monte_carlo.seed is None:
        raise ConfigError("monte_carlo.seed is required for simulation")
    problem, solution = _solved(cfg, out_dir)
    mc = cfg.monte_carlo
    result = simulate(
        problem, solution, mc.n_paths, mc.n_steps, mc.seed, checkpoints=mc.checkpoints
    )
    n = problem.sys.dim_state
    tube = tolerance_tube(solution, mc.tube_level, mc.tube_resolution) if n == 2 else None
    grid_cells = _write_solution(cfg, out_dir, problem, solution)

    t = _cells(result.grid)
    _write_csv(
        out_dir / "paths.csv",
        ["path_id", "t"] + [f"x_{i + 1}" for i in range(n)],
        _block_rows(_cells(np.arange(result.n_paths)), [f"{c},{_slots(n)}" for c in t],
                    result.states),
        cfg,
    )
    _write_csv(out_dir / "empirical_cov.csv", ["t"] + _upper_triangle_header("cov", n),
               _table_rows(t, _upper_triangle(result.empirical_cov)), cfg)
    if tube is not None:
        level = _cells([mc.tube_level])[0]
        points = [f"{i},%.17g,%.17g,{level}" for i in _cells(np.arange(mc.tube_resolution))]
        _write_csv(out_dir / "tube.csv", ["t", "point_index", "z_1", "z_2", "level"],
                   _block_rows(grid_cells, points, tube), cfg)
    (out_dir / "cost.txt").write_text(
        f"cost estimate: {result.cost_estimate:.17g}\n"
        f"standard error: {result.cost_stderr:.17g}\n"
        f"paths: {result.n_paths}  steps: {mc.n_steps}  seed: {mc.seed}\n",
        encoding="utf-8",
    )
    return {"result": result, "solution": solution, "problem": problem}


def run_sweep(cfg: RunConfig, out_dir: Path) -> dict:
    if len(cfg.eps_list) == 0:
        raise ConfigError("eps_list must not be empty for sweep")
    _make_out_dir(out_dir)
    rows = epsilon_sweep(cfg.problem(), cfg.eps_list, cfg.grid_size)
    _write_csv(
        out_dir / "sweep.csv",
        ["epsilon", "pi0_gap", "boundary_residual_0", "boundary_residual_1"],
        _table_rows(_cells([row.epsilon for row in rows]),
                    np.array([[row.gap, *row.boundary_residuals] for row in rows])),
        cfg,
    )
    return {"rows": rows}


def run_verify(tol_scale: float = 1.0, seed: int = VERIFY_SEED, stream=None) -> int:
    """Batch property checks over the shipped presets; returns the exit code.

    Raises ConfigError unless tol_scale is finite and positive and seed is a
    valid stream key.
    """
    stream = stream or sys.stdout
    if not 0.0 < tol_scale < np.inf:
        raise ConfigError(f"--tol-scale must be finite and positive, got {tol_scale}")
    _checked(check_seed, seed, section="--")
    checks: list[tuple[str, bool, str]] = []

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 9))
        worst = max(worst, lemma1_residual(_random_spd(rng, dim), _random_spd(rng, dim)))
    tol = 1e-10 * tol_scale
    checks.append(("lemma1-identity", worst < tol, f"max residual {worst:.3e} (tol {tol:.1e})"))

    # one propagation per preset serves all of its checks, at 11 of its nodes
    for name in ("scalar-trivial", "inertial-q1", "inertial-q10", "inertial-qneg5", "inertial-q0"):
        cfg = RunConfig.from_dict(json.loads(json.dumps(PRESETS[name])))
        problem = cfg.problem()
        keep = thin_nodes(cfg.grid_size, 10)
        nodes = tuple(a[keep] for a in propagate(problem.sys, cfg.grid_size)[:2])
        phi1 = nodes[1][-1]
        if name != "inertial-q0":
            res = symplectic_residual(nodes[1])
            tol = 1e-9 * tol_scale
            checks.append((f"symplectic-residual:{name}", res < tol,
                           f"max residual {res:.3e} (tol {tol:.1e})"))
            roots = coupling_roots(problem.sigma0, problem.sigma1, phi1, problem.epsilon)
            for label, root, escapes in (("escape-plus-root", roots.z_plus, True),
                                         ("no-escape-minus-root", roots.z_minus, False)):
                scan = spurious_root_escape(problem, nodes, root)
                checks.append((f"{label}:{name}", scan.sign_change == escapes,
                               f"sign change={scan.sign_change}, "
                               f"min |det X|={scan.min_abs_determinant:.3e}"))
        if name in ("scalar-trivial", "inertial-q0"):
            pi0_ham, _ = initial_conditions(problem, phi1)
            pi0_gram, _ = corollary_q_zero(problem, cfg.grid_size)
            gap = float(np.abs(pi0_ham - pi0_gram).max())
            tol = 1e-8 * tol_scale
            checks.append((f"gramian-route-equivalence:{name}", gap < tol,
                           f"gap {gap:.3e} (tol {tol:.1e})"))

    for name, ok, detail in checks:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}", file=stream)
    return 0 if all(ok for _, ok, _ in checks) else 3


def _random_spd(rng: np.random.Generator, dim: int) -> np.ndarray:
    """A random SPD matrix of condition number at most 1e4."""
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    spread = rng.uniform(1.0, 1e4)
    eigs = np.exp(rng.uniform(0.0, np.log(spread), dim))
    return (q * eigs) @ q.T


# ---------------------------------------------------------------------------
# entry point

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="covsteer",
        description="Steer a linear stochastic system between Gaussian covariances.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("solve", "solve the steering problem and emit trajectory CSVs"),
        ("simulate", "solve, then Monte Carlo validate the closed loop"),
        ("sweep", "solve across a list of noise intensities"),
        ("verify", "run the built-in property suites"),
    ):
        p = sub.add_parser(name, help=help_text)
        if name == "verify":
            p.add_argument("--seed", type=int, default=VERIFY_SEED)
            p.add_argument("--tol-scale", type=float, default=1.0,
                           help="multiply every verify tolerance by this factor")
            continue
        p.add_argument("--config", help="path to a JSON run configuration")
        p.add_argument("--preset", help=f"named preset ({', '.join(sorted(PRESETS))})")
        p.add_argument("--out", default="out", help="output directory (default: ./out)")
        if name == "simulate":
            p.add_argument("--seed", type=int, help="override monte_carlo.seed")
            p.add_argument("--steps", type=int, help="override monte_carlo.n_steps")
            p.add_argument("--paths", type=int, help="override monte_carlo.n_paths")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help (code 0) or a usage error
        return 1 if exc.code else 0
    try:
        if args.command == "verify":
            return run_verify(args.tol_scale, args.seed)
        cfg = load_config(args)
        out_dir = Path(args.out)
        if args.command == "solve":
            run_solve(cfg, out_dir)
        elif args.command == "simulate":
            run_simulate(cfg, out_dir)
        elif args.command == "sweep":
            run_sweep(cfg, out_dir)
        return 0
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except CovsteerError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:  # numpy names the size it could not allocate
        print(f"memory error: {exc}", file=sys.stderr)
        return 4


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
