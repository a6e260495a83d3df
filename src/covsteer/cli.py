"""Command-line workflows: solve / simulate / sweep / verify.

Configuration is a single JSON document (matrices as row-major nested
arrays); a handful of presets are shipped embedded. All numeric output is
CSV (UTF-8, '.' decimal, 17 significant digits) plus plain-text reports,
intended for external plotting. Exit codes: 0 ok, 1 config error, 2 solver
error, 3 verify failure.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from dataclasses import MISSING, asdict, dataclass, field, fields
from itertools import islice
from pathlib import Path

import numpy as np

from . import __version__
from .bridge import (
    SteeringProblem,
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
from .integrate import grid_indices, thin_nodes
from .monte_carlo import check_seed, check_tube, simulate, tolerance_tube
from .systems import (
    constant_coefficient,
    make_system,
    piecewise_constant_coefficient,
    sampled_coefficient,
)

SCHEMA_VERSION = 1
VERIFY_SEED = 20260826  # default seed of verify's random lemma-1 draws


# ---------------------------------------------------------------------------
# configuration

@dataclass
class MonteCarloConfig:
    n_paths: int = 5000
    n_steps: int = 1000
    seed: int | None = None
    checkpoints: list[float] = field(default_factory=lambda: [i / 10 for i in range(11)])
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
        mc = cfg.monte_carlo
        for key in ("n_paths", "n_steps", "tube_resolution"):
            _integer(getattr(mc, key), f"monte_carlo.{key}")
        if mc.seed is not None:
            _integer(mc.seed, "monte_carlo.seed")
        _number(mc.tube_level, "monte_carlo.tube_level")
        _numbers(mc.checkpoints, "monte_carlo.checkpoints")
        cfg.name = str(cfg.name)
        cfg.epsilon = _number(cfg.epsilon, "epsilon")
        cfg.grid_size = _integer(cfg.grid_size, "grid_size")
        cfg.eps_list = _numbers(cfg.eps_list, "eps_list")
        cfg.validate()
        return cfg

    def to_dict(self) -> dict:
        return asdict(self)

    def validate(self) -> None:
        if self.grid_size < 1:
            raise ConfigError("grid_size must be positive")
        if not 0.0 <= self.epsilon < np.inf:
            raise ConfigError("epsilon must be finite and nonnegative")
        if not all(0.0 <= e < np.inf for e in self.eps_list):
            raise ConfigError("eps_list entries must be finite and nonnegative")
        if any(b > a for a, b in zip(self.eps_list, self.eps_list[1:])):
            raise ConfigError("eps_list must be sorted descending")
        mc = self.monte_carlo
        if mc.n_paths < 2:
            raise ConfigError("monte_carlo.n_paths must be at least 2")
        if mc.n_steps < 1:
            raise ConfigError("monte_carlo.n_steps must be positive")
        try:
            grid_indices(mc.checkpoints, np.linspace(0.0, 1.0, mc.n_steps + 1))
        except DomainError as exc:
            raise ConfigError(f"monte_carlo.checkpoints: {exc}") from exc
        try:
            check_tube(mc.tube_level, mc.tube_resolution)
            if mc.seed is not None:
                check_seed(mc.seed)
        except DomainError as exc:  # the message starts with the field's name
            raise ConfigError(f"monte_carlo.{exc}") from exc
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


def _integer(value, path: str) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path} must be an integer, got {value!r}")
    return value


def _number(value, path: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path} must be a number, got {value!r}")
    return float(value)


def _numbers(values, path: str) -> list[float]:
    if not isinstance(values, list):
        raise ConfigError(f"{path} must be a list of numbers")
    return [_number(v, f"{path}[{i}]") for i, v in enumerate(values)]


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


def _inertial(q_scale: float, **overrides) -> dict:
    base = {
        "system": {
            "A": [[0.0, 1.0], [0.0, 0.0]],
            "B": [[0.0], [1.0]],
            "Q": [[q_scale, 0.0], [0.0, q_scale]],
            "R": [[1.0]],
        },
        "sigma0": [[2.0, 0.0], [0.0, 2.0]],
        "sigma1": [[0.25, 0.0], [0.0, 0.25]],
        "epsilon": 1.0,
        "grid_size": 2000,
    }
    base.update(overrides)
    return base


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
    "inertial-q1": dict(_inertial(1.0), name="inertial-q1"),
    "inertial-q10": dict(_inertial(10.0), name="inertial-q10"),
    "inertial-qneg5": dict(_inertial(-5.0), name="inertial-qneg5"),
    "inertial-q0": dict(_inertial(0.0), name="inertial-q0"),
    "inertial-r4": dict(_inertial(1.0), name="inertial-r4"),
}
PRESETS["inertial-r4"]["system"]["R"] = [[4.0]]


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
    """Write rows (a 2-D array or any iterable of rows) 1024 at a time, each cell as %.17g."""
    line = ",".join(["%.17g"] * len(header)) + "\r\n"
    rows = iter(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(f"# covsteer {__version__} schema={SCHEMA_VERSION} config={_config_hash(cfg)}\r\n")
        fh.write(",".join(header) + "\r\n")
        for chunk in iter(lambda: list(islice(rows, 1024)), []):
            fh.write((line * len(chunk)) % tuple(np.asarray(chunk, dtype=float).ravel().tolist()))


def _upper_triangle_header(prefix: str, n: int) -> list[str]:
    return [f"{prefix}_{i + 1}_{j + 1}" for i in range(n) for j in range(i, n)]


def _upper_triangle(stack: np.ndarray) -> np.ndarray:
    rows, cols = np.triu_indices(stack.shape[-1])  # row by row, as the header names them
    return stack[..., rows, cols]


# ---------------------------------------------------------------------------
# commands

def run_solve(cfg: RunConfig, out_dir: Path) -> dict:
    problem = cfg.problem()
    solution = solve(problem, cfg.grid_size)
    n, m = problem.sys.dim_state, problem.sys.dim_input
    out_dir.mkdir(parents=True, exist_ok=True)

    _write_csv(
        out_dir / "gains.csv",
        ["t"] + [f"k_{i + 1}_{j + 1}" for i in range(m) for j in range(n)],
        np.column_stack([solution.grid, solution.k.reshape(len(solution.grid), -1)]),
        cfg,
    )
    for label, arr in (("pi", solution.pi), ("h", solution.h), ("sigma", solution.sigma)):
        _write_csv(
            out_dir / f"{label}.csv",
            ["t"] + _upper_triangle_header(label, n),
            np.column_stack([solution.grid, _upper_triangle(arr)]),
            cfg,
        )

    escape_plus = solution.diagnostics["escape_plus"]
    escape_minus = solution.diagnostics["escape_minus"]
    lines = [
        f"covsteer {__version__} solve report ({cfg.name})",
        f"config hash: {_config_hash(cfg)}",
        f"epsilon: {problem.epsilon:.17g}",
        f"boundary residual t=0: {solution.boundary_residuals[0]:.17g}",
        f"boundary residual t=1: {solution.boundary_residuals[1]:.17g}",
        f"symplectic residual of Phi(1,0): {solution.diagnostics['symplectic_residual']:.17g}",
    ]
    if "sum_law_residual" in solution.diagnostics:
        lines.append(f"sum-law residual (max over grid): "
                     f"{solution.diagnostics['sum_law_residual']:.17g}")
    lines += [
        f"branch: minus root selected; Pi(0) eigenvalues "
        f"{np.array2string(np.linalg.eigvalsh(solution.pi[0]), precision=6)}",
        f"escape scan (minus root): sign change={escape_minus.sign_change}, "
        f"min |det X|={escape_minus.min_abs_determinant:.17g}",
        f"escape scan (plus root):  sign change={escape_plus.sign_change}, "
        f"min |det X|={escape_plus.min_abs_determinant:.17g}",
    ]
    (out_dir / "report.txt").write_text("\n".join(lines) + "\n", encoding="utf-8")
    return {"solution": solution, "problem": problem}


def run_simulate(cfg: RunConfig, out_dir: Path) -> dict:
    if cfg.monte_carlo.seed is None:
        raise ConfigError("monte_carlo.seed is required for simulation")
    ctx = run_solve(cfg, out_dir)
    problem, solution = ctx["problem"], ctx["solution"]
    mc = cfg.monte_carlo
    result = simulate(
        problem, solution, mc.n_paths, mc.n_steps, mc.seed, checkpoints=mc.checkpoints
    )
    n = problem.sys.dim_state

    _write_csv(
        out_dir / "paths.csv",
        ["path_id", "t"] + [f"x_{i + 1}" for i in range(n)],
        np.column_stack([np.repeat(np.arange(result.n_paths), len(result.grid)),
                         np.tile(result.grid, result.n_paths), result.states.reshape(-1, n)]),
        cfg,
    )
    _write_csv(
        out_dir / "empirical_cov.csv",
        ["t"] + _upper_triangle_header("cov", n),
        np.column_stack([result.grid, _upper_triangle(result.empirical_cov)]),
        cfg,
    )
    if n == 2:
        tube = tolerance_tube(solution, mc.tube_level, mc.tube_resolution)
        _write_csv(out_dir / "tube.csv", ["t", "point_index", "z_1", "z_2", "level"],
                   ([t, i, *z, mc.tube_level] for t, points in zip(solution.grid.tolist(), tube)
                    for i, z in enumerate(points.tolist())), cfg)
    (out_dir / "cost.txt").write_text(
        f"cost estimate: {result.cost_estimate:.17g}\n"
        f"standard error: {result.cost_stderr:.17g}\n"
        f"paths: {result.n_paths}  steps: {mc.n_steps}  seed: {mc.seed}\n",
        encoding="utf-8",
    )
    return {"result": result, **ctx}


def run_sweep(cfg: RunConfig, out_dir: Path) -> dict:
    if len(cfg.eps_list) == 0:
        raise ConfigError("eps_list must not be empty for sweep")
    rows = epsilon_sweep(cfg.problem(), cfg.eps_list, cfg.grid_size)
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_csv(
        out_dir / "sweep.csv",
        ["epsilon", "pi0_gap", "boundary_residual_0", "boundary_residual_1"],
        ([row.epsilon, row.gap, *row.boundary_residuals] for row in rows),
        cfg,
    )
    return {"rows": rows}


def run_verify(tol_scale: float = 1.0, seed: int = VERIFY_SEED,
               debug_plus_branch: bool = False, stream=None) -> int:
    """Batch property checks over the shipped presets; returns the exit code.

    Raises ConfigError unless tol_scale is finite and positive and seed is a
    valid stream key.
    """
    stream = stream or sys.stdout
    if not 0.0 < tol_scale < np.inf:
        raise ConfigError(f"--tol-scale must be finite and positive, got {tol_scale}")
    try:
        check_seed(seed)
    except DomainError as exc:  # the message starts with "seed"
        raise ConfigError(f"--{exc}") from exc
    checks: list[tuple[str, bool, str]] = []

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(100):
        dim = int(rng.integers(1, 9))
        worst = max(worst, lemma1_residual(_random_spd(rng, dim), _random_spd(rng, dim)))
    tol = 1e-10 * tol_scale
    checks.append(("lemma1-identity", worst < tol, f"max residual {worst:.3e} (tol {tol:.1e})"))

    # one propagation per preset serves all of its checks, at 11 of its nodes
    runs = {}
    for name in ("scalar-trivial", "inertial-q1", "inertial-q10", "inertial-qneg5", "inertial-q0"):
        cfg = RunConfig.from_dict(json.loads(json.dumps(PRESETS[name])))
        problem = cfg.problem()
        keep = thin_nodes(cfg.grid_size, 10)
        # one expression, so the full stack is not kept into the next iteration
        runs[name] = (cfg, problem, tuple(
            a[keep] for a in propagate(problem.sys, 0.0, 1.0, cfg.grid_size)))

    for name in ("scalar-trivial", "inertial-q1", "inertial-q10", "inertial-qneg5"):
        _, problem, nodes = runs[name]
        res = symplectic_residual(nodes[1])
        tol = 1e-9 * tol_scale
        checks.append(
            (f"symplectic-residual:{name}", res < tol, f"max residual {res:.3e} (tol {tol:.1e})")
        )
        roots = coupling_roots(problem.sigma0, problem.sigma1, nodes[1][-1], problem.epsilon)
        plus = spurious_root_escape(problem, nodes, roots.z_plus)
        minus = spurious_root_escape(problem, nodes, roots.z_minus)
        checks.append(
            (f"escape-plus-root:{name}", plus.sign_change,
             f"sign change={plus.sign_change}, min |det X|={plus.min_abs_determinant:.3e}")
        )
        checks.append(
            (f"no-escape-minus-root:{name}", not minus.sign_change,
             f"sign change={minus.sign_change}, min |det X|={minus.min_abs_determinant:.3e}")
        )

    for name in ("scalar-trivial", "inertial-q0"):
        cfg, problem, nodes = runs[name]
        pi0_ham, _ = initial_conditions(problem, nodes[1][-1])
        pi0_gram, _ = corollary_q_zero(problem, cfg.grid_size)
        gap = float(np.abs(pi0_ham - pi0_gram).max())
        tol = 1e-8 * tol_scale
        checks.append(
            (f"gramian-route-equivalence:{name}", gap < tol, f"gap {gap:.3e} (tol {tol:.1e})")
        )

    failed = False
    for name, ok, detail in checks:
        tag = "PASS" if ok else "FAIL"
        print(f"{tag} {name}: {detail}", file=stream)
        if not ok:
            failed = True
    if debug_plus_branch:
        _, problem, nodes = runs["scalar-trivial"]
        roots = coupling_roots(problem.sigma0, problem.sigma1, nodes[1][-1], problem.epsilon)
        plus = spurious_root_escape(problem, nodes, roots.z_plus)
        print(
            f"EXPECTED-FAIL forced-plus-branch: determinant sign change "
            f"{plus.sign_change} (interior singularity of the linearized flow)",
            file=stream,
        )
    return 3 if failed else 0


def _random_spd(rng: np.random.Generator, dim: int, cond_max: float = 1e4) -> np.ndarray:
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    spread = rng.uniform(1.0, cond_max)
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
        if name != "verify":
            p.add_argument("--config", help="path to a JSON run configuration")
            p.add_argument("--preset", help=f"named preset ({', '.join(sorted(PRESETS))})")
            p.add_argument("--out", default="out", help="output directory (default: ./out)")
            p.add_argument("--seed", type=int, help="override monte_carlo.seed")
            p.add_argument("--steps", type=int, help="override monte_carlo.n_steps")
            p.add_argument("--paths", type=int, help="override monte_carlo.n_paths")
        else:
            p.add_argument("--seed", type=int, default=VERIFY_SEED)
            p.add_argument("--tol-scale", type=float, default=1.0,
                           help="multiply every verify tolerance by this factor")
            p.add_argument("--debug-plus-branch", action="store_true",
                           help="also show the escape diagnostic on the spurious root")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "verify":
            return run_verify(args.tol_scale, args.seed, args.debug_plus_branch)
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


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
