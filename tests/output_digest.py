"""Print one SHA-256 per group of covsteer's outputs, to show that a change keeps them.

Run it from the repository root, on two trees, and compare the lines:

    python tests/output_digest.py

The groups are:

- solve: Pi, H, Sigma, K and the escape_minus determinants of every
  perfbench ``solve`` case at seeds 1 and 2, built by
  ``perfbench/harness.Solve().build`` and solved at its grid;
- cli: every file, stdout, stderr and exit code of ``solve``, ``sweep`` and
  ``simulate --seed 7 --steps 37 --paths 50`` on every preset;
- verify: the stdout, stderr and exit code of ``verify``;
- mc: ``simulate`` and ``cost_gap`` on the inertial system with Q = I at
  eps in {0, 0.3, 1} and R in {0.5, 1, 4}, with 37 and 1000 steps.

An error is hashed as its type and message. Outputs go to temporary
directories only. The script is not a test, and pytest does not collect it.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import covsteer as cs  # noqa: E402
import harness  # noqa: E402
from covsteer import cli  # noqa: E402


def _feed(h, value) -> None:
    """Hash value: an array by dtype, shape and bytes, a float by its hex, else its repr."""
    if isinstance(value, np.ndarray):
        h.update(f"{value.dtype}{value.shape}".encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, float):
        h.update(value.hex().encode())
    elif isinstance(value, (tuple, list)):
        for v in value:
            _feed(h, v)
    else:
        h.update(repr(value).encode())


def _outcome(fn):
    """fn()'s value, or an error as (type name, message)."""
    try:
        return fn()
    except cs.CovsteerError as exc:
        return (type(exc).__name__, str(exc))


def solve_digest(h) -> None:
    for seed in (1, 2):
        for label, problem, _ in harness.Solve().build(cs, seed)["cases"]:
            sol = _outcome(lambda: cs.solve(problem, harness.GRID))
            _feed(h, label)
            if isinstance(sol, tuple):
                _feed(h, sol)
            else:
                _feed(h, [sol.pi, sol.h, sol.sigma, sol.k,
                          sol.diagnostics["escape_minus"].determinants])


def _run_cli(h, argv: list[str], out_dir: str | None = None) -> None:
    """Hash argv, then run it with --out out_dir, if given, and hash its streams and code."""
    out, err = io.StringIO(), io.StringIO()
    _feed(h, " ".join(argv))  # not out_dir, which is a new name each run
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv if out_dir is None else [*argv, "--out", out_dir])
    _feed(h, [out.getvalue(), err.getvalue(), code])


def cli_digest(h) -> None:
    for preset in sorted(cli.PRESETS):
        for command in (["solve"], ["sweep"],
                        ["simulate", "--seed", "7", "--steps", "37", "--paths", "50"]):
            with tempfile.TemporaryDirectory() as tmp:
                _run_cli(h, [*command, "--preset", preset], tmp)
                for path in sorted(Path(tmp).rglob("*")):
                    if path.is_file():
                        _feed(h, [path.relative_to(tmp).as_posix(), path.read_bytes()])


def verify_digest(h) -> None:
    _run_cli(h, ["verify"])


def mc_digest(h) -> None:
    for r in (0.5, 1.0, 4.0):
        sys_ = cs.make_system([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], np.eye(2), [[r]])
        for eps in (0.0, 0.3, 1.0):
            problem = cs.SteeringProblem(sys_, 2 * np.eye(2), 0.25 * np.eye(2), eps)
            sol = cs.solve(problem, 200)
            for steps in (37, 1000):
                sim = cs.simulate(problem, sol, 200, steps, 3)
                _feed(h, [sim.grid, sim.states, sim.empirical_cov, sim.costs,
                          sim.cost_estimate, sim.cost_stderr])
                _feed(h, list(cs.cost_gap(problem, sol, 0.1, 200, steps, 3)))


def main() -> None:
    for name, digest in (("solve", solve_digest), ("cli", cli_digest),
                         ("verify", verify_digest), ("mc", mc_digest)):
        h = hashlib.sha256()
        digest(h)
        print(f"{name:8s}{h.hexdigest()}")


if __name__ == "__main__":
    main()
