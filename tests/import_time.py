"""Time an import of covsteer.cli, cold and warm, and the part spent building classes.

Run it from the repository root:

    python tests/import_time.py [src] [--runs N]

src is the directory that holds the covsteer package (default src). The
package is copied into a temporary directory, and one interpreter per mode
imports it N + 1 times, dropping every covsteer module from sys.modules
before each import, as perfbench's set-up does. The first import is not
timed: it loads numpy and the standard-library modules covsteer uses, so the
times are those of covsteer's own modules.

- cold: no bytecode is cached or written, so every import compiles each
  covsteer module from source, as under PYTHONDONTWRITEBYTECODE=1 in a
  checkout without __pycache__;
- warm: the first import writes the copy's __pycache__, and the timed ones
  read it, as after an install.

"classes" is the time spent in class statements of covsteer modules: the
class body and its metaclass (a NamedTuple is built there), plus the
dataclass decorator's processing of a covsteer class. The script prints the
median of the N timed imports of each mode, in milliseconds. It is not a
test, and pytest does not collect it.
"""

from __future__ import annotations

import argparse
import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

CHILD = r"""
import builtins, gc, json, statistics, sys, time
import dataclasses

sys.dont_write_bytecode = {dont_write}
sys.path.insert(0, {src!r})
spent = [0.0]
depth = [0]


def timed(build):
    def wrapper(*args, **kwargs):
        depth[0] += 1
        start = time.perf_counter()
        try:
            return build(*args, **kwargs)
        finally:
            depth[0] -= 1
            if depth[0] == 0 and args[0].__module__.split(".")[0] == "covsteer":
                spent[0] += time.perf_counter() - start  # args[0]: class body or class
    return wrapper


def fresh_import():
    for name in [n for n in sys.modules if n.split(".")[0] == "covsteer"]:
        del sys.modules[name]
    gc.collect()
    spent[0] = 0.0
    start = time.perf_counter()
    import covsteer.cli
    assert covsteer.cli.__file__.startswith({src!r}), covsteer.cli.__file__
    return time.perf_counter() - start, spent[0]


builtins.__build_class__ = timed(builtins.__build_class__)
dataclasses._process_class = timed(dataclasses._process_class)
fresh_import()  # imports numpy and the standard-library modules covsteer uses
runs = [fresh_import() for _ in range({runs})]
print(json.dumps([statistics.median(r[i] for r in runs) for i in (0, 1)]))
"""


def medians(src: Path, cached: bool, runs: int) -> list[float]:
    """Median seconds of a whole import of covsteer.cli and of its class statements."""
    code = CHILD.format(src=str(src), dont_write=not cached, runs=runs)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True)
    return [1e3 * t for t in json.loads(proc.stdout)]


def main(argv: list[str]) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", nargs="?", default="src")
    parser.add_argument("--runs", type=int, default=51)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "src"
        shutil.copytree(Path(args.src) / "covsteer", copy / "covsteer",
                        ignore=shutil.ignore_patterns("__pycache__"))
        cold = medians(copy, cached=False, runs=args.runs)
        warm = medians(copy, cached=True, runs=args.runs)  # its first import writes the cache
    print(f"import covsteer.cli, median of {args.runs} imports (ms)")
    print(f"{'':<8}{'total':>10}{'classes':>10}")
    for name, (total, classes) in (("cold", cold), ("warm", warm)):
        print(f"{name:<8}{total:>10.2f}{classes:>10.2f}")


if __name__ == "__main__":
    main(sys.argv[1:])
