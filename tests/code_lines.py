"""Count the code, docstring, comment-only and blank lines and the bytes of each covsteer module.

Run it from the repository root:

    python tests/code_lines.py [src/covsteer]

Every physical line falls in exactly one class, tested in this order:

- code: it holds part of a token that is neither a comment nor a docstring;
- docstring: it holds part of a string that is a statement by itself (a
  module, class or function docstring, or any other bare string);
- comment: it holds a comment and nothing else;
- blank: it holds no token.

The last column is the size of the file in bytes, which is what an import
that cannot use cached bytecode has to compile.

The script reads the files with the standard library's tokenize and ast
only; it is not a test, and pytest does not collect it.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

CLASSES = ("code", "docstrings", "comments", "blank")
COLUMNS = (*CLASSES, "bytes")
SKIP = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def count(path: Path) -> dict[str, int]:
    """The number of lines of path in each of CLASSES, and its size in bytes."""
    source = path.read_text(encoding="utf-8")
    docstrings = {(node.lineno, node.col_offset) for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                  and isinstance(node.value.value, str)}
    kinds: dict[int, set[str]] = {}
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in SKIP:
            continue
        if tok.type == tokenize.COMMENT:
            kind = "comments"
        elif tok.type == tokenize.STRING and tok.start in docstrings:
            kind = "docstrings"
        else:
            kind = "code"
        for line in range(tok.start[0], tok.end[0] + 1):
            kinds.setdefault(line, set()).add(kind)
    totals = dict.fromkeys(CLASSES, 0)
    for line in range(1, len(source.splitlines()) + 1):
        found = kinds.get(line, set())
        totals[next((k for k in CLASSES[:3] if k in found), "blank")] += 1
    totals["bytes"] = path.stat().st_size
    return totals


def main(argv: list[str]) -> None:
    root = Path(argv[0] if argv else "src/covsteer")
    rows = [(path.name, count(path)) for path in sorted(root.glob("*.py"))]
    rows.append(("total", {k: sum(row[k] for _, row in rows) for k in COLUMNS}))
    print(f"{'module':<16}" + "".join(f"{k:>12}" for k in COLUMNS))
    for name, row in rows:
        print(f"{name:<16}" + "".join(f"{row[k]:>12}" for k in COLUMNS))


if __name__ == "__main__":
    main(sys.argv[1:])
