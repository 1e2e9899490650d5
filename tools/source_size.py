"""Physical lines and code lines of each module of ``src/hsckit``, and their totals.

Usage (from the root of a checkout):

    python3 tools/source_size.py

A code line is a line that is not blank, is not a comment-only line and is
not inside a docstring.  A docstring is the string literal that opens a
module, a class or a function.  Only the standard library is used, so the
script runs without the package's dependencies.
"""

from __future__ import annotations

import ast
from pathlib import Path

SOURCE = Path(__file__).resolve().parent.parent / "src" / "hsckit"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The 1-based numbers of the lines each docstring of the tree spans."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def measure(path: Path) -> tuple[int, int]:
    """(physical lines, code lines) of one source file."""
    text = path.read_text()
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text))
    code = sum(
        1
        for number, line in enumerate(lines, 1)
        if line.strip() and not line.strip().startswith("#") and number not in docs
    )
    return len(lines), code


def main() -> None:
    rows = [(path.stem, *measure(path)) for path in sorted(SOURCE.glob("*.py"))]
    rows.sort(key=lambda row: -row[2])
    print(f"{'module':<12} {'lines':>6} {'code':>6}")
    for name, physical, code in rows:
        print(f"{name:<12} {physical:>6,} {code:>6,}")
    print(f"{'total':<12} {sum(row[1] for row in rows):>6,} {sum(row[2] for row in rows):>6,}")


if __name__ == "__main__":
    main()
