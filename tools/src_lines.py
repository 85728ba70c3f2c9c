"""Print the total and code lines of each ``src/convreg`` module.

Code lines leave out docstrings (module, class and function docstrings, found
with ``ast``), comment-only lines and blank lines (found with ``tokenize``).
A line that holds code and a trailing comment counts as code.

Usage: ``python tools/src_lines.py`` from anywhere; it reads the modules next
to this script's repository root.  It only reports and always exits 0.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "convreg"
NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers spanned by every module, class and function docstring."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (
                body
                and isinstance(body[0], ast.Expr)
                and isinstance(body[0].value, ast.Constant)
                and isinstance(body[0].value.value, str)
            ):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def count(source: str) -> tuple[int, int]:
    """``(total lines, code lines)`` of one module's source."""
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code - docstring_lines(ast.parse(source)))


def main() -> None:
    totals = [0, 0]
    print(f"{'module':<16} {'total':>6} {'code':>6}")
    for path in sorted(SRC.glob("*.py")):
        total, code = count(path.read_text())
        totals[0] += total
        totals[1] += code
        print(f"{path.name:<16} {total:>6} {code:>6}")
    print(f"{'all':<16} {totals[0]:>6} {totals[1]:>6}")


if __name__ == "__main__":
    main()
