"""Count the code lines of each module of ``src/fuzzyci``.

A code line is a line that holds some token other than a comment and is
not part of a docstring: the string literal that opens a module, class or
function body.  Blank lines, comment lines and docstring lines are skipped.

Usage: ``python tools/code_lines.py``.  It prints one
``<count> <module>`` line per module, sorted by name, then ``<count> total``,
then ``<count> tests/oracles.py``, the tests' independent reference routes,
not added to the total: code that leaves ``src/`` for them shows there.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).parent.parent
PACKAGE = ROOT / "src" / "fuzzyci"
ORACLES = ROOT / "tests" / "oracles.py"

_NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(
            node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)
        ):
            continue
        body = node.body
        if (
            body
            and isinstance(body[0], ast.Expr)
            and isinstance(body[0].value, ast.Constant)
            and isinstance(body[0].value.value, str)
        ):
            lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in _NON_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:5d} {path.name}")
    print(f"{total:5d} total")
    print(f"{code_lines(ORACLES.read_text(encoding='utf-8')):5d} tests/oracles.py")
    return 0


if __name__ == "__main__":
    sys.exit(main())
