"""Count the lines of ``src/pulsehit`` that hold code.

A line holds code when a token other than a comment, a line break or an
indentation change sits on it; docstrings (the string that opens a
module, class or function body) are not code.  Each module's count is
printed next to its ``wc -l`` line count, then the totals::

    python tests/code_lines.py [directory]

The directory defaults to ``src/pulsehit`` of this repository.  Only the
standard library is used.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "pulsehit"

_LAYOUT = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
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


def code_lines(path: Path) -> int:
    """The number of lines of the module at ``path`` that hold code."""
    text = path.read_text(encoding="utf-8")
    lines = set()
    with path.open("rb") as f:
        for tok in tokenize.tokenize(f.readline):
            if tok.type not in _LAYOUT:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(text)))


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else SRC
    total_code = total_wc = 0
    print(f"{'module':<16} {'code':>6} {'wc -l':>6}")
    for path in sorted(root.glob("*.py")):
        code = code_lines(path)
        wc = path.read_bytes().count(b"\n")
        total_code += code
        total_wc += wc
        print(f"{path.name:<16} {code:>6} {wc:>6}")
    print(f"{'total':<16} {total_code:>6} {total_wc:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
