"""Count the lines of each module of ``src/tugpricer``.

Usage: ``python3 tools/codelines.py [package_dir]``

Prints, per module and in total, all lines and the code lines: lines that hold
a token which is neither a comment nor part of a docstring (the string that
opens a module, class or function body).  Blank lines are not code.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.Module) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int]:
    """(all lines, code lines) of one Python file."""
    source = path.read_text()
    docs = _docstring_lines(ast.parse(source))
    code: set[int] = set()
    with path.open("rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type not in _SKIP:
                code.update(line for line in range(tok.start[0], tok.end[0] + 1)
                            if line not in docs)
    return len(source.splitlines()), len(code)


def main(argv: list[str]) -> int:
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1] / "src" / "tugpricer"
    total = code = 0
    print(f"{'module':<16}{'lines':>7}{'code':>7}")
    for path in sorted(root.glob("*.py")):
        lines, body = count(path)
        total, code = total + lines, code + body
        print(f"{path.name:<16}{lines:>7}{body:>7}")
    print(f"{'total':<16}{total:>7}{code:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
