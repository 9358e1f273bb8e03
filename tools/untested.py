"""List the statements of ``src/tugpricer`` that no test executes.

Usage: ``python3 tools/untested.py [pytest arguments]``

Runs pytest in this process (on ``tests/`` when given no arguments) with a
line tracer on every thread, set by ``sys.settrace`` and
``threading.settrace``, then prints each statement of the package that never
ran as ``file:line``, in file order, after pytest's own output; the exit code
is pytest's.  Code that runs only in a child process, such as the CLI
subprocess tests, counts as not run.  Tracing makes the suite slower, by
about a quarter for this one.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tugpricer"


def make_tracer(root) -> tuple:
    """``(tracer, hits)``: a trace function for ``sys.settrace`` and
    ``threading.settrace`` that records, in ``hits[real path]``, the line of
    every line event in a file under ``root``."""
    prefix = os.path.realpath(root) + os.sep
    hits: dict[str, set[int]] = {}
    files: dict[str, set[int] | None] = {}  # co_filename -> its hit set, None if not ours

    def tracer(frame, event, arg):
        name = frame.f_code.co_filename
        if name is None:  # seen on frames run at interpreter exit
            return None
        if name not in files:
            real = os.path.realpath(name)
            files[name] = hits.setdefault(real, set()) if real.startswith(prefix) else None
        lines = files[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    return tracer, hits


def statements(path) -> dict[int, range]:
    """{first line: the lines that show it ran} for each statement of a module.

    A simple statement shows on any of its lines; a compound one on its
    head, from its first decorator to the line before its body.  Docstrings
    and other bare strings, ``global`` and ``nonlocal`` run no code and are
    left out.
    """
    out = {}
    for node in ast.walk(ast.parse(Path(path).read_text(), str(path))):
        if (not isinstance(node, ast.stmt) or isinstance(node, (ast.Global, ast.Nonlocal))
                or isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
                and isinstance(node.value.value, str)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = body[0].lineno - 1 if isinstance(body, list) else node.end_lineno
        out[first] = range(first, max(first, last) + 1)
    return out


def untested(root, hits: dict[str, set[int]]) -> list[str]:
    """``file:line`` of each statement under ``root`` that no recorded line shows
    ran, the file relative to ``root``'s parent."""
    root = Path(os.path.realpath(root))
    out = []
    for path in sorted(root.rglob("*.py")):
        ran = hits.get(str(path), set())
        out += [f"{path.relative_to(root.parent)}:{first}"
                for first, span in sorted(statements(path).items()) if ran.isdisjoint(span)]
    return out


def main(argv: list[str]) -> int:
    import pytest

    src = str(PACKAGE.parent)  # the package under test, here and in child processes
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    tracer, hits = make_tracer(PACKAGE)
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(argv or ["-q", "-p", "no:cacheprovider", str(ROOT / "tests")])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    print("\n".join(untested(PACKAGE, hits)))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
