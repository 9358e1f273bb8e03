"""The repository's own tools, run as scripts on inputs each test writes."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

CODELINES = Path(__file__).resolve().parents[1] / "tools" / "codelines.py"

# line by line: docstrings, comments and blank lines are not code; every
# line of a multi-line call or of a string that is not a docstring is
MODULE = '''"""A module docstring
over two lines."""

# a comment
import math


def area(r):
    """A function docstring."""
    # a comment in the body
    total = math.fsum([r,
                       r])
    note = """a string that is
not a docstring"""
    return total, note
'''
MODULE_LINES = 15
MODULE_CODE = 7   # import, def, the call's two lines, the string's two lines, return


def codelines(root: Path) -> dict[str, tuple[int, int]]:
    """{row name: (lines, code)} from the script's printed table."""
    proc = subprocess.run([sys.executable, str(CODELINES), str(root)], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    header, *rows = proc.stdout.splitlines()
    assert header.split() == ["module", "lines", "code"]
    table = {}
    for row in rows:
        name, lines, code = row.split()
        table[name] = int(lines), int(code)
    return table


def test_codelines_counts_each_kind_of_line(tmp_path):
    (tmp_path / "shapes.py").write_text(MODULE)
    (tmp_path / "tiny.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("not a module\n")
    table = codelines(tmp_path)
    assert table.pop("shapes.py") == (MODULE_LINES, MODULE_CODE)
    assert table.pop("tiny.py") == (3, 1)
    assert table == {"total": (MODULE_LINES + 3, MODULE_CODE + 1)}


def test_codelines_total_sums_the_module_rows():
    table = codelines(CODELINES.parents[1] / "src" / "tugpricer")
    total = table.pop("total")
    assert len(table) >= 2
    assert total == tuple(map(sum, zip(*table.values())))
