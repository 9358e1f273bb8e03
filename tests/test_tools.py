"""The repository's own tools, run as scripts on inputs each test writes."""

from __future__ import annotations

import importlib.util
import shutil
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

TOOLS = Path(__file__).resolve().parents[1] / "tools"
CODELINES = TOOLS / "codelines.py"
SAME_OUTPUTS = TOOLS / "same_outputs.py"

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


def load_tool(name: str):
    spec = importlib.util.spec_from_file_location(f"tools_{name}", TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# statements the calls below leave unrun: lines 9 and 16 (a branch and a
# function body), 21 (the body of a decorated function that is never
# called) and 31 (an except clause); a docstring and ``global`` run no code
SCRATCH = '''"""A module docstring."""

import functools


def branch(x):
    """A docstring."""
    if x:
        return 1
    return (2 +
            x)


def never():
    global STATE
    STATE = 3


@functools.cache
def cached():
    pass


class Holder:
    size: int

    def guarded(self):
        try:
            return 4
        except ValueError:
            return 5


def threaded(out):
    out.append(Holder().guarded())
'''


def test_untested_lists_the_statements_no_traced_call_ran(tmp_path):
    untested = load_tool("untested")
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "scratch.py").write_text(SCRATCH)
    tracer, hits = untested.make_tracer(pkg)
    spec = importlib.util.spec_from_file_location("scratch", pkg / "scratch.py")
    module = importlib.util.module_from_spec(spec)
    out = []
    before = sys.gettrace(), threading.gettrace()
    sys.settrace(tracer)
    threading.settrace(tracer)
    try:
        spec.loader.exec_module(module)
        module.branch(0)
        worker = threading.Thread(target=module.threaded, args=(out,))  # traced only there
        worker.start()
        worker.join(timeout=30)
    finally:
        sys.settrace(before[0])
        threading.settrace(before[1])
    assert not worker.is_alive() and out == [4]
    assert untested.untested(pkg, hits) == [f"pkg/scratch.py:{line}" for line in (9, 16, 21, 31)]


def test_untested_tracer_skips_frames_it_cannot_place(tmp_path):
    tracer, hits = load_tool("untested").make_tracer(tmp_path)
    for name in (None, __file__):  # a None filename is seen at interpreter exit
        frame = SimpleNamespace(f_code=SimpleNamespace(co_filename=name))
        assert tracer(frame, "call", None) is None
    assert hits == {}


def same_outputs(other: Path) -> subprocess.CompletedProcess:
    """The script on the small coin-game workload, the quickest, against ``other``."""
    return subprocess.run([sys.executable, str(SAME_OUTPUTS), str(other), "--small",
                           "--workload", "coin-game-2t"], capture_output=True, text=True,
                          timeout=120)


def test_same_outputs_finds_no_difference_against_itself():
    proc = same_outputs(TOOLS.parent)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "all --out files are byte-identical"
    assert "coin-game-2t: 0 of 2 --out files differ" in proc.stderr


def test_same_outputs_lists_the_file_another_tree_writes_differently(tmp_path):
    # a copy of the package whose coin game negates every coin plays other
    # paths, so only its report moves; the resolved config stays the same
    shutil.copytree(TOOLS.parent / "src", tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__"))
    with open(tmp_path / "src" / "tugpricer" / "game.py", "a") as fh:
        fh.write("\n_drawn = _coins\n_coins = lambda gen, shape: -_drawn(gen, shape)\n")
    proc = same_outputs(tmp_path)
    assert proc.returncode == 1, proc.stderr
    assert "coin-game-2t: 1 of 2 --out files differ" in proc.stderr
    assert proc.stdout.splitlines() == ["coin-game-2t: report.json"]
