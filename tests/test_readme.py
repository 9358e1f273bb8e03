"""The README's code stays runnable: its library sketch is executed as written."""

from __future__ import annotations

import math
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_library_sketch_runs():
    text = README.read_text()
    section = text[text.index("## Library sketch"):]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    names: dict = {}
    exec(compile(code, "README.md", "exec"), names)
    est = names["est"]
    assert est.paths == 100_000 and math.isfinite(est.mean) and est.stderr > 0
    assert names["tables"].u_minus.shape == (101, 401)
