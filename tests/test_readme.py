"""The README's code stays runnable: its library sketch is executed as written,
and its example config loads."""

from __future__ import annotations

import json
import math
import re
from pathlib import Path

from tugpricer import cli

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


def test_config_example_loads_and_echoes_itself(tmp_path):
    text = README.read_text()
    section = text[text.index("## Command line"):text.index("## Library sketch")]
    example = re.search(r"```json\n(.*?)```", section, re.S).group(1)
    (tmp_path / "run.json").write_text(example)
    cfg = cli.load_config(tmp_path / "run.json")
    (tmp_path / "echo.json").write_text(json.dumps(cfg.resolved))
    assert cli.load_config(tmp_path / "echo.json").digest == cfg.digest
