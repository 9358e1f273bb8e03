"""Check that this tree and another write the same benchmark outputs, byte for byte.

Usage: ``python3 tools/same_outputs.py OTHER_TREE [--seed N] [--small]
[--workload NAME ...]``

Runs each benchmark workload's CLI command (``perfbench/workloads.py``), with
its thread count, on one generated config, once against this tree's ``src``
and once against ``OTHER_TREE/src``, each in a fresh interpreter.  Lists
every file of the two ``--out`` directories whose bytes differ, or that only
one of them holds, and exits 1 if any does, 0 if none does and 2 if a
command fails.  ``--small`` runs the
shrunken configs of ``perfbench/run.py --self-check``; ``--workload``
picks workloads (default: all).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.dont_write_bytecode = True  # leave no cache files in perfbench/
sys.path.insert(0, str(ROOT / "perfbench"))
from workloads import WORKLOADS  # noqa: E402


def _fail(message: str) -> None:
    print(message, file=sys.stderr)
    raise SystemExit(2)


def _run(src: Path, command: str, threads: int, cfg: Path, out: Path) -> None:
    env = dict(os.environ, PYTHONPATH=str(src))
    proc = subprocess.run([sys.executable, "-m", "tugpricer", command, "--config", str(cfg),
                           "--out", str(out), "--threads", str(threads)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        _fail(f"{command} on {src} exited {proc.returncode}:\n{proc.stderr[-2000:]}")


def differing(a: Path, b: Path) -> list[str]:
    """The relative paths of the files under a or b whose bytes differ."""
    files = {p.relative_to(top) for top in (a, b) for p in top.rglob("*") if p.is_file()}
    return sorted(str(f) for f in files
                  if not ((a / f).is_file() and (b / f).is_file()
                          and (a / f).read_bytes() == (b / f).read_bytes()))


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("other", type=Path, help="the root of the tree to compare with")
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--small", action="store_true")
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args(argv)
    trees = {"this": ROOT / "src", "other": args.other.resolve() / "src"}
    if not (trees["other"] / "tugpricer").is_dir():
        _fail(f"no package source at {trees['other'] / 'tugpricer'}")
    found = []
    with tempfile.TemporaryDirectory() as tmp:
        for name in args.workload or WORKLOADS:
            command, threads, build, _ = WORKLOADS[name]
            cfg = Path(tmp) / f"{name}.json"
            cfg.write_text(json.dumps(build(args.seed, args.small), indent=2))
            outs = {tree: Path(tmp) / tree / name for tree in trees}
            for tree, src in trees.items():
                _run(src, command, threads, cfg, outs[tree])
            diff = differing(outs["this"], outs["other"])
            found += [f"{name}: {f}" for f in diff]
            count = sum(p.is_file() for p in outs["this"].rglob("*"))
            print(f"{name}: {len(diff)} of {count} --out files differ", file=sys.stderr)
    print("\n".join(found) if found else "all --out files are byte-identical")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
