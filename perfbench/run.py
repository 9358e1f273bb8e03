"""tugpricer benchmark: CLI commands end to end, and layer by layer when traced.

Usage, from the root of a checkout:

  python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 perfbench/run.py --all [--seed N] [--seconds S]
  python3 perfbench/run.py --self-check

A run writes the workload's config from the seed, warms the import caches
with one untimed setup, then repeats reps, starting another only while it is
expected to end within ``--seconds`` (but always at least two), and fills
what is left of the window with setup-only reps.  Each rep
runs ``rep.py`` in a fresh interpreter against the package in ``src/``:
setup (``import tugpricer.cli`` plus ``load_config``), then one ``cli.main``
command.  Every rep's outputs go through the workload's correctness gate,
and every rep of a run must write byte-identical artifacts; a rep that fails
either counts as failed.

With ``--trace 0`` the last stdout line reports the median ``wall_s``,
``setup_s`` and ``peak_rss_mb`` over the reps.  With ``--trace 1`` reps
alternate untraced and traced (spans from ``spans.py``) and the line reports
the per-layer metrics, medians over the traced reps, with
``trace.overhead_s`` = median traced minus median untraced ``wall_s``.  The
per-layer metrics of a layer that does not run in a workload read 0.

``--all`` runs every workload both ways and prints every metric with its
unit and sample count, plus the machine.  ``--self-check`` runs a shrunken
copy of each workload (one untraced and one traced rep) through the gate,
the traced-vs-untraced byte comparison, and the layer map in
``metric_map.json``; it does not use the repository's test suite.

All files go under ``.bench_work/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
METRIC_MAP = json.loads((HERE / "metric_map.json").read_text())
E2E_UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
LAYER_UNITS = {m["name"]: m["unit"] for m in SPEC["per_layer"]}

MIN_REPS = 2
DEADLINE_S = 170.0  # every rep is killed by then, so a run exits within 180 s


class BenchError(Exception):
    """The benchmark itself could not run (as opposed to a failed rep)."""


def _digests(out: Path) -> tuple[dict[str, str], int]:
    digests = {}
    size = 0
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        data = path.read_bytes()
        size += len(data)
        digests[str(path.relative_to(out))] = hashlib.sha256(data).hexdigest()
    return digests, size


def _spawn(job: dict, job_path: Path, timeout: float) -> dict:
    job_path.write_text(json.dumps(job))
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run([sys.executable, str(HERE / "rep.py"), str(job_path)],
                              env=env, cwd=ROOT, timeout=max(1.0, timeout),
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"rep did not finish within {exc.timeout:.0f} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"rep exited with code {proc.returncode}:\n{proc.stderr[-4000:]}")
    result = json.loads(Path(job["result"]).read_text())
    result["stderr"] = proc.stderr.strip()
    return result


def _rep(workload: str, work: Path, cfg_path: Path, index: int, traced: bool,
         timeout: float) -> dict:
    command, threads, _, _ = WORKLOADS[workload]
    rep_dir = work / f"rep{index}"
    out = rep_dir / "out"
    job = {"argv": [command, "--config", str(cfg_path), "--out", str(out),
                    "--threads", str(threads)],
           "config": str(cfg_path), "src": str(SRC),
           "result": str(rep_dir / "result.json"),
           "trace": str(work / "spans.jsonl") if traced else None}
    rep_dir.mkdir()
    res = _spawn(job, rep_dir / "job.json", timeout)
    res["traced"] = traced
    res["problem"] = (f"exit code {res['code']}: {res['stderr'][-500:]}" if res["code"] != 0
                      else gate(workload, json.loads(cfg_path.read_text()), out))
    res["digests"], res["out_bytes"] = _digests(out)
    shutil.rmtree(rep_dir)
    return res


def run(workload: str, seed: int, seconds: float, trace: bool,
        small: bool = False) -> dict:
    """One benchmark run; returns the result line plus its per-metric samples."""
    if not (SRC / "tugpricer" / "cli.py").is_file():
        raise BenchError(f"no package source at {SRC / 'tugpricer'}")
    t_start = time.perf_counter()
    _, _, build, _ = WORKLOADS[workload]
    work = WORK / f"{workload}{'-small' if small else ''}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    cfg_path = work / "config.json"
    cfg_path.write_text(json.dumps(build(seed, small), indent=2))

    def setup_only(index: int) -> float:
        job = {"argv": None, "config": str(cfg_path), "src": str(SRC),
               "result": str(work / f"setup{index}.json"), "trace": None}
        timeout = DEADLINE_S - (time.perf_counter() - t_start)
        return _spawn(job, work / f"setup{index}_job.json", timeout)["setup_s"]

    setup_only(0)  # untimed warm-up: bytecode compilation, page cache for the imports
    t0 = time.perf_counter()
    setup_unit_s = t0 - t_start

    # A unit is one rep, or an untraced-traced pair when tracing.  Start
    # another only while it is expected to end within the measured window.
    reps = []
    unit_s = []
    while len(reps) < MIN_REPS or (
            time.perf_counter() - t0 + statistics.median(unit_s) <= seconds):
        start = time.perf_counter()
        for traced in ((False, True) if trace else (False,)):
            timeout = DEADLINE_S - (time.perf_counter() - t_start)
            res = _rep(workload, work, cfg_path, len(reps), traced, timeout)
            reps.append(res)
            print(f"{workload} rep {len(reps) - 1}: {'traced ' if traced else ''}"
                  f"wall {res['wall_s']:.3f} s, setup {res['setup_s']:.3f} s, "
                  f"rss {res['peak_rss_mb']:.0f} MiB, {res['problem'] or 'ok'}",
                  file=sys.stderr)
        unit_s.append(time.perf_counter() - start)
    # fill the rest of the window with setup-only reps: more setup_s samples
    setups = [r["setup_s"] for r in reps]
    while not trace and time.perf_counter() - t0 + setup_unit_s <= seconds:
        setups.append(setup_only(len(setups)))

    for res in reps[1:]:
        if res["problem"] is None and res["digests"] != reps[0]["digests"]:
            res["problem"] = "artifacts differ from rep 0"
    failed = sum(res["problem"] is not None for res in reps)

    if trace:
        traced = [r for r in reps if r["traced"]]
        plain = [r for r in reps if not r["traced"]]
        samples = {name: [r["layers"][name] for r in traced]
                   for name in traced[0]["layers"]}
        samples["cli.out_bytes"] = [r["out_bytes"] for r in traced]
        overhead = (statistics.median(r["wall_s"] for r in traced)
                    - statistics.median(r["wall_s"] for r in plain))
        samples["trace.overhead_s"] = [overhead]
        units = LAYER_UNITS
    else:
        samples = {name: [r[name] for r in reps] for name in E2E_UNITS}
        samples["setup_s"] = setups
        units = E2E_UNITS
    return {
        "correct": failed == 0,
        "attempted": len(reps),
        "failed": failed,
        "metrics": {name: {"value": statistics.median(samples[name]), "unit": unit}
                    for name, unit in units.items()},
        "samples": samples,
        "problems": [r["problem"] for r in reps if r["problem"] is not None],
    }


def _line(result: dict) -> str:
    return json.dumps({key: result[key]
                       for key in ("correct", "attempted", "failed", "metrics")})


def _machine() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                capture_output=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "commit": commit or "unknown"}


def run_all(seed: int, seconds: float) -> bool:
    for key, val in _machine().items():
        print(f"# {key}: {val}")
    ok = True
    for workload in WORKLOADS:
        for trace in (False, True):
            result = run(workload, seed, seconds, trace)
            ok = ok and result["correct"]
            print(f"{workload} trace={int(trace)}: {result['attempted']} reps, "
                  f"{result['failed']} failed {result['problems'] or ''}")
            for name, metric in result["metrics"].items():
                layer = METRIC_MAP["per_layer"].get(name, {"moves": [], "on": []})
                note = ""
                if layer["moves"]:
                    idle = "" if workload in layer["on"] else " (not a workload of this layer)"
                    note = f"  moves {','.join(layer['moves'])}{idle}"
                print(f"  {name:28s} {metric['value']:>16.6g} {metric['unit']:6s} "
                      f"n={len(result['samples'][name])}{note}")
    return ok


def self_check() -> bool:
    ok = True
    for workload in WORKLOADS:
        result = run(workload, 0, 0.0, True, small=True)
        idle = [name for name, spec in METRIC_MAP["per_layer"].items()
                if workload in spec["on"] and not result["metrics"][name]["value"]]
        passed = result["correct"] and not idle
        ok = ok and passed
        print(f"{'PASS' if passed else 'FAIL'} {workload}: {result['attempted']} reps, "
              f"{result['failed']} failed {result['problems'] or ''}"
              f"{' zero metrics: ' + ', '.join(idle) if idle else ''}")
    return ok


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload, both ways")
    parser.add_argument("--self-check", action="store_true",
                        help="shrunken workloads through the gate and byte comparison")
    args = parser.parse_args()
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must be an unsigned 64-bit integer")
    try:
        if args.self_check:
            return 0 if self_check() else 1
        if args.all:
            return 0 if run_all(args.seed, args.seconds) else 1
        if args.workload is None:
            parser.error("--workload is required")
        print(_line(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
