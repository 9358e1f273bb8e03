"""One rep in a fresh interpreter: set up, run one CLI command, report.

Usage: python3 rep.py JOB.json

JOB.json gives the CLI argv (``argv``, or null to stop after setup), the
config path (``config``), the package source directory the import must come
from (``src``), where to write the result (``result``) and, for a traced
rep, where to write the spans (``trace``, else null).  The result holds the
setup and command timings, the command's exit code and this process's peak
resident memory; a traced rep adds the per-layer metrics derived from its
spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text())
    tracer = None
    if job["trace"]:
        import spans
        tracer = spans.Tracer()

    t0 = time.perf_counter()
    import tugpricer.cli as cli
    t1 = time.perf_counter()
    cli.load_config(job["config"])
    t2 = time.perf_counter()

    src = Path(job["src"]).resolve()
    if src not in Path(cli.__file__).resolve().parents:
        print(f"rep: imported {cli.__file__}, not the package under {src}", file=sys.stderr)
        return 2
    if job["argv"] is None:  # setup only
        Path(job["result"]).write_text(json.dumps({"setup_s": t2 - t0}))
        return 0
    if tracer is not None:
        tracer.record("cli.import", t0, t1)
        tracer.record("cli.load_config", t1, t2)
        tracer.instrument()

    t3 = time.perf_counter()
    code = cli.main(job["argv"])
    t4 = time.perf_counter()

    result = {
        "code": code,
        "setup_s": t2 - t0,
        "wall_s": t4 - t3,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        result["layers"] = spans.layer_metrics(tracer.spans)
        tracer.dump(job["trace"])
    Path(job["result"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
