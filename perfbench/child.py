"""One workload run in a fresh process: repeat cycles of CLI invocations.

Usage (started by ``run.py``)::

    python3 perfbench/child.py ROOT WORKLOAD SEED SECONDS TRACE OUTDIR

Runs whole cycles until the summed wall time of the invocations reaches
SECONDS (at least one cycle), writing each invocation's CSV under OUTDIR.
Only the ``rmflab.cli.main`` calls are timed.  Writes ``OUTDIR/result.json``
with per-invocation timings, exit codes and the process's peak RSS, plus the
tracer summary when TRACE is 1.
"""

from __future__ import annotations

import json
import resource
import sys
import time
import traceback
from pathlib import Path

import workloads


def main(argv: list[str]) -> int:
    root, workload, seed, seconds, trace, outdir = argv
    root, outdir = Path(root), Path(outdir)
    src = root / "src"
    sys.path.insert(0, str(src))
    import rmflab  # noqa: F401  (binds every submodule the tracer patches)
    import rmflab.cli

    if src.resolve() not in Path(rmflab.__file__).resolve().parents:
        print(f"perfbench: imported rmflab from {rmflab.__file__}, not {src}",
              file=sys.stderr)
        return 1
    tracer = None
    if trace == "1":
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    cli = sys.modules["rmflab.cli"]

    ops = []
    timed = 0.0
    cycle = 0
    while True:
        for i, args in enumerate(workloads.cycle_argvs(workload, int(seed), cycle)):
            out = outdir / f"c{cycle}-{i}.csv"
            if tracer is not None:
                tracer.op, tracer.cycle = len(ops), cycle
            error = None
            start = time.perf_counter()
            try:
                rc = cli.main(args + ["--out", str(out)])
            except Exception:
                rc, error = None, traceback.format_exc(limit=5)
            elapsed = time.perf_counter() - start
            timed += elapsed
            ops.append({"cycle": cycle, "argv": args, "out": str(out), "rc": rc,
                        "error": error, "elapsed": elapsed})
        cycle += 1
        if timed >= float(seconds):
            break

    result = {
        "ops": ops,
        "cycles": cycle,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "trace": tracer.summary() if tracer is not None else None,
    }
    (outdir / "result.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
