"""rmflab benchmark: time a workload end to end through ``rmflab.cli.main``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload survey --seed 1 --seconds 10 --trace 0

Workloads are ``survey``, ``full_grid`` and ``suites`` (see README.md).
With ``--trace 0`` the run measures set-up time in fresh processes, then runs
the workload untraced in one fresh child process and reports the end-to-end
metrics.  With ``--trace 1`` it runs the workload untraced and then traced,
in two fresh children, and reports the per-layer metrics and the tracing
overhead.  Every output is checked after the timed phase, then deleted.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before it
print each metric with its unit, and a ``perfbench-detail`` JSON line with
the environment and every invocation's timing, exit code and output digest.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import oracle
import tracer
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
TMP = ROOT / ".perfbench_tmp"

#: Fresh processes timed for ``setup_s``; the median is reported.
SETUP_REPEATS = 9
#: Oracle-checked rows per trial: ``survey`` rows are geometrically spaced
#: and mostly cheap to brute-force, ``full_grid`` rows are not.
SAMPLES = {"survey": 2, "full_grid": 5}
#: Everything, checks included, must end within this many seconds.
BUDGET_S = 170.0
#: Children run with one BLAS thread.  Threaded BLAS gives nothing on two
#: shared cores, and made small products (``euler --check parseval``) up to
#: 5x slower and far noisier.
CHILD_ENV = {**os.environ, "OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1"}

SETUP_PROBE = """
import json, sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import rmflab
t1 = time.perf_counter()
tables = rmflab.build_tables(int(sys.argv[2]))
if hasattr(tables, "largest_factor_table"):
    tables.largest_factor_table()
t2 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "tables_s": t2 - t1}))
"""

# Traced names and the time metrics reported for each, per cycle.
TIMED = {
    "sieve.build_tables": ("s",), "sieve.largest_factor_table": ("s",),
    "rmf.values_up_to": ("s",), "rmf.prime_value_matrix": ("s",),
    "rmf.value_matrix": ("s",), "sums.grid_statistics": ("s", "self_s"),
    "harness.run_trial": ("self_s",), "harness.test_points": ("s",),
    "cli.main": ("s",),
    "euler.log_factor_matrix": ("s",), "euler.integral_on_grid": ("s",),
    "euler.parseval_integral": ("s",), "euler.parseval_identity_check": ("s",),
    "euler.expected_product_identity_check": ("s",),
    **{f"harness.{n}": ("s", "self_s") for n in (
        "hoeffding_tail_check", "doob_check", "y_submartingale_check",
        "submartingale_z_check", "hypercontractive_check",
        "variance_ratio_ensemble", "sigma_event_statistic")},
}


class BenchError(RuntimeError):
    """The run could not produce a result."""


def _remaining(deadline: float) -> float:
    left = deadline - time.monotonic()
    if left <= 0:
        raise BenchError("time budget exhausted")
    return left


def measure_setup(limit: int, deadline: float) -> list[float]:
    """``import rmflab`` plus the sieve tables at ``limit``, in fresh processes."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run([sys.executable, "-c", SETUP_PROBE, str(SRC), str(limit)],
                              capture_output=True, text=True, cwd=ROOT, env=CHILD_ENV,
                              timeout=_remaining(deadline))
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed:\n{proc.stderr[-2000:]}")
        probe = json.loads(proc.stdout.strip().splitlines()[-1])
        times.append(probe["import_s"] + probe["tables_s"])
    return times


def run_child(workload: str, seed: int, seconds: float, traced: bool,
              outdir: Path, deadline: float) -> dict:
    outdir.mkdir(parents=True)
    cmd = [sys.executable, str(BENCH / "child.py"), str(ROOT), workload,
           str(seed), str(seconds), "1" if traced else "0", str(outdir)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                              env=CHILD_ENV, timeout=_remaining(deadline))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"workload child exceeded the time budget: {exc}") from exc
    result = outdir / "result.json"
    if proc.returncode != 0 or not result.exists():
        raise BenchError(f"workload child exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(result.read_text())


def check_child(workload: str, seed: int, child: dict, traced: bool, tables) -> list[dict]:
    """Check and delete every output of one child; one record per invocation."""
    records = []
    for i, op in enumerate(child["ops"]):
        rec = {"cycle": op["cycle"], "argv": op["argv"], "rc": op["rc"],
               "elapsed_s": op["elapsed"], "rows": 0, "bytes": 0, "sha256": None,
               "violations": 0, "problems": []}
        out = Path(op["out"])
        if op["error"]:
            rec["problems"].append("raised: " + op["error"].strip().splitlines()[-1])
        elif op["rc"] not in (0, 1) or (op["argv"][0] == "simulate" and op["rc"] != 0):
            rec["problems"].append(f"exit code {op['rc']}")
        elif not out.exists():
            rec["problems"].append("no output file")
        else:
            if op["argv"][0] == "simulate":
                rng = np.random.default_rng([seed, i, int(traced)])
                checked = oracle.check_simulate(out, op["argv"], tables,
                                                SAMPLES[workload], rng)
            else:
                checked = oracle.check_suite(out, op["argv"], op["rc"])
            rec.update(rows=checked.rows, bytes=checked.nbytes,
                       sha256=checked.sha256, violations=checked.violations)
            rec["problems"] += checked.problems
        out.unlink(missing_ok=True)
        records.append(rec)
    return records


def cycle_rates(workload: str, records: list[dict]) -> list[float]:
    """Items per second of each cycle, from the summed invocation times."""
    cycles: dict[int, list[dict]] = {}
    for rec in records:
        cycles.setdefault(rec["cycle"], []).append(rec)
    return [workloads.cycle_items(workload, [r["rows"] for r in recs])
            / sum(r["elapsed_s"] for r in recs) for recs in cycles.values()]


def layer_metrics(workload: str, child: dict, records: list[dict],
                  untraced_rate: float) -> tuple[dict, list[str]]:
    """Per-layer metrics of a traced child, and its self-check problems."""
    summary = child["trace"]
    cycles = child["cycles"]
    names, modules = summary["names"], summary["modules"]
    zero = {"s": 0.0, "self_s": 0.0, "count_c0": 0}
    m: dict[str, tuple[float, str]] = {}
    for name, kinds in TIMED.items():
        agg = names.get(name, zero)
        for kind in kinds:
            m[f"{name}.{kind}"] = (agg[kind] / cycles, "s")
    for t in tracer.TARGETS:
        if t.count_name:
            m[f"{t.name}.{t.count_name}"] = (names.get(t.name, zero)["count_c0"], "count")
    for mod in tracer.MODULES:
        m[f"{mod}.self_s"] = (modules[mod]["self_s"] / cycles, "s")
    c0 = [r for r in records if r["cycle"] == 0]
    rows_total = sum(r["rows"] for r in records)
    m["cli.rows"] = (sum(r["rows"] for r in c0), "count")
    m["cli.bytes_out"] = (sum(r["bytes"] for r in c0), "B")
    m["cli.self_us_per_row"] = (1e6 * modules["cli"]["self_s"] / max(rows_total, 1), "us")
    m["euler.quadrature_failures"] = (summary["quadrature_failures_c0"], "count")
    m["harness.violations"] = (sum(r["violations"] for r in c0), "count")
    traced_rate = statistics.median(cycle_rates(workload, records))
    m["trace.items_per_s"] = (traced_rate, "items/s")
    m["trace.overhead_pct"] = (100.0 * (1.0 - traced_rate / untraced_rate)
                               if untraced_rate > 0 else 0.0, "%")
    problems = [f"module {mod} recorded no span on {workload}"
                for mod in workloads.HOME_MODULES[workload]
                if modules[mod]["spans"] == 0]
    return m, problems


def environment() -> dict:
    sha = dirty = None
    if shutil.which("git"):
        top = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"],
                             capture_output=True, text=True)
        if top.returncode == 0 and Path(top.stdout.strip()).resolve() == ROOT:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                 capture_output=True, text=True).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                capture_output=True, text=True).stdout.strip())
    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = None
    return {
        "git_sha": sha, "git_dirty": dirty,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu, "python": platform.python_version(),
        "numpy": np.__version__, "blas": blas,
        "threads_env": {k: v for k, v in sorted(CHILD_ENV.items())
                        if k.startswith(("OMP_", "OPENBLAS_"))},
        "scaling": "none reported: every workload is one process with one "
                   "thread, and on 2 cores nothing here scales across processes",
    }


def run(args) -> dict:
    deadline = time.monotonic() + BUDGET_S
    sys.path.insert(0, str(SRC))
    import rmflab

    # The oracle checks of ``simulate`` outputs need the sieve tables.
    tables = rmflab.build_tables(workloads.X_MAX) if args.workload != "suites" else None
    detail = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "env": environment()}
    metrics: dict[str, tuple[float, str]] = {}
    problems: list[str] = []
    all_records: list[dict] = []
    tmp = TMP / f"run-{os.getpid()}"
    try:
        if not args.trace:
            setup = measure_setup(workloads.TABLE_LIMIT[args.workload], deadline)
            detail["setup_s"] = setup
            metrics["setup_s"] = (statistics.median(setup), "s")
        untraced = run_child(args.workload, args.seed, args.seconds, False,
                             tmp / "untraced", deadline)
        records = check_child(args.workload, args.seed, untraced, False, tables)
        all_records += records
        rate = statistics.median(cycle_rates(args.workload, records))
        if not args.trace:
            metrics["items_per_s"] = (rate, "items/s")
            metrics["peak_rss_mb"] = (untraced["peak_rss_kb"] / 1024.0, "MB")
        else:
            traced = run_child(args.workload, args.seed, args.seconds, True,
                               tmp / "traced", deadline)
            traced_records = check_child(args.workload, args.seed, traced, True, tables)
            all_records += traced_records
            metrics, problems = layer_metrics(args.workload, traced, traced_records, rate)
            detail["absent"] = traced["trace"]["absent"]
            detail["uncounted"] = traced["trace"]["uncounted"]
            detail["spans"] = traced["trace"]["spans"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        if TMP.exists() and not any(TMP.iterdir()):
            TMP.rmdir()

    failed = sum(bool(r["problems"]) for r in all_records)
    detail["ops"] = all_records
    detail["failed_frac"] = failed / len(all_records)
    detail["violations"] = sum(r["violations"] for r in all_records)
    detail["problems"] = problems + [f"{' '.join(r['argv'])}: {p}" for r in all_records
                                     for p in r["problems"]]
    return {"metrics": metrics, "failed": failed, "attempted": len(all_records),
            "detail": detail, "correct": failed == 0 and not problems}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not 0 <= args.seed < 2**40 or args.seconds < 0:
        ap.error("--seed must lie in [0, 2**40) and --seconds must be non-negative")
    if not (SRC / "rmflab" / "__init__.py").is_file():
        print(f"perfbench: no rmflab sources under {SRC}", file=sys.stderr)
        return 2
    try:
        res = run(args)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    for name, (value, unit) in res["metrics"].items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} failed_frac = {res['detail']['failed_frac']:.6g} ratio "
          f"({res['failed']}/{res['attempted']})")
    print(f"{args.workload} statistical violations = {res['detail']['violations']}")
    for problem in res["detail"]["problems"]:
        print(f"problem: {problem}")
    for name in res["detail"].get("absent", []):
        print(f"absent: {name} (reported as 0)")
    for name in res["detail"].get("uncounted", []):
        print(f"uncounted: {name} returned a value the tracer cannot count")
    print("perfbench-detail " + json.dumps(res["detail"]))
    print(json.dumps({
        "correct": res["correct"], "attempted": res["attempted"], "failed": res["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in res["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
