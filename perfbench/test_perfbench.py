"""Tests of the benchmark itself: its checker, tracer and output contract.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oracle

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(ROOT / "src"))

import rmflab  # noqa: E402
from rmflab.cli import main as cli_main  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          capture_output=True, text=True, cwd=cwd, timeout=170)


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _edit_csv(path: Path, line: int, column: int, edit) -> None:
    lines = path.read_bytes().split(b"\r\n")
    fields = lines[line].decode().split(",")
    fields[column] = edit(fields[column])
    lines[line] = ",".join(fields).encode()
    path.write_bytes(b"\r\n".join(lines))


@pytest.mark.parametrize("model, column, edit", [
    ("rademacher", 3, lambda v: repr(float(v) + 1.0)),  # m_re off by one
    ("steinhaus", 5, lambda v: repr(float(v) * (1 + 1e-6))),  # v off by 1e-6
])
def test_checker_flags_a_corrupted_simulate_row(tmp_path, model, column, edit):
    argv = ["simulate", "--x-max", "3000", "--trials", "2", "--model", model,
            "--seed", "5"]
    out = tmp_path / "s.csv"
    assert cli_main(argv + ["--out", str(out)]) == 0
    tables = rmflab.build_tables(3000)

    def check():
        return oracle.check_simulate(out, argv, tables, 10**6,
                                     np.random.default_rng(0))

    clean = check()
    assert clean.problems == [] and clean.rows > 2
    _edit_csv(out, 7, column, edit)
    assert any("oracle" in p for p in check().problems)


def test_checker_flags_a_flipped_match(tmp_path):
    argv = ["oracle-check", "--trials", "2", "--points", "100,1000"]
    out = tmp_path / "o.csv"
    rc = cli_main(argv + ["--out", str(out)])
    assert rc == 0 and oracle.check_suite(out, argv, rc).problems == []
    _edit_csv(out, 2, 6, lambda v: "false")
    problems = oracle.check_suite(out, argv, rc).problems
    assert any("match=false" in p for p in problems)
    assert any("exit code 0" in p for p in problems)


def test_checker_counts_violations_without_failing(tmp_path):
    argv = ["moments", "--suite", "doob", "--trials", "200"]
    out = tmp_path / "d.csv"
    assert cli_main(argv + ["--out", str(out)]) == 0
    _edit_csv(out, 1, 5, lambda v: "true")
    checked = oracle.check_suite(out, argv, 1)
    assert checked.violations == 1 and checked.problems == []
    assert oracle.check_suite(out, argv, 0).problems == ["exit code 0, rows imply 1"]


def test_tracer_wraps_by_name_bindings_and_reports_absent_names():
    code = f"""
import sys
sys.path[:0] = [{str(BENCH)!r}, {str(ROOT / 'src')!r}]
import rmflab, rmflab.cli
from tracer import Tracer
del rmflab.rmf.SampledFunction.values_up_to
t = Tracer()
t.install()
assert t.absent == ["rmf.values_up_to"], t.absent
assert rmflab.harness.grid_statistics is rmflab.sums.grid_statistics
assert rmflab.cli.build_tables.__wrapped__ is not None
assert rmflab.euler.prime_value_matrix is rmflab.rmf.prime_value_matrix
print("ok")
"""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.stdout.strip() == "ok", proc.stderr


def test_end_to_end_run_reports_the_declared_metrics():
    res = _result(_bench("--workload", "survey", "--seed", "3", "--seconds", "0"))
    assert res["correct"] and res["failed"] == 0 and res["attempted"] == 2
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in res["metrics"].values())


def test_traced_counts_repeat_exactly_for_one_seed():
    runs = [_result(_bench("--workload", "survey", "--seed", "4", "--seconds", "0",
                           "--trace", "1")) for _ in range(2)]
    for res in runs:
        assert res["correct"]
        assert {k: v["unit"] for k, v in res["metrics"].items()} == \
            {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    counts = [{k: v["value"] for k, v in res["metrics"].items() if v["unit"] in ("count", "B")}
              for res in runs]
    assert counts[0] == counts[1]
    assert counts[0]["rmf.values_up_to.integers"] > 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _bench("--workload", "survey", "--seed", "1", "--seconds", "1", cwd=tmp_path)
    assert proc.returncode != 0 and proc.stdout == ""
