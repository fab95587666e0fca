import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rmflab
from rmflab.cli import main


def _run(args):
    return main(args)


def test_simulate_thread_determinism(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    base = ["simulate", "--trials", "3", "--x-max", "2000", "--x-max", "2000"]
    assert _run(base + ["--out", str(a)]) == 0
    assert _run(base + ["--threads", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_csv_shape(tmp_path):
    out = tmp_path / "sim.csv"
    assert _run(["simulate", "--trials", "2", "--x-max", "500",
                 "--out", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    trials = {r["trial"] for r in rows}
    assert trials == {"0", "1", "-1"}  # two trials plus the summary row
    for r in rows:
        float(r["normalized"])  # parses
    # RFC 4180 line endings
    assert b"\r\n" in out.read_bytes()


def test_simulate_json(tmp_path, capsys):
    assert _run(["simulate", "--trials", "1", "--x-max", "100",
                 "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert isinstance(data, list) and data


def test_oracle_check_passes(capsys):
    assert _run(["oracle-check", "--trials", "2", "--points", "100,997",
                 "--model", "steinhaus"]) == 0
    out = capsys.readouterr().out
    assert "true" in out and "false" not in out


def test_moments_hypercontractive(capsys):
    rc = _run(["moments", "--suite", "hypercontractive", "--trials", "1000",
               "--x-max", "50"])
    assert rc == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 4  # header + m = 1, 2, 3


def test_moments_submartingale_y(capsys):
    assert _run(["moments", "--suite", "submartingale-y", "--trials", "200",
                 "--model", "steinhaus"]) == 0


def test_euler_parseval(capsys):
    assert _run(["euler", "--check", "parseval", "--trials", "3"]) == 0


def test_euler_sigma_event(capsys):
    assert _run(["euler", "--check", "sigma-event", "--trials", "50",
                 "--x-max", "300"]) == 0
    out = capsys.readouterr().out
    assert "exceed_fraction" in out


def test_variance_exit_code(capsys):
    assert _run(["variance", "--trials", "400", "--points", "1000"]) == 0


def test_report_aggregates(tmp_path):
    sim = tmp_path / "sim.csv"
    agg = tmp_path / "agg.csv"
    _run(["simulate", "--trials", "2", "--x-max", "300", "--out", str(sim)])
    assert _run(["report", str(sim), "--out", str(agg)]) == 0
    with open(agg, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(r["count"] == "2" for r in rows)


def test_report_rejects_csv_without_required_columns(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("seed,x\r\n1,100\r\n")
    assert _run(["report", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "trial" in err and "normalized" in err


def test_python_m_rmflab_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(rmflab.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-m", "rmflab", "no-such-command"],
                          capture_output=True, env=env).returncode == 2


def test_oracle_check_seeds_flag(capsys):
    assert _run(["oracle-check", "--seeds", "2", "--points", "100"]) == 0
    out = capsys.readouterr().out
    assert out.count("\r\n") == 3  # header + 2 seed rows


def test_moments_m_and_n_flags(capsys):
    assert _run(["moments", "--suite", "hypercontractive", "--m", "2",
                 "--n", "50", "--trials", "1000"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # header + single m = 2 row
    assert "m=2 N=50" in lines[1]


def test_threads_auto(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert _run(["simulate", "--trials", "2", "--x-max", "500",
                 "--threads", "auto", "--out", str(a)]) == 0
    assert _run(["simulate", "--trials", "2", "--x-max", "500",
                 "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert _run(["simulate", "--threads", "bogus", "--trials", "1"]) == 2


def test_usage_errors():
    assert _run(["no-such-command"]) == 2
    assert _run(["simulate", "--epsilon", "0.9", "--trials", "1"]) == 2
    assert _run([]) == 2


def test_table_cache_roundtrip(tmp_path, capsys):
    cache = tmp_path / "spf.bin"
    args = ["oracle-check", "--trials", "1", "--points", "100",
            "--x-max", "1000", "--table-cache", str(cache)]
    assert _run(args) == 0
    assert cache.exists()
    first = capsys.readouterr().out
    assert _run(args) == 0  # second run loads the cache
    assert capsys.readouterr().out == first


def test_table_cache_env(tmp_path, capsys, monkeypatch):
    cache = tmp_path / "env.bin"
    monkeypatch.setenv("RMF_TABLE_CACHE", str(cache))
    assert _run(["oracle-check", "--trials", "1", "--points", "100",
                 "--x-max", "1000"]) == 0
    assert cache.exists()
