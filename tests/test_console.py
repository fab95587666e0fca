"""The CLI contract end to end: exit codes, the text of every cell and the
memory of whole ``rmflab`` runs, through :func:`rmflab.cli.main` or a fresh
``python -m rmflab`` process, and a seeded property test over argv."""

import csv
import io
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import rmflab
from rmflab import cli
from rmflab.cli import main

MODELS = ["rademacher", "steinhaus"]

#: The environment of a ``python -m rmflab`` process that imports this rmflab.
_ENV = {**os.environ, "PYTHONPATH": str(Path(rmflab.__file__).parents[1])}


@pytest.mark.parametrize("argv,code", [
    ("moments --suite hoeffding --points 100000000", 2),  # past the suite's tables
    ("simulate --trials 2 --x-max 50", 0),  # a walk below 100, through the writer
])
def test_an_argv_exits_with_its_code(argv, code):
    assert main(argv.split()) == code


@pytest.mark.parametrize("model", MODELS)
def test_three_variance_trials_print_a_violated_row_and_exit_1(model, capsys):
    # Three trials are too few for the 3-SE rule.
    assert main(["variance", "--trials", "3", "--points", "1000", "--seed", "3",
                 "--model", model]) == 1
    assert "true" in {r["violated"] for r in csv.DictReader(io.StringIO(capsys.readouterr().out))}


@pytest.mark.parametrize("argv", ["--trials 2 --x-max 100000", "--trials 3 --x-max 300000"])
def test_report_reads_a_full_grid(argv, tmp_path):
    grid = tmp_path / "fg.csv"
    assert main(["simulate", "--full-grid", *argv.split(), "--out", str(grid)]) == 0
    assert main(["report", str(grid), "--out", str(tmp_path / "report.csv")]) == 0


def test_a_full_grid_in_json_parses(capsys):
    assert main(["simulate", "--full-grid", "--trials", "1", "--x-max", "100000",
                 "--format", "json"]) == 0
    json.loads(capsys.readouterr().out)


@pytest.mark.parametrize("model", MODELS)
def test_every_full_grid_cell_is_the_text_percent_prints(model, tmp_path):
    # The numpy digits and the %d path for whole floats, on this CPU.
    path = tmp_path / "fg1.csv"
    assert main(["simulate", "--full-grid", "--trials", "1", "--x-max", "300000",
                 "--model", model, "--out", str(path)]) == 0
    with open(path, newline="") as fh:
        head, *rows = csv.reader(fh)
    assert len(rows) > 290000 and all(len(row) == len(head) for row in rows), len(rows)
    for summary in (False, True):
        ints = {"trial", "seed", "x"} | (set() if summary else {"exceed6"})
        part = [row for row in rows if (row[0] == "-1") == summary]
        for name, cells in zip(head, zip(*part)):
            want = [str(int(c)) if name in ints else "%.17g" % float(c) for c in cells]
            assert list(cells) == want, name


def test_one_trial_at_3e7_holds_one_factor_table(tmp_path):
    # One 4 B per integer factor table: about 246 MB, where two tables took
    # 361 MB.  A fresh process, so the peak is this run's.  Its own: the
    # ru_maxrss of a process forked from this one counts this one's peak.
    code = ("import sys\n"
            "from rmflab.cli import main\n"
            "argv = ['simulate', '--model', 'rademacher', '--trials', '1',\n"
            "        '--x-max', '30000000', '--out', sys.argv[1]]\n"
            "assert main(argv) == 0\n"
            "print(open('/proc/self/status').read().split('VmHWM:')[1].split()[0])\n")
    run = subprocess.run([sys.executable, "-c", code, str(tmp_path / "mem.csv")],
                         capture_output=True, text=True, env=_ENV)
    assert run.returncode == 0, run.stderr
    peak = int(run.stdout) / 1024  # kB
    assert peak < 300, f"simulate at 3e7 peaked at {peak:.0f} MB"


@pytest.mark.skipif(shutil.which("taskset") is None, reason="needs taskset")
@pytest.mark.parametrize("argv", [
    "moments --suite hoeffding --trials 2000 --points 1000,10000",
    "variance --trials 500",
    "euler --check sigma-event --trials 200 --model steinhaus",
    "moments --suite submartingale-y --trials 2000 --model steinhaus",
], ids=lambda argv: " ".join(argv.split()[:3]))
def test_one_cpu_prints_the_bytes_of_every_cpu(argv):
    command = [sys.executable, "-m", "rmflab", *argv.split()]
    every, one = (subprocess.run(pin + command, capture_output=True, env=_ENV)
                  for pin in ([], ["taskset", "-c", "0"]))
    # A run that fails must not pass as an empty, equal output.
    assert every.returncode == one.returncode == 0, (every.stderr, one.stderr)
    assert every.stdout == one.stdout


#: Values of each argument in :func:`test_a_random_argv_exits_0_1_or_2`:
#: values its parser accepts, then values that it or a check refuses.
#: --trials and --x-max stay small, so that a draw takes about 5 ms.
_POOLS = {
    "inputs": ([["{sim}"], ["{sim}", "{sim}"]], [["{bad}"], ["{tmp}/missing.csv"]]),
    "--suite": ([n for c, n in cli._CHECKS if c == "moments"], ["bogus"]),
    "--check": ([n for c, n in cli._CHECKS if c == "euler"], ["bogus"]),
    "--model": (["rademacher", "steinhaus"], ["gauss"]),
    "--seed": (["0", "3", "-3"], ["x"]),
    "--trials": (["1", "2", "3", "5"], ["0", "two"]),
    "--epsilon": (["0.1", "0.2", "0.24"], ["0.25", "nan"]),
    "--x-max": (["1", "50", "300", "2000"], ["0", "1e6"]),
    "--full-grid": ([[]], [[]]),
    "--t-param": (["5", "10"], ["0", "nan"]),
    "--points": (["1000", "100,1000", "16", "2", "100000000"], ["", "10,x"]),
    "--lam": (["20", "50"], ["0", "nan"]),
    "--m": (["1", "2", "3"], ["0", "4"]),
    "--out": (["{tmp}/out"], ["{tmp}/no/out"]),
    "--format": (["csv", "json"], ["xml"]),
}


def _draw(rng: random.Random) -> list[str]:
    """One argv: a subcommand, and each argument with probability 1/2 where
    the subcommand, or the suite or check drawn, reads it (9/10 for --trials,
    --x-max, --suite and --check), 1/50 where not, with a refused value 1
    time in 20."""
    command = rng.choice(list(cli._COMMANDS))
    reads = set(cli._COMMANDS[command][1]) | set(cli._CHECKS.get((command, None), ([],))[0])
    argv = [command]
    for flag, pools in _POOLS.items():  # --suite and --check come before their flags
        likely = 0.9 if flag in ("--trials", "--x-max", "--suite", "--check") else 0.5
        if rng.random() < (likely if flag in reads else 0.02):
            value = rng.choice(pools[rng.random() < 0.05])
            words = value if isinstance(value, list) else [value]
            argv += words if flag == "inputs" else [flag, *words]
            if flag in ("--suite", "--check"):
                reads |= set(cli._CHECKS.get((command, value), ([],))[0])
    return argv


def test_a_random_argv_exits_0_1_or_2(tmp_path, capsys):
    # 1000 seeded draws over every subcommand and argument; here 5-6 s, about
    # 40% of them exit 0.  Exit 3 is a MemoryError, which these sizes should
    # not meet; exit 4 is an internal error.
    (tmp_path / "sim.csv").write_text("trial,x,normalized\r\n0,100,0.5\r\n1,100,0.7\r\n")
    (tmp_path / "bad.csv").write_text("trial,x\r\n0,100\r\n")
    assert set(_POOLS) == set(cli._OPTIONS)
    rng = random.Random(0)
    codes = []
    for _ in range(1000):
        argv = [a.format(sim=tmp_path / "sim.csv", bad=tmp_path / "bad.csv", tmp=tmp_path)
                for a in _draw(rng)]
        rc = main(argv)
        err = capsys.readouterr().err
        assert rc in (0, 1, 2, 3), (argv, err)
        if rc in (2, 3):
            assert "Traceback" not in err, (argv, err)
            assert err.splitlines()[-1].startswith("rmflab"), (argv, err)
        codes.append(rc)
    assert codes.count(0) > 200 and codes.count(2) > 200, codes
