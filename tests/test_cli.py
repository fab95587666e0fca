import argparse
import csv
import dataclasses
import hashlib
import io
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rmflab
from rmflab import SampledFunction, build_tables, grid_plan, grid_statistics, harness
from rmflab import cli
from rmflab.cli import _build_parser, main
from rmflab.sums import GridCarry


def _run(args):
    return main(args)


def test_simulate_thread_determinism(tmp_path, monkeypatch):
    # Reruns, and runs with one or two seed-batch workers, write the same bytes.
    outs = []
    for name, workers in (("a", 1), ("b", 2), ("c", 2)):
        monkeypatch.setattr("rmflab.rmf.WORKERS", workers)
        out = tmp_path / f"{name}.csv"
        assert _run(["simulate", "--trials", "3", "--x-max", "2000",
                     "--out", str(out)]) == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1] == outs[2]


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


@pytest.mark.parametrize("x", ["1", "2"])
def test_variance_below_3_is_a_usage_error_that_names_x(x, capsys, monkeypatch):
    monkeypatch.setattr(harness, "value_matrix", lambda *args: pytest.fail("hashed"))
    assert _run(["variance", "--trials", "10", "--points", f"1000,{x}"]) == 2
    captured = capsys.readouterr()
    assert f"x={x}: x must be >= 3" in captured.err and captured.out == ""


@pytest.mark.parametrize("argv,flag", [
    (["euler", "--check", "parseval", "--seed", "-3"], "--seed"),
    (["euler", "--check", "product-expectation", "--points", "1"], "--points"),
    (["euler", "--check", "product-expectation", "--x-max", "16"], "--x-max"),
], ids=lambda v: v if isinstance(v, str) else v[2])
def test_an_out_of_range_value_is_refused_by_its_flag(argv, flag, capsys):
    assert _run(argv + ["--trials", "100"]) == 2
    captured = capsys.readouterr()
    assert flag in captured.err and captured.out == ""


@pytest.mark.parametrize("argv", [
    ["variance", "--points", "a"],
    ["oracle-check", "--points", "1.5"],
    ["euler", "--check", "product-expectation", "--points", "10,x"],
], ids=lambda argv: argv[0])
def test_a_points_value_that_is_not_an_integer_list_is_refused_by_its_flag(argv, capsys):
    assert _run(argv) == 2
    captured = capsys.readouterr()
    assert "--points" in captured.err and captured.out == ""


def test_report_aggregates(tmp_path):
    sim = tmp_path / "sim.csv"
    agg = tmp_path / "agg.csv"
    _run(["simulate", "--trials", "2", "--x-max", "300", "--out", str(sim)])
    assert _run(["report", str(sim), "--out", str(agg)]) == 0
    with open(agg, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert rows and all(r["count"] == "2" for r in rows)


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-0.5"])
def test_report_rejects_a_normalized_value_that_is_not_finite_and_non_negative(
        value, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"trial,x,normalized\r\n0,100,0.5\r\n1,100,{value}\r\n")
    assert _run(["report", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"bad.csv:3: normalized {value} is not finite" in err and "Traceback" not in err


def test_report_accepts_a_zero_normalized_value_and_skips_summary_rows(tmp_path, capsys):
    ok = tmp_path / "ok.csv"
    ok.write_text("trial,x,normalized\r\n0,100,0\r\n1,100,0.25\r\n-1,100,nan\r\n")
    assert _run(["report", str(ok)]) == 0
    (row,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert row["count"] == "2" and row["max_normalized"] == "0.25"


@pytest.mark.parametrize("row, message", [
    ("1,100,0.7,9", "more fields than the header"),
    ("one,100,0.7", "invalid literal for int()"),
    ("1,1e2,0.7", "invalid literal for int()"),
    ("1,100,high", "could not convert string to float"),
])
def test_report_rejects_a_malformed_row_with_its_line(row, message, tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text(f"trial,x,normalized\r\n0,100,0.5\r\n{row}\r\n")
    assert _run(["report", str(bad)]) == 2
    err = capsys.readouterr().err
    assert f"bad.csv:3: {message}" in err and "Traceback" not in err


def test_report_rejects_csv_without_required_columns(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("seed,x\r\n1,100\r\n")
    assert _run(["report", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "trial" in err and "normalized" in err
    bad.write_text("trial,x,normalized\r\n0,100,0.5\r\n1,100\r\n")
    assert _run(["report", str(bad)]) == 2
    assert "bad.csv:3: too few fields" in capsys.readouterr().err


def test_python_m_rmflab_runs_the_cli():
    env = {**os.environ, "PYTHONPATH": str(Path(rmflab.__file__).parents[1])}
    assert subprocess.run([sys.executable, "-m", "rmflab", "no-such-command"],
                          capture_output=True, env=env).returncode == 2


def test_oracle_check_seeds_flag(capsys):
    assert _run(["oracle-check", "--trials", "2", "--points", "100"]) == 0
    out = capsys.readouterr().out
    assert out.count("\r\n") == 3  # header + 2 seed rows


def test_moments_m_flag(capsys):
    # --x-max sets the hypercontractive weight support.
    assert _run(["moments", "--suite", "hypercontractive", "--m", "2",
                 "--x-max", "50", "--trials", "1000"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 2  # header + single m = 2 row
    assert "m=2 N=50" in lines[1]


def test_moments_hoeffding_points_keep_their_order_and_repeats(capsys):
    assert _run(["moments", "--suite", "hoeffding", "--points", "3000,1000,3000"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["label"].split()[1] for r in rows] == ["x=3000", "x=1000", "x=3000"]
    assert rows[0] == rows[2]
    assert _run(["moments", "--suite", "hoeffding", "--points", "1000"]) == 0
    (alone,) = csv.DictReader(io.StringIO(capsys.readouterr().out))
    assert alone == rows[1]


def test_usage_errors():
    assert _run(["no-such-command"]) == 2
    assert _run(["simulate", "--epsilon", "0.9", "--trials", "1"]) == 2
    assert _run([]) == 2


#: The options each subcommand reads, and so accepts.
KEPT_FLAGS = {
    "simulate": {"--model", "--seed", "--trials", "--epsilon", "--x-max",
                 "--full-grid", "--out", "--format"},
    "oracle-check": {"--model", "--seed", "--trials", "--x-max", "--points",
                     "--out", "--format"},
    "moments": {"--suite", "--model", "--seed", "--trials", "--epsilon",
                "--x-max", "--points", "--lam", "--m", "--out", "--format"},
    "euler": {"--check", "--model", "--seed", "--trials", "--x-max",
              "--t-param", "--points", "--out", "--format"},
    "variance": {"--model", "--seed", "--trials", "--x-max", "--points",
                 "--out", "--format"},
    "report": {"--out", "--format"},
}


def test_each_subcommand_lists_exactly_the_flags_it_reads():
    sub = next(a for a in _build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(KEPT_FLAGS)
    for name, parser in sub.choices.items():
        flags = {s for a in parser._actions for s in a.option_strings}
        assert flags - {"-h", "--help"} == KEPT_FLAGS[name], name


@pytest.fixture
def sim_csv(tmp_path):
    path = tmp_path / "sim.csv"
    path.write_text("trial,x,normalized\r\n0,100,0.5\r\n1,100,0.7\r\n")
    return str(path)


@pytest.mark.parametrize("argv", [
    ["report", "{sim}", "--model", "steinhaus"],
    ["simulate", "--trials", "1", "--x-max", "100", "--t-param", "3"],
    ["simulate", "--trials", "1", "--x-max", "100", "--table-cache", "{tmp}/f.bin"],
    ["simulate", "--trials", "1", "--x-max", "100", "--threads", "2"],
    ["variance", "--trials", "400", "--points", "1000", "--epsilon", "0.2"],
    ["oracle-check", "--points", "100", "--seeds", "1"],
    ["moments", "--suite", "hypercontractive", "--trials", "1000", "--m", "1",
     "--x-max", "20", "--t-param", "3"],
], ids=lambda argv: f"{argv[0]} {argv[-2]}")
def test_subcommand_rejects_a_flag_it_does_not_read(argv, sim_csv, tmp_path, capsys):
    argv = [a.format(sim=sim_csv, tmp=tmp_path) for a in argv]
    assert _run(argv) == 2
    assert f"unrecognized arguments: {argv[-2]}" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["simulate", "--model", "steinhaus", "--seed", "3", "--trials", "2",
     "--epsilon", "0.2", "--x-max", "500", "--full-grid"],
    ["oracle-check", "--model", "steinhaus", "--seed", "3", "--trials", "1",
     "--x-max", "2000", "--points", "100,1500"],
    ["moments", "--suite", "hypercontractive", "--model", "steinhaus",
     "--seed", "3", "--trials", "1000", "--x-max", "30", "--m", "1"],
    ["euler", "--check", "parseval", "--model", "steinhaus", "--seed", "3",
     "--trials", "2", "--x-max", "2000"],
    ["variance", "--model", "steinhaus", "--seed", "3", "--trials", "400",
     "--x-max", "2000", "--points", "1000"],
    ["report", "{sim}"],
], ids=lambda argv: argv[0])
def test_subcommand_accepts_every_flag_it_reads(argv, sim_csv, tmp_path):
    out = tmp_path / "out.json"
    argv = [a.format(sim=sim_csv) for a in argv]
    assert _run(argv + ["--out", str(out), "--format", "json"]) == 0
    assert json.loads(out.read_text())


#: The suite flags each moments suite or euler check reads; it refuses the
#: others, while the flags every suite reads stay accepted.
SUITE_FLAGS = {
    ("moments", "hypercontractive"): {"--m"},
    ("moments", "hoeffding"): {"--epsilon", "--points"},
    ("moments", "doob"): {"--lam"},
    ("moments", "submartingale-z"): set(),
    ("moments", "submartingale-y"): set(),
    ("euler", "parseval"): set(),
    ("euler", "product-expectation"): {"--t-param", "--points"},
    ("euler", "sigma-event"): {"--t-param"},
}

#: A valid value of each suite flag, not the default.
SUITE_FLAG_VALUES = {"--points": "1000", "--epsilon": "0.2", "--lam": "20", "--m": "1",
                     "--t-param": "5"}


def _suite_argv(command, name):
    return [command, "--suite" if command == "moments" else "--check", name]


@pytest.mark.parametrize("command,name", list(SUITE_FLAGS))
def test_a_suite_refuses_each_suite_flag_it_does_not_read(command, name, capsys):
    unread = (set(SUITE_FLAG_VALUES) & KEPT_FLAGS[command]) - SUITE_FLAGS[command, name]
    for flag in sorted(unread):
        value = SUITE_FLAG_VALUES[flag]
        for given in ([flag, value], [f"{flag}={value}"]):
            assert _run(_suite_argv(command, name) + given) == 2, given
            err = capsys.readouterr().err
            assert f"{command} {name} does not read {flag}" in err, err


def test_unread_suite_flags_are_all_named(capsys):
    assert _run(["moments", "--suite", "doob", "--epsilon", "7", "--points", "1",
                 "--m", "9"]) == 2
    assert "does not read --epsilon, --m, --points" in capsys.readouterr().err
    assert _run(["euler", "--check", "parseval", "--t-param", "3", "--points", "4"]) == 2
    assert "does not read --points, --t-param" in capsys.readouterr().err
    # A prefix of a flag is that flag.
    assert _run(["moments", "--suite", "doob", "--eps", "7"]) == 2
    assert "does not read --epsilon" in capsys.readouterr().err


@pytest.mark.parametrize("command,name", list(SUITE_FLAGS))
def test_a_suite_reads_each_suite_flag_it_accepts(command, name, tmp_path):
    # Every suite accepts the shared flags; the suite flags it reads change
    # its output.
    trials = "1000" if name in ("hypercontractive", "hoeffding") else "100"
    argv = _suite_argv(command, name) + ["--model", "steinhaus", "--seed", "3",
                                         "--trials", trials, "--x-max", "1000"]
    outputs = []
    for given in ([], [f for flag in sorted(SUITE_FLAGS[command, name])
                       for f in (flag, SUITE_FLAG_VALUES[flag])]):
        out = tmp_path / "out.json"
        assert _run(argv + given + ["--out", str(out), "--format", "json"]) == 0, given
        outputs.append(json.loads(out.read_text()))
    assert (outputs[0] != outputs[1]) == bool(SUITE_FLAGS[command, name])


def test_io_errors_exit_2(tmp_path, sim_csv, capsys):
    assert _run(["report", str(tmp_path / "missing.csv")]) == 2
    assert "missing.csv" in capsys.readouterr().err
    assert _run(["report", sim_csv, "--out", str(tmp_path / "no" / "dir.csv")]) == 2
    assert "dir.csv" in capsys.readouterr().err


#: One argv per suite and check of every subcommand that reads --trials and --x-max.
EVERY_RUN = [["simulate"], ["variance"], ["oracle-check"]]
EVERY_RUN += [["moments", "--suite", s] for s in (
    "hypercontractive", "hoeffding", "doob", "submartingale-z", "submartingale-y")]
EVERY_RUN += [["euler", "--check", c] for c in (
    "parseval", "product-expectation", "sigma-event")]


def test_trials_must_be_positive(capsys):
    for argv in EVERY_RUN:
        for trials in ("0", "-3"):
            assert _run(argv + ["--trials", trials]) == 2, argv
            err = capsys.readouterr().err
            assert "trials must be positive" in err and "Traceback" not in err
        assert _run(argv + ["--trials", "two"]) == 2, argv
        assert "must be an integer" in capsys.readouterr().err


def test_x_max_must_be_positive(capsys):
    for argv in EVERY_RUN:
        for x_max in ("0", "-5"):
            assert _run(argv + ["--x-max", x_max]) == 2, argv
            err = capsys.readouterr().err
            assert "x_max must be positive" in err and "Traceback" not in err
        assert _run(argv + ["--x-max", "1e6"]) == 2, argv
        assert "must be an integer" in capsys.readouterr().err
    for x_max in ("1", "2"):
        assert _run(["simulate", "--trials", "1", "--x-max", x_max]) == 0


def test_lam_and_t_param_must_be_finite(capsys):
    # A NaN or infinite estimate used to pass the 3-SE rule with exit 0.
    for argv, flag, message in (
        (["moments", "--suite", "doob"], "--lam", "must be positive and finite"),
        (["euler", "--check", "product-expectation"], "--t-param", "must be finite"),
        (["euler", "--check", "sigma-event"], "--t-param", "must be finite"),
    ):
        for value in ("nan", "inf", "-inf"):
            assert _run(argv + [f"{flag}={value}"]) == 2, (flag, value)
            assert message in capsys.readouterr().err
    for lam in ("0", "-1"):
        assert _run(["moments", "--suite", "doob", f"--lam={lam}"]) == 2
        assert "must be positive and finite" in capsys.readouterr().err


def test_out_of_range_epsilon_and_t_param_are_usage_errors(capsys):
    # sigma-event --t-param 0 used to exit 4 (ZeroDivisionError) and -1 exit 2
    # with "math domain error"; hoeffding ran at any epsilon.
    sigma = ["euler", "--check", "sigma-event", "--trials", "2"]
    for value in ("0", "-1"):
        assert _run(sigma + [f"--t-param={value}"]) == 2
        err = capsys.readouterr().err
        assert "t_param must be positive" in err and "Traceback" not in err
    hoeffding = ["moments", "--suite", "hoeffding"]
    for value in ("0.3", "0.25", "0", "-1", "inf", "nan"):
        assert _run(hoeffding + [f"--epsilon={value}"]) == 2, value
        err = capsys.readouterr().err
        assert "epsilon must lie in (0, 1/4)" in err and "Traceback" not in err


def test_a_bad_simulate_epsilon_exits_before_the_tables(monkeypatch, capsys):
    # Checked before the memory pre-flight and the tables, which would take
    # 1.7 GB at this x_max, or exit 3 where that memory is not free.
    def no_tables(limit):
        raise AssertionError(f"built tables to {limit}")

    monkeypatch.setattr("rmflab.cli.build_tables", no_tables)
    for full in ([], ["--full-grid"]):
        assert _run(["simulate", "--x-max", "200000000", "--epsilon", "0.5"] + full) == 2
        err = capsys.readouterr().err
        assert "epsilon must lie in (0, 1/4)" in err and "Traceback" not in err


def test_a_non_finite_report_is_an_internal_error(monkeypatch, capsys):
    monkeypatch.setattr("rmflab.harness.fluctuation_scale", lambda x, eps: math.nan)
    assert _run(["moments", "--suite", "hoeffding"]) == 4
    err = capsys.readouterr().err
    assert "non-finite" in err and "internal error" in err


def test_a_3se_check_on_one_trial_is_a_usage_error(capsys):
    # One value has no standard error: these used to exit 1 (variance) or
    # exit 1 with a NaN std_error and RuntimeWarnings (doob).
    for argv in (["variance", "--trials", "1"],
                 ["moments", "--suite", "doob", "--trials", "1"]):
        assert _run(argv) == 2, argv
        err = capsys.readouterr().err
        assert "need at least 2 trials" in err and "Traceback" not in err
    # Subcommands without a 3-SE rule still take one trial.
    assert _run(["simulate", "--trials", "1", "--x-max", "300"]) == 0
    assert _run(["euler", "--check", "sigma-event", "--trials", "1"]) == 0


def test_internal_error_exits_4(monkeypatch, capsys):
    def broken(plan, carry):
        raise RuntimeError("negative V")

    monkeypatch.setattr("rmflab.harness.grid_statistics", broken)
    assert _run(["simulate", "--trials", "1", "--x-max", "300"]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "negative V" in err


@pytest.mark.parametrize("model", ["rademacher", "steinhaus"])
def test_a_broken_carry_makes_simulate_exit_4(model, monkeypatch, capsys):
    # The carried V is zeroed from the midpoint of the walk on; the kernel's
    # own guard must catch it.
    kernel = harness.grid_statistics

    def broken(plan, carry):
        if plan.start >= 50_000:
            carry.v = 0
        return kernel(plan, carry)

    monkeypatch.setattr("rmflab.harness.grid_statistics", broken)
    assert _run(["simulate", "--trials", "1", "--x-max", "100000", "--model", model]) == 4
    err = capsys.readouterr().err
    assert "Traceback" in err and "negative conditional variance -" in err


def test_oracle_check_flags_a_wrong_fast_path(monkeypatch, capsys):
    monkeypatch.setattr("rmflab.cli.large_prime_sum",
                        lambda F, x: rmflab.large_prime_sum_bruteforce(F, x) + 1)
    assert _run(["oracle-check", "--trials", "2", "--points", "100,1000"]) == 1
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert len(rows) == 4 and all(r["match"] == "false" for r in rows)


#: The fewest trials each check of ``EVERY_RUN`` accepts, where more than 2.
_FEWEST_TRIALS = {"hypercontractive": 1000, "hoeffding": 1000, "product-expectation": 100}


def test_every_check_exits_1_exactly_when_a_printed_row_fails(monkeypatch, capsys):
    # The exit code is read from the printed rows: a row with violated true
    # or match false gives 1.  sigma-event prints neither column.
    def run(argv):
        rc = _run(argv + ["--trials", str(_FEWEST_TRIALS.get(argv[-1], 2))])
        return rc, list(csv.DictReader(io.StringIO(capsys.readouterr().out)))

    monkeypatch.setattr("rmflab.reporting.flagged", lambda *args: True)
    reported = [a for a in EVERY_RUN if a[0] in ("moments", "variance")
                or a[-1] == "product-expectation"]
    assert len(reported) == 7
    for argv in reported:
        rc, rows = run(argv)
        assert rc == 1 and rows and {r["violated"] for r in rows} == {"true"}, argv
    assert run(["euler", "--check", "sigma-event"])[0] == 0

    monkeypatch.setattr("rmflab.cli.large_prime_sum",
                        lambda F, x: rmflab.large_prime_sum_bruteforce(F, x) + 1)
    assert run(["oracle-check"])[0] == 1
    check = cli.parseval_identity_check

    def unequal(*args):
        res = check(*args)
        return dataclasses.replace(res, rhs=res.lhs + 1.0 + 2.0 * res.error_bound)

    monkeypatch.setattr("rmflab.cli.parseval_identity_check", unequal)
    rc, rows = run(["euler", "--check", "parseval"])
    assert rc == 1 and {r["match"] for r in rows} == {"false"}


def _fmt(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _reference_full_grid(model: str, trials: int, x_max: int) -> dict[str, bytes]:
    """``simulate --full-grid`` built row by row: one dict per row, scalar
    ``abs``, written by ``csv.DictWriter`` or ``json.dumps``; only
    ``variance_ratio`` reads log log x from one numpy array, as ``normalized``
    does through ``fluctuation_scale``.
    Each trial's sup is the max of its own ``normalized`` rows over x >= 100,
    or over every row when no x reaches 100."""
    tables = build_tables(max(x_max, 1000))
    grid = harness.test_points(0.1, x_max)
    gx = grid.astype(np.float64)
    scale = np.sqrt(gx) * harness.fluctuation_scale(grid, 0.1)
    root_loglog = np.sqrt(np.log(np.log(gx)))
    plan = grid_plan(tables, grid)
    rows, sups = [], []
    for i in range(trials):
        m, v = grid_statistics(plan, GridCarry(SampledFunction(model, i, tables), plan.stop - 1))
        m = np.asarray(m, dtype=np.complex128)
        trial_rows = []
        for j in range(grid.size):
            normalized = float(abs(m[j]) / scale[j])
            trial_rows.append({
                "trial": i,
                "seed": i,
                "x": int(grid[j]),
                "m_re": float(m[j].real),
                "m_im": float(m[j].imag),
                "v": float(v[j]),
                "normalized": normalized,
                "variance_ratio": float(v[j] * root_loglog[j] / gx[j]),
                "exceed6": int(normalized > 6.0),
            })
        tail = [r for r in trial_rows if r["x"] >= 100] or trial_rows
        sups.append(max(r["normalized"] for r in tail))
        rows.extend(trial_rows)
    sups = np.asarray(sups)
    rows.append({
        "trial": -1,
        "seed": 0,
        "x": int(grid[-1]),
        "m_re": float(np.median(sups)),
        "m_im": float(np.quantile(sups, 0.9)),
        "v": float(np.max(sups)),
        "normalized": float(np.mean(sups)),
        "variance_ratio": float(np.std(sups, ddof=1)),
        "exceed6": float(np.mean(sups > 6.0)),
    })
    buf = io.StringIO()
    writer = csv.DictWriter(buf, fieldnames=list(rows[0]), lineterminator="\r\n")
    writer.writeheader()
    for r in rows:
        writer.writerow({k: _fmt(v) for k, v in r.items()})
    text = json.dumps(
        [{k: (_fmt(v) if isinstance(v, float) else v) for k, v in r.items()}
         for r in rows],
        indent=2,
    ) + "\n"
    return {"csv": buf.getvalue().encode(), "json": text.encode()}


@pytest.mark.parametrize("model,x_max", [
    pytest.param("rademacher", 20_000, id="rademacher"),
    pytest.param("steinhaus", 20_000, id="steinhaus"),
    pytest.param("rademacher", 50, id="rademacher-x_max50"),
    pytest.param("steinhaus", 50, id="steinhaus-x_max50"),
])
def test_full_grid_matches_row_by_row_reference(model, x_max, tmp_path):
    # Every x in [3, 20000] is a grid point at the default epsilon 0.1, so
    # this covers x = 389 and 5431, where math.log would put log log x 1 ulp
    # off numpy's, and Steinhaus seed 1, whose sup np.abs would put 1 ulp off
    # its column.
    # At x_max 50 no x reaches 100, so each sup is taken over every row.
    expected = _reference_full_grid(model, trials=2, x_max=x_max)
    out = tmp_path / "out"
    for fmt in ("csv", "json"):
        assert _run(["simulate", "--full-grid", "--trials", "2",
                     "--x-max", str(x_max), "--model", model, "--format", fmt,
                     "--out", str(out)]) == 0
        assert out.read_bytes() == expected[fmt], fmt


#: The integer columns of Rademacher trial rows, and the sha256 of their
#: text, one ``,``-joined line per row ending in ``\n``.  M and V are exact
#: integers, so unlike the float columns these do not depend on how a numpy
#: build or CPU rounds np.log, np.hypot, cos or sin; only the choice of grid
#: points and decimated rows goes through floats.
_INTEGER_COLUMNS = ("trial", "seed", "x", "m_re", "m_im", "v")
_INTEGER_ANCHORS = {
    "--x-max 20000":
        "fbe825e554d86fd7f29290f850c8de7bbbae93c1ca039a8d38c9dba22f5ca4eb",
    "--full-grid --trials 2 --x-max 20000":
        "d5e1520d65411643c6d7e923d702d95da7bb60f1c015f7d6ec4b35c23239964b",
    "--epsilon 0.24 --x-max 300000 --trials 5":
        "b5f83b828057be469ae96682658d9f0d9157763f43557c4edc54beb47d92e2ac",
}


@pytest.mark.parametrize("flags", list(_INTEGER_ANCHORS))
def test_rademacher_integer_columns_match_their_anchors(flags, tmp_path):
    out = tmp_path / "out.csv"
    assert _run(["simulate", *flags.split(), "--out", str(out)]) == 0
    digest = hashlib.sha256()
    with open(out, newline="") as fh:
        for row in csv.DictReader(fh):
            if int(row["trial"]) >= 0:
                cells = [row[k] for k in _INTEGER_COLUMNS]
                assert all(str(int(c)) == c for c in cells), cells
                digest.update((",".join(cells) + "\n").encode())
    assert digest.hexdigest() == _INTEGER_ANCHORS[flags]


@pytest.mark.parametrize("model", ["rademacher", "steinhaus"])
def test_chunk_size_does_not_change_the_bytes(model, monkeypatch, tmp_path):
    argv = ["simulate", "--full-grid", "--trials", "2", "--x-max", "2000",
            "--model", model]
    for fmt in ("csv", "json"):
        outs = []
        for rows in (None, 1, 7):
            if rows:
                monkeypatch.setattr(cli, "_CHUNK_ROWS", rows)
            out = tmp_path / f"{fmt}{rows}"
            assert _run(argv + ["--format", fmt, "--out", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1] == outs[2], fmt
        monkeypatch.undo()


def test_emit_splits_a_block_into_equal_chunks(monkeypatch, tmp_path):
    # 15 rows at most 7 a chunk are 5 + 5 + 5, not 7 + 7 + 1.
    sizes = []
    join_rows = cli.rowtext.join_rows

    def recording(cells, literals):
        sizes.append(cells[0].shape[1])
        return join_rows(cells, literals)

    monkeypatch.setattr(cli, "_CHUNK_ROWS", 7)
    monkeypatch.setattr(cli.rowtext, "join_rows", recording)
    cli._emit([{"n": np.arange(15)}, {"n": np.arange(14)}], "csv", str(tmp_path / "out"))
    assert sizes == [5, 5, 5, 7, 7]
    assert (tmp_path / "out").read_bytes() == b"n\r\n" + b"".join(
        b"%d\r\n" % i for i in [*range(15), *range(14)])


def _percent_rows(rows: list[dict], fmt: str) -> str:
    """Dict rows as text through one ``%`` template per row: the reference
    for the CLI's numpy row text."""
    cols = [np.asarray([r[k] for r in rows]) for k in rows[0]]
    specs, convs = [], []
    for c in cols:
        spec, conv = "%s", None
        if c.dtype.kind in "iu":
            spec = "%d"
        elif c.dtype.kind == "f":
            spec = '"%.17g"' if fmt == "json" else "%.17g"
        elif c.dtype.kind == "b":
            conv = {True: "true", False: "false"}.get
        else:
            conv = json.dumps if fmt == "json" else cli._csv_field
        specs.append(spec)
        convs.append(conv)
    values = zip(*[c.tolist() if f is None else list(map(f, c.tolist()))
                   for c, f in zip(cols, convs)])
    if fmt == "json":
        template = "  {\n" + ",\n".join(
            f"    {json.dumps(k).replace('%', '%%')}: {spec}"
            for k, spec in zip(rows[0], specs)) + "\n  }"
        return "[\n" + ",\n".join(template % v for v in values) + "\n]\n"
    header = ",".join(map(cli._csv_field, rows[0])) + "\r\n"
    return header + "".join(",".join(specs) % v + "\r\n" for v in values)


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_emit_rows_matches_the_percent_template(fmt, capsys):
    texts = ['a,b', 'say "hi"', "cr\rlf\n", "ünïcödé ∑", "nul\x00inside", ""]
    rows = [{"label": t, "ok": i % 2 == 0, "n": -(10 ** i) * (i % 3 - 1),
             "x": (-1.5) ** i / 7, "50% \"key\"": i}
            for i, t in enumerate(texts)]
    cli._emit_rows(rows, fmt, None)
    assert capsys.readouterr().out == _percent_rows(rows, fmt)


@pytest.mark.parametrize("suite", ["hypercontractive", "hoeffding", "doob",
                                   "submartingale-z", "submartingale-y"])
def test_moments_suites_run_with_default_trials(suite, capsys):
    assert _run(["moments", "--suite", suite]) in (0, 1)
    assert "need at least" not in capsys.readouterr().err


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_whole_float_columns_print_as_the_percent_template(fmt, capsys, monkeypatch):
    # Whole-number float columns take the %d path only when every value
    # prints the same way there; each column below breaks that by one value.
    big = 2.0 ** 53
    cols = {"whole": [0.0, 3.0, -(big - 1), big - 1, 12.0],
            "neg_zero": [0.0, 3.0, -0.0, 1.0, 2.0],
            "big": [0.0, 3.0, big, 1.0, 2.0],
            "neg_big": [0.0, 3.0, -big, 1.0, 2.0],
            "nan": [0.0, 3.0, math.nan, 1.0, 2.0],
            "inf": [0.0, -math.inf, 3.0, 1.0, math.inf],
            "half": [0.0, 3.0, 0.5, 1.0, 2.0],
            "n": [-1, 0, 10 ** 12, 7, -(2 ** 62)]}
    rows = [{k: v[i] for k, v in cols.items()} for i in range(5)]
    calls = []
    int_text = cli.rowtext.int_text

    def recording(group):
        calls.append([c.dtype.kind for c in group])
        return int_text(group)

    monkeypatch.setattr(cli.rowtext, "int_text", recording)
    empty = {k: np.array([], dtype=np.asarray(v).dtype) for k, v in cols.items()}
    cli._emit([empty, {k: np.array(v) for k, v in cols.items()}, empty], fmt, None)
    assert capsys.readouterr().out == _percent_rows(rows, fmt)
    assert calls == [["i", "i"]]  # one call a chunk: "whole" and "n"


def test_chunk_cells_of_an_empty_block():
    cols = [np.array([], dtype=t) for t in (np.float64, np.int64, bool, "U1")]
    cells = cli._chunk_cells(cols, [c.dtype.kind for c in cols], "csv")
    assert [c.shape[1] for c in cells] == [0, 0, 0, 0]
    assert cli.rowtext.join_rows(cells, ["", ",", ",", ",", "\r\n"]) == ""
