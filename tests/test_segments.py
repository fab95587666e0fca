"""``simulate`` walks its grid in segments: the same bits as one whole-grid
pass, in memory that does not grow with the trial count."""

import csv
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rmflab import SampledFunction, build_tables, cli, grid_plan, harness
from rmflab.cli import main

MODELS = ["rademacher", "steinhaus"]


def _whole_grid(model: str, epsilon: float, x_max: int, seeds):
    """The grid, and run_trial's (m, v, normalized) with the carry's sup after
    it, per seed, from one plan of the whole grid with a zero carry."""
    tables = build_tables(max(x_max, 1000))
    grid = harness.test_points(epsilon, x_max)
    scale = harness.SegmentScale(grid, epsilon)
    plan = grid_plan(tables, grid)
    ref = []
    for s in seeds:
        carry = harness.TrialCarry(SampledFunction(model, s, tables), plan.stop - 1)
        ref.append((*harness.run_trial(carry, plan, scale), carry.sup))
    return grid, ref


def _bits(a) -> np.ndarray:
    return np.asarray(a, dtype=np.float64).view(np.uint64)


def _walk(monkeypatch, argv: list[str]) -> tuple[list[dict], dict]:
    """The blocks ``simulate`` hands to its writer, each trial's joined into
    one, and the summary row."""
    got = []
    monkeypatch.setattr(cli, "_emit", lambda blocks, fmt, out: got.extend(blocks))
    assert main(argv) == 0
    trials: dict[int, dict] = {}
    for block in got[:-1]:
        if len(block["x"]):
            rows = trials.setdefault(int(block["trial"][0]), {k: [] for k in block})
            for k, col in block.items():
                rows[k].append(np.asarray(col))
    assert list(trials) == sorted(trials)
    return ([{k: np.concatenate(v) for k, v in t.items()} for t in trials.values()],
            {k: v[0] for k, v in got[-1].items()})


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("epsilon", [0.1, 0.24])
@pytest.mark.parametrize("x_max", [2, 50, 99, 100, 10_001])
def test_segments_match_the_whole_grid(model, epsilon, x_max, monkeypatch):
    # x_max 2 has an empty grid, 50 and 99 no point at SUP_X_MIN = 100, and
    # segments of 7 start at the prime square 49.  Segments of one integer
    # stop at 100: at 10^4 + 1 they took 3 s a run.
    seeds = [11, 12]
    grid, ref = _whole_grid(model, epsilon, x_max, seeds)
    sups = np.asarray([r[3] for r in ref])
    for segment in ((1,) if x_max <= 100 else ()) + (7, 1000, cli._SEGMENT):
        monkeypatch.setattr(cli, "_SEGMENT", segment)
        for full in (True, False):
            argv = ["simulate", "--model", model, "--epsilon", str(epsilon),
                    "--x-max", str(x_max), "--trials", "2", "--seed", "11"]
            trials, summary = _walk(monkeypatch, argv + ["--full-grid"] * full)
            at = np.arange(grid.size) if full else cli._decimate(grid.size)
            assert len(trials) == (len(seeds) if grid.size else 0)
            for rows, (m, v, normalized, _) in zip(trials, ref):
                m = np.asarray(m, dtype=np.complex128)
                where = (segment, full)
                assert rows["x"].tolist() == grid[at].tolist(), where
                assert _bits(rows["m_re"]).tolist() == _bits(m.real[at]).tolist(), where
                assert _bits(rows["m_im"]).tolist() == _bits(m.imag[at]).tolist(), where
                assert _bits(rows["v"]).tolist() == _bits(v[at]).tolist(), where
                assert (_bits(rows["normalized"]).tolist()
                        == _bits(normalized[at]).tolist()), where
            assert summary["x"] == (int(grid[-1]) if grid.size else 0)
            assert _bits(summary["v"]) == _bits(sups.max()), (segment, full)
            assert _bits(summary["normalized"]) == _bits(sups.mean()), (segment, full)


def _simulate(out: Path, argv: str) -> Path:
    """``out``, after ``rmflab ARGV --out OUT`` has written it."""
    assert main([*argv.split(), "--out", str(out)]) == 0
    return out


def _lines(path: Path) -> list[str]:
    """The lines of a CSV file, without their \\r\\n ends."""
    with open(path, newline="") as fh:
        return fh.read().split("\r\n")[:-1]


@pytest.mark.parametrize("model", MODELS)
@pytest.mark.parametrize("eps", ["0.1", "0.24"])
def test_decimated_rows_are_full_grid_rows_and_the_summary_rows_agree(model, eps, tmp_path):
    argv = f"simulate --model {model} --epsilon {eps} --x-max 300000 --trials 3"
    paths = _simulate(tmp_path / "dec.csv", argv), _simulate(tmp_path / "full.csv",
                                                             argv + " --full-grid")
    dec, full = (_lines(p) for p in paths)
    assert set(dec[:-1]) <= set(full), "a decimated row is not a full-grid row"
    assert dec[-1] == full[-1] and dec[-1].startswith("-1,"), "summary rows differ"


@pytest.mark.parametrize("model", MODELS)
def test_the_summary_row_holds_the_statistics_of_the_trials_sups(model, tmp_path):
    # Each trial's sup is the max of its normalized column at x >= 100.
    path = _simulate(tmp_path / "sup.csv", f"simulate --full-grid --trials 4 --x-max 300000 "
                                           f"--seed 20 --model {model}")
    sups = {}
    with open(path, newline="") as fh:
        # One row at a time, each a list: a list of all 1.2e6 rows took
        # 0.8 GB, and a dict per row took most of the time.
        reader = csv.reader(fh)
        head = next(reader)
        trial_at, x_at, normalized_at = map(head.index, ("trial", "x", "normalized"))
        summary = next(reader)
        for row in reader:
            row, summary = summary, row  # every row but the last
            if int(row[x_at]) >= 100:
                trial = int(row[trial_at])
                sups[trial] = max(sups.get(trial, 0.0), float(row[normalized_at]))
    sup = np.array([sups[t] for t in range(4)])
    want = {"m_re": np.median(sup), "m_im": np.quantile(sup, 0.9), "v": sup.max(),
            "normalized": sup.mean(), "variance_ratio": np.std(sup, ddof=1)}
    assert summary[trial_at] == "-1" and sorted(sups) == [0, 1, 2, 3]
    for name, value in want.items():
        cell = summary[head.index(name)]
        assert float(cell) == float(value), (name, cell, value)


@pytest.mark.parametrize("model", MODELS)
def test_a_segment_scale_is_made_once_and_only_where_needed(model, monkeypatch, tmp_path):
    # A whole-segment scale is logged by its first x.  A segment that prints
    # no row "cannot move" a trial's sup when its max |M| over the scale at
    # its first x >= SUP_X_MIN stays a relative 1e-6 below the sup before it.
    made = []
    scale = harness.fluctuation_scale

    def logged(x, epsilon):
        if isinstance(x, np.ndarray):
            made.append(int(x[0]))
        return scale(x, epsilon)

    monkeypatch.setattr(harness, "fluctuation_scale", logged)
    x_max, seeds = 1_000_000, range(20, 24)
    assert main(["simulate", "--x-max", str(x_max), "--trials", "4", "--seed", "20",
                 "--model", model, "--out", str(tmp_path / "out.csv")]) == 0
    monkeypatch.undo()
    assert len(made) == len(set(made))
    grid, ref = _whole_grid(model, 0.1, x_max, seeds)
    printed = set((grid[cli._decimate(grid.size)] // cli._SEGMENT).tolist())
    t0 = int(np.searchsorted(grid, harness.SUP_X_MIN))
    quiet = []
    for k in range(x_max // cli._SEGMENT + 1):
        a, b = np.searchsorted(grid, [k * cli._SEGMENT, (k + 1) * cli._SEGMENT])
        f = max(a, t0)
        if k in printed or f >= b:
            continue
        floor = math.sqrt(grid[f]) * scale(int(grid[f]), 0.1)
        if all(np.abs(m[f:b]).max() / floor < (1 - 1e-6) * normalized[t0:f].max(initial=0.0)
               for m, _, normalized, _ in ref):
            quiet.append(int(grid[a]))
    assert len(quiet) >= 20 and not set(quiet) & set(made)


def _traced_peak(fn) -> int:
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("model", MODELS)
def test_a_survey_holds_its_tables_and_a_few_segments(model, tmp_path):
    # The whole-grid kernel traced 48 MB above the tables here: int64 and
    # float64 temporaries for each of the 10^6 integers.
    tables = _traced_peak(lambda: build_tables(10**6).largest_factor_table())
    argv = ["simulate", "--x-max", "1000000", "--trials", "4", "--model", model,
            "--out", str(tmp_path / "out.csv")]
    peak = _traced_peak(lambda: main(argv))
    assert peak - tables < cli._SEGMENT * cli._SEGMENT_BYTES


@pytest.mark.parametrize("model", MODELS)
def test_full_grid_peak_does_not_grow_with_the_trials(model, tmp_path):
    peaks = []
    for trials in ("1", "3"):
        argv = ["simulate", "--full-grid", "--trials", trials, "--x-max", "200000",
                "--model", model, "--out", str(tmp_path / "out.csv")]
        peaks.append(_traced_peak(lambda: main(argv)))
    assert peaks[1] < 1.1 * peaks[0]


def test_simulate_refuses_a_run_that_needs_more_memory_than_is_available(
        monkeypatch, tmp_path, capsys):
    def no_tables(limit):
        raise AssertionError("built the tables before the memory check")

    monkeypatch.setattr(cli, "_memory_available", lambda: 50 << 20)
    monkeypatch.setattr(cli, "build_tables", no_tables)
    out = tmp_path / "out.csv"
    assert main(["simulate", "--x-max", "10000000", "--out", str(out)]) == 3
    captured = capsys.readouterr()
    assert "needs about" in captured.err and "50 MB available" in captured.err
    assert captured.out == "" and not out.exists()
    # A run whose estimate fits goes ahead.
    monkeypatch.undo()
    monkeypatch.setattr(cli, "_memory_available", lambda: 50 << 20)
    assert main(["simulate", "--x-max", "100000", "--trials", "2", "--out", str(out)]) == 0
    # Where memory cannot be read, nothing is refused.
    monkeypatch.setattr(cli, "_memory_available", lambda: None)
    assert main(["simulate", "--x-max", "1000", "--out", str(out)]) == 0
