"""Checks of CLI outputs, made after the timed phase.

``simulate`` CSVs are checked structurally and, on a seeded sample of rows
per trial, against rmflab's definition-level oracles:
``large_prime_sum_bruteforce`` for ``m_re``/``m_im`` and
``conditional_variance`` for ``v``.  Rademacher values must be exact;
Steinhaus values must agree within ``STEINHAUS_RTOL`` relative.

Suite CSVs are checked for their header, row count, every ``violated`` and
``match`` column, and an exit code that agrees with those columns.  A
``violated`` row is a statistical violation (a 3-SE rule false-alarms about
0.3 % of the time per check), counted but not a failure; a ``match`` that is
false, or disagrees with the numbers in its own row, is a failure.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

STEINHAUS_RTOL = 1e-9

SIMULATE_HEADER = ["trial", "seed", "x", "m_re", "m_im", "v", "normalized",
                   "variance_ratio", "exceed6"]
REPORT_HEADER = ["label", "estimate", "std_error", "bound", "trials", "violated"]
SUITE_HEADERS = {
    "variance": ["x", "trials", "mean_v", "std_error", "exact_ev", "violated",
                 "ratio_median", "ratio_q90"],
    "parseval": ["case", "n_coeffs", "lhs", "rhs", "error_bound", "match"],
    "sigma-event": ["x_prev", "trials", "threshold", "exceed_fraction",
                    "budget_shape", "mean_sqrt_ratio"],
    "oracle-check": ["seed", "x", "fast_re", "fast_im", "brute_re", "brute_im",
                     "match"],
}


@dataclass
class Checked:
    """What one output file held and what was wrong with it."""

    rows: int = 0  # data rows, header excluded
    nbytes: int = 0
    sha256: str = ""
    violations: int = 0
    problems: list[str] = field(default_factory=list)


def _opt(argv: list[str], flag: str, default=None):
    return argv[argv.index(flag) + 1] if flag in argv else default


def _digest(path: Path) -> tuple[str, int, int]:
    """sha256, byte count and line count, streamed in 1 MiB blocks."""
    h = hashlib.sha256()
    nbytes = nlines = 0
    with open(path, "rb") as fh:
        while block := fh.read(1 << 20):
            h.update(block)
            nbytes += len(block)
            nlines += block.count(b"\n")
    return h.hexdigest(), nbytes, nlines


def _row(line: bytes) -> list[str]:
    return next(csv.reader([line.decode()]))


def check_simulate(path: Path, argv: list[str], tables, samples: int,
                   rng: np.random.Generator) -> Checked:
    """Check one ``simulate`` CSV; ``samples`` rows per trial meet the oracle."""
    from rmflab import (SampledFunction, conditional_variance,
                        large_prime_sum_bruteforce)
    from rmflab.harness import test_points

    out = Checked()
    out.sha256, out.nbytes, nlines = _digest(path)
    out.rows = nlines - 1
    model = _opt(argv, "--model", "rademacher")
    trials = int(_opt(argv, "--trials", 100))
    base = int(_opt(argv, "--seed", 0))
    grid = test_points(float(_opt(argv, "--epsilon", 0.1)),
                       int(_opt(argv, "--x-max", 10_000)))
    per_trial, rest = divmod(out.rows - 1, trials)
    if rest or not 0 < per_trial <= grid.size or (
            "--full-grid" in argv and per_trial != grid.size):
        out.problems.append(f"{out.rows} data rows for {trials} trials "
                            f"on a {grid.size}-point grid")
        return out

    # Line numbers (header = 0) to read: each trial's ends, its sample, and
    # the summary row.
    want: dict[int, tuple[int, bool]] = {}
    for t in range(trials):
        first = 1 + t * per_trial
        want[first] = want[first + per_trial - 1] = (t, False)
        for j in rng.choice(per_trial, size=min(samples, per_trial), replace=False):
            want[first + int(j)] = (t, True)
    lines: dict[int, bytes] = {}
    with open(path, "rb") as fh:
        for i, line in enumerate(fh):
            if i == 0 or i in want or i == nlines - 1:
                lines[i] = line
    if _row(lines[0]) != SIMULATE_HEADER:
        out.problems.append(f"header {_row(lines[0])}")
        return out
    summary = _row(lines[nlines - 1])
    if summary[:3] != ["-1", str(base), str(grid[-1])]:
        out.problems.append(f"summary row {summary[:3]}")

    funcs = {}
    for i in sorted(want):
        t, sampled = want[i]
        row = _row(lines[i])
        trial, seed, x = int(row[0]), int(row[1]), int(row[2])
        if trial != t or seed != base + t:
            out.problems.append(f"line {i}: trial/seed {trial}/{seed}, want {t}/{base + t}")
            continue
        pos, k = (i - 1) % per_trial, int(np.searchsorted(grid, x))
        if (k == grid.size or grid[k] != x
                or (pos == 0 and k != 0) or (pos == per_trial - 1 and k != grid.size - 1)
                or ("--full-grid" in argv and k != pos)):
            out.problems.append(f"line {i}: x={x} is not the expected grid point")
            continue
        if not sampled:
            continue
        if seed not in funcs:
            funcs[seed] = SampledFunction(model, seed, tables)
        F = funcs[seed]
        m = complex(float(row[3]), float(row[4]))
        v = float(row[5])
        brute = large_prime_sum_bruteforce(F, x)
        cv = conditional_variance(F, x)
        if model == "rademacher":
            ok = m.real == brute and m.imag == 0.0 and v == cv
        else:
            ok = (abs(m - brute) <= STEINHAUS_RTOL * max(1.0, abs(brute))
                  and abs(v - cv) <= STEINHAUS_RTOL * max(1.0, cv))
        if not ok:
            out.problems.append(f"line {i} (seed {seed}, x {x}): M={m}, V={v}; "
                                f"oracle M={brute}, V={cv}")
    return out


def _expected_rows(argv: list[str]) -> int:
    npoints = len(_opt(argv, "--points", "").split(","))
    trials = int(_opt(argv, "--trials", 100))
    kind = _opt(argv, "--suite") or _opt(argv, "--check") or argv[0]
    return {"hoeffding": npoints, "doob": 2, "submartingale-y": 1,
            "submartingale-z": 10, "hypercontractive": 3, "variance": npoints,
            "product-expectation": npoints, "parseval": trials,
            "sigma-event": 1, "oracle-check": trials * npoints}[kind]


def _bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise ValueError(f"not a boolean: {text!r}")
    return text == "true"


def check_suite(path: Path, argv: list[str], rc: int) -> Checked:
    """Check one battery CSV and the exit code it came with."""
    out = Checked()
    out.sha256, out.nbytes, _ = _digest(path)
    kind = _opt(argv, "--check") if argv[0] == "euler" else argv[0]
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        header, rows = reader.fieldnames or [], list(reader)
    out.rows = len(rows)
    want = SUITE_HEADERS.get(kind, REPORT_HEADER)
    if header[: len(want)] != want:
        out.problems.append(f"header {header}")
        return out
    if len(rows) != _expected_rows(argv):
        out.problems.append(f"{len(rows)} rows, want {_expected_rows(argv)}")
    mismatches = false_matches = 0
    try:
        for i, r in enumerate(rows):
            if "violated" in r:
                out.violations += _bool(r["violated"])
                for k in ("estimate", "std_error", "bound"):
                    if k in r and not math.isfinite(float(r[k])):
                        out.problems.append(f"row {i}: {k}={r[k]}")
            if "match" in r:
                match = _bool(r["match"])
                false_matches += not match
                if kind == "oracle-check":
                    fast = complex(float(r["fast_re"]), float(r["fast_im"]))
                    brute = complex(float(r["brute_re"]), float(r["brute_im"]))
                    agree = abs(fast - brute) <= 1e-9 * max(1.0, abs(brute))
                else:
                    lhs, rhs = float(r["lhs"]), float(r["rhs"])
                    agree = abs(lhs - rhs) <= (float(r["error_bound"])
                                               + 1e-6 * max(1.0, abs(lhs)))
                if match != agree:
                    out.problems.append(f"row {i}: match={r['match']} but the "
                                        f"row's own numbers say {agree}")
                mismatches += not agree
    except ValueError as exc:
        out.problems.append(str(exc))
        return out
    if mismatches:
        out.problems.append(f"{mismatches} oracle mismatches")
    want_rc = 0 if kind == "sigma-event" else int(bool(out.violations or false_matches))
    if rc != want_rc:
        out.problems.append(f"exit code {rc}, rows imply {want_rc}")
    return out
