"""Command-line front end.

Subcommands::

    rmflab simulate       grid trajectories of the large-prime sum and variance
    rmflab oracle-check   fast evaluators vs. the definition-level brute force
    rmflab moments        the inequality suites (hypercontractive, hoeffding,
                          doob, submartingale-z, submartingale-y)
    rmflab euler          product / integral checks (parseval,
                          product-expectation, sigma-event)
    rmflab variance       ensemble distribution of V(x) vs. its exact mean
    rmflab report         aggregate rows from earlier simulate CSV output

Output is byte-deterministic for a fixed argument list (including across
worker counts): floats print exactly as ``'%.17g' % x``, 17 significant
digits, which round-trips every float64, and rows are emitted in a fixed
order.  Rows are formatted a chunk at a time with numpy
(:mod:`rmflab.rowtext`): the digits come from an exact double-double
product for 1e-4 <= |x| < 1e16, and from ``%`` for any other value; a
float column of whole numbers below 2^53 prints through the ``%d`` path.

The Monte Carlo suites run their seed batches on the CPUs in the process's
affinity mask, up to two (``taskset -c 0`` gives one worker), with one
memory budget shared by the batches in flight; see
:func:`rmflab.rmf.over_seeds`.
``simulate`` runs on the calling thread: a group's trials run on two
threads per segment were measured about 17% faster on the benchmark's
survey, but at a peak RSS of 63-64 MB against 53 MB.  It walks the
integers up to ``--x-max`` in segments of ``_SEGMENT``, each trial of a
group in turn on each segment, so its arrays beyond the sieve tables and
the values each trial carries (made once per trial, before the walk) stay
the size of a segment; see :func:`_cmd_simulate`.  M_f and V are computed
at every grid point.  A segment's scale sqrt(x) (log log x)^(1/4+eps) is
computed at most once, for every trial of the group
(:class:`rmflab.harness.SegmentScale`), and only when the segment prints
rows or may move some trial's sup; |M_f| / scale is computed only at the
printed rows and on the segments that may move a sup.  Each trial's sup is
taken the same way with or without ``--full-grid``: once it is positive, a
segment whose max |M_f|^2 over the scale^2 at its first point x >= 100
stays below the sup^2 is skipped (see :func:`rmflab.harness.run_trial`).
``euler --check parseval``, ``oracle-check``, ``submartingale-z`` and
``doob`` run one realization or one small batch at a time and do not scale.

Exit codes: 0 all checks passed, 1 some printed row has ``violated`` true
or ``match`` false, 2 usage or I/O error, 3 resource failure (a
``simulate`` whose estimated peak exceeds the memory available, or any
other ``MemoryError``), 4 internal error (with a traceback on stderr).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import traceback

import numpy as np
# Loaded now, not by the first call's np.median: its objects live as long as
# the process, and allocated among that call's large arrays they split the
# free heap, so every later call's arrays grew it.
import numpy.ma  # noqa: F401

from . import harness, rowtext
from .euler import expected_product_identity_check, parseval_identity_check
from .reporting import MomentReport
from .rmf import BATCH_CELLS, Model, SampledFunction
from .sieve import build_tables
from .sums import GridCarry, grid_plan, large_prime_sum, large_prime_sum_bruteforce


#: Most rows formatted and written per chunk: at 2**13 rows a --full-grid
#: chunk's emit working set is about 9 MiB (tracemalloc), against 32 MiB at
#: 2**15.
_CHUNK_ROWS = 1 << 13

#: Integers per segment of a ``simulate`` walk.  In the benchmark's survey
#: (10^6, 4 trials a call) 2**14 to 2**17 ran at the same speed within the
#: noise, and the peak RSS was 53 MB at 2**14, 53-54 MB at 2**15, 57 MB at
#: 2**16 and 66 MB at 2**17.
_SEGMENT = 1 << 15
#: Working set per integer of a segment: the plan and its temporaries, one
#: trial's arrays and the segment's rows with their emit chunk.  Traced at
#: 10^6, the peak above the tables per integer of a segment was 75 B
#: (Rademacher) and 225 B (Steinhaus, with its 4 trials' carried f(p)) for
#: the benchmark's survey, and 200 B and 365 B with --full-grid.
_SEGMENT_BYTES = 400


def _csv_field(s: str) -> str:
    """Quote a text field as csv.QUOTE_MINIMAL does."""
    if any(c in s for c in ',"\r\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def _literals(names: list[str], kinds: list[str], fmt: str) -> list[str]:
    """The text before each field of a row, then the text that ends the row.

    JSON rows are objects with floats as strings, each followed by ``",\n"``.
    """
    if fmt != "json":
        return ["", *[","] * (len(names) - 1), "\r\n"]
    quotes = ['"' if kind == "f" else "" for kind in kinds]
    lits, before = [], "  {\n"
    for name, quote in zip(names, quotes):
        lits.append(f"{before}    {json.dumps(name)}: {quote}")
        before = quote + ",\n"
    return lits + [before[:-2] + "\n  },\n"]


def _chunk_cells(cols: list[np.ndarray], kinds: list[str], fmt: str) -> list[np.ndarray]:
    """The cell matrices of a chunk's columns: ints print with ``%d``, floats
    with ``%.17g``, bools as ``true``/``false`` and text quoted for CSV or JSON.

    All float columns are formatted in one call, and all int columns in one.
    A float column of whole numbers below 2^53 (:func:`rowtext.whole`)
    goes with the int columns, as its int64 copy: ``%d`` prints the same
    text for less work.
    """
    cells = [None] * len(cols)
    n = len(cols[0])
    floats, ints = [], []
    for j, kind in enumerate(kinds):
        if kind == "f":
            copy = rowtext.whole(cols[j])
            if copy is None:
                floats.append((j, cols[j]))
            else:
                ints.append((j, copy))
        elif kind in "iu":
            ints.append((j, cols[j]))
    for group, text in ((floats, rowtext.float_text), (ints, rowtext.int_text)):
        if group:
            stacked = text([c for _, c in group])
            for i, (j, _) in enumerate(group):
                cells[j] = stacked[:, i * n:(i + 1) * n]
    conv = json.dumps if fmt == "json" else _csv_field
    for j, kind in enumerate(kinds):
        if kind == "b":
            cells[j] = rowtext.bool_text(cols[j])
        elif kind == "U":
            cells[j] = rowtext.str_text(list(map(conv, cols[j].tolist())))
    return cells


def _emit(blocks, fmt: str, out_path: str | None) -> None:
    """Write blocks of columns as RFC-4180 CSV or a JSON array, to a file or stdout.

    A block maps each field name to a column (a numpy array or a list) of
    the block's length, with the same names in every block. A block's rows
    are written in chunks, each formatted column by column with numpy
    (:mod:`rmflab.rowtext`). CSV starts with a header row unless there are
    no rows at all.
    """
    fh = open(out_path, "w", newline="") if out_path else sys.stdout
    try:
        started = False
        for block in blocks:
            names = list(block)
            cols = [np.asarray(c) for c in block.values()]
            kinds = [c.dtype.kind for c in cols]
            for kind in kinds:
                if kind not in "iufbU":
                    raise TypeError(f"cannot emit a column of dtype kind {kind!r}")
            literals = _literals(names, kinds, fmt)
            # Equal chunks, not a short last one: the small arrays of a short
            # chunk stayed in glibc's per-thread cache at addresses that split
            # the free heap, so later calls' large arrays grew it.
            n = len(cols[0]) if cols else 0
            parts = -(-n // _CHUNK_ROWS)
            for k in range(parts):
                chunk = [c[n * k // parts:n * (k + 1) // parts] for c in cols]
                text = rowtext.join_rows(_chunk_cells(chunk, kinds, fmt), literals)
                if fmt == "json":
                    fh.write(",\n" if started else "[\n")
                    fh.write(text[:-2])
                else:
                    if not started:
                        fh.write(",".join(map(_csv_field, names)) + "\r\n")
                    fh.write(text)
                started = True
        if fmt == "json":
            fh.write("\n]\n" if started else "[]\n")
    finally:
        if out_path:
            fh.close()


def _emit_rows(rows: list[dict], fmt: str, out_path: str | None) -> None:
    """Write a few dict rows, all with the same keys, as one block."""
    _emit([{k: [r[k] for r in rows] for k in rows[0]}] if rows else [], fmt, out_path)


def _tables(args):
    return build_tables(max(args.x_max, 1000))


def _points(args, default: list[int]) -> list[int]:
    return [int(v) for v in args.points.split(",")] if args.points else default


def _checked(reports: list[MomentReport]) -> list[dict]:
    """The rows that print ``reports``."""
    return [{"label": r.label, "estimate": float(r.estimate),
             "std_error": float(r.std_error), "bound": float(r.bound),
             "trials": r.trials, "violated": bool(r.violated),
             **{f"aux_{k}": r.aux[k] for k in sorted(r.aux)}} for r in reports]


def _decimate(n: int, keep: int = 30) -> np.ndarray:
    """Indices of ~keep geometrically spaced grid points, always incl. ends."""
    if n <= keep:
        return np.arange(n)
    idx = np.unique(
        np.round(np.geomspace(1, n, keep)).astype(np.int64) - 1
    )
    return idx


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def _memory_available() -> int | None:
    """Bytes that new allocations can take: ``MemAvailable`` from
    /proc/meminfo, else the free pages, else None where neither can be read."""
    try:
        with open("/proc/meminfo") as fh:
            for line in fh:
                if line.startswith("MemAvailable:"):
                    return int(line.split()[1]) * 1024
    except (OSError, ValueError, IndexError):
        pass
    try:
        return os.sysconf("SC_AVPHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    except (OSError, ValueError):
        return None


def _check_memory(args, top: int, group: int) -> None:
    """Raise MemoryError, before anything of size x_max is made, when the
    estimated peak of ``simulate`` exceeds the memory available.

    The estimate: the sieve table at 4 B per integer, its prime list at 8 B
    per prime and the build's transient at 16 B per prime (an int64 index
    and an int64 multiple of each prime above the square root; tracemalloc
    at 10^6), 1 B per integer of grid membership, the carried values of one
    group of trials and the hashing of one trial's primes (32 B each), and
    one segment's working set.
    """
    limit = max(args.x_max, 1000)
    value_bytes = 16 if Model(args.model) is Model.STEINHAUS else 1
    need = (4 * (limit + 1) + 24 * GridCarry.cells(limit) + top + 1
            + (group * value_bytes + 32) * GridCarry.cells(top) + _SEGMENT_BYTES * _SEGMENT)
    have = _memory_available()
    if have is not None and need > have:
        raise MemoryError(f"simulate --x-max {args.x_max} needs about {need >> 20} MB, "
                          f"{have >> 20} MB available")


def _rows(trial: int, seed: int, xs: np.ndarray, m, v, normalized) -> dict:
    """The output block of one trial's rows at the grid points ``xs``."""
    gx = xs.astype(np.float64)
    root_loglog = np.log(gx)
    np.log(root_loglog, out=root_loglog)
    np.sqrt(root_loglog, out=root_loglog)
    m = np.asarray(m, dtype=np.complex128)
    return {
        "trial": np.full(xs.size, trial),
        "seed": np.full(xs.size, seed),
        "x": xs,
        "m_re": m.real,
        "m_im": m.imag,
        "v": v,
        "normalized": normalized,
        "variance_ratio": v * root_loglog / gx,
        # reference threshold for sup exceedance studies
        "exceed6": (normalized > 6.0).astype(np.int64),
    }


def _cmd_simulate(args) -> int:
    """Walk [0, x_max] in segments of ``_SEGMENT`` integers, once per group of
    trials whose carried values fit ``BATCH_CELLS``.

    A first pass marks the grid points, 1 B per integer, so the decimated
    rows are known before the walk.  Each trial of a group gets its carry
    once, bound to its realization, and each segment its plan and its
    :class:`rmflab.harness.SegmentScale` once, for every trial of the group.
    --full-grid writes each segment's rows as soon as they are made, so
    there a group is one trial; a run that fails part-way leaves the rows
    already written.  Without it, each trial's few rows are one block,
    written after the group's walk.  A bad --epsilon exits before the
    memory check and the tables.
    """
    harness._check_epsilon(args.epsilon)
    top = args.x_max
    group = 1 if args.full_grid else max(1, BATCH_CELLS // GridCarry.cells(top))
    _check_memory(args, top, group)
    tables = _tables(args)
    ends = [(lo, min(lo + _SEGMENT, top + 1)) for lo in range(0, top + 1, _SEGMENT)]
    on_grid = np.zeros(top + 1, dtype=bool)
    for lo, hi in ends:
        on_grid[harness.test_points(args.epsilon, hi - 1, lo)] = True
    count = int(np.count_nonzero(on_grid))
    keep = None if args.full_grid else _decimate(count)
    last = top - int(np.argmax(on_grid[::-1])) if count else 0
    seeds = range(args.seed, args.seed + args.trials)
    sups = []

    def blocks():
        for first in range(0, len(seeds), group):
            trials = range(first, min(first + group, len(seeds)))
            carries = [harness.TrialCarry(SampledFunction(args.model, seeds[i], tables), top)
                       for i in trials]
            held = [[] for _ in trials]
            done = 0  # grid points in the segments before this one
            for lo, hi in ends:
                xs = np.flatnonzero(on_grid[lo:hi]) + lo
                plan = grid_plan(tables, xs, lo, hi)
                scale = harness.SegmentScale(xs, args.epsilon)
                pick = slice(None)
                if keep is not None:
                    a, b = np.searchsorted(keep, [done, done + xs.size])
                    pick = keep[a:b] - done
                done += xs.size
                for parts, i, carry in zip(held, trials, carries):
                    m, v, normalized, _ = harness.run_trial(carry, plan, scale, pick)
                    if keep is None:
                        yield _rows(i, seeds[i], xs, m, v, normalized)
                    else:
                        parts.append((xs[pick], m, v, normalized))
            if keep is not None:
                for parts, i in zip(held, trials):
                    yield _rows(i, seeds[i], *map(np.concatenate, zip(*parts)))
            sups.extend(carry.sup for carry in carries)
        sup = np.asarray(sups)
        yield {
            "trial": [-1],
            "seed": [args.seed],
            "x": [last],
            "m_re": [float(np.median(sup))],
            "m_im": [float(np.quantile(sup, 0.9))],
            "v": [float(np.max(sup))],
            "normalized": [float(np.mean(sup))],
            "variance_ratio": [float(np.std(sup, ddof=1)) if sup.size > 1 else 0.0],
            "exceed6": [float(np.mean(sup > 6.0))],
        }

    _emit(blocks(), args.format, args.out)
    return 0


def _oracle_rows(args, model: Model, tables) -> list[dict]:
    """The fast large-prime sum against the brute force, per seed and x."""
    xs = _points(args, [100, 1000, 3000])
    rows = []
    for i in range(args.trials):
        F = SampledFunction(model, args.seed + i, tables)
        for x in xs:
            fast = complex(large_prime_sum(F, x))
            brute = complex(large_prime_sum_bruteforce(F, x))
            match = abs(fast - brute) <= 1e-9 * max(1.0, abs(brute))
            rows.append(
                {
                    "seed": args.seed + i,
                    "x": x,
                    "fast_re": fast.real,
                    "fast_im": fast.imag,
                    "brute_re": brute.real,
                    "brute_im": brute.imag,
                    "match": match,
                }
            )
    return rows


def _parseval_rows(args, model: Model, tables) -> list[dict]:
    """Random coefficient cases of the Parseval identity; f plays no part."""
    if args.seed < 0:
        raise ValueError(f"--seed {args.seed}: euler parseval draws its cases from "
                         "numpy's default_rng, which needs a seed >= 0")
    rng = np.random.default_rng(args.seed)
    rows = []
    for i in range(args.trials):
        n = int(rng.integers(1, 30))
        coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
        res = parseval_identity_check(coeffs, 0.5)
        rows.append({"case": i, "n_coeffs": n, "lhs": res.lhs, "rhs": res.rhs,
                     "error_bound": res.error_bound, "match": res.match})
    return rows


def _product_rows(args, model: Model, tables) -> list[dict]:
    """The expectation identity over the primes in (x, min(x_max, 10 x)], per x."""
    xs = _points(args, [10, 100])
    for x in xs:
        if x < 2:
            raise ValueError(f"--points: x={x} must be >= 2")
        if x > args.x_max:
            raise ValueError(f"--x-max {args.x_max} is below the point x={x} of --points")
    return _checked([expected_product_identity_check(model, x, min(args.x_max, 10 * x),
                                                     args.t_param, args.trials, tables,
                                                     seed_base=args.seed) for x in xs])


def _variance_rows(args, model: Model, tables) -> list[dict]:
    """The ensemble of V(x) at each x against its exact mean."""
    xs = _points(args, [1000, 10000])
    reports = harness.variance_ratio_ensemble(model, args.trials, tables, seed_base=args.seed,
                                              xs=xs)
    return [{"x": x, "trials": r.trials, "mean_v": r.estimate, "std_error": r.std_error,
             "exact_ev": r.bound, "violated": r.violated, **r.aux}
            for x, r in zip(xs, reports)]


#: (check subcommand, its --suite or --check value, or None) -> (the suite
#: flags the check reads, its call, which returns the rows the check prints).
_CHECKS = {
    ("moments", "hypercontractive"): (["--m"], lambda a, model, tables: _checked(
        harness.hypercontractive_check(
            {n: 1.0 / n for n in range(1, a.x_max + 1)},
            (a.m,) if a.m is not None else (1, 2, 3), a.trials, model, tables,
            seed_base=a.seed))),
    ("moments", "hoeffding"): (["--epsilon", "--points"], lambda a, model, tables: _checked(
        harness.hoeffding_tail_check(model, _points(a, [1000]), a.epsilon, a.seed, a.trials,
                                     tables))),
    ("moments", "doob"): (["--lam"], lambda a, model, tables: _checked(harness.doob_check(
        "z", a.lam, a.trials, model, tables, seed_base=a.seed))),
    ("moments", "submartingale-z"): ([], lambda a, model, tables: _checked(
        harness.submartingale_z_check(model, 1000, 1365, 1375, a.trials, a.seed, tables))),
    ("moments", "submartingale-y"): ([], lambda a, model, tables: _checked([
        harness.y_submartingale_check(model, 100, 150, a.trials, a.seed, tables)])),
    ("euler", "parseval"): ([], _parseval_rows),
    ("euler", "product-expectation"): (["--t-param", "--points"], _product_rows),
    ("euler", "sigma-event"): (["--t-param"], lambda a, model, tables: [
        harness.sigma_event_statistic(model, min(a.x_max, 1000), a.trials, a.t_param,
                                      tables, seed_base=a.seed)]),
    ("variance", None): (["--points"], _variance_rows),
    ("oracle-check", None): (["--points"], _oracle_rows),
}

#: The flags only some checks read; the others refuse them.
_SUITE_FLAGS = {f for reads, _ in _CHECKS.values() for f in reads}


def _cmd_check(args) -> int:
    """Run the check ``args`` selects, after refusing any suite flag it does not read.

    Exits 1 when a printed row has ``violated`` true or ``match`` false.
    """
    name = getattr(args, "suite", getattr(args, "check", None))
    reads, call = _CHECKS[args.command, name]
    unread = sorted(args.given - set(reads))
    if unread:
        raise ValueError(f"{args.command} {name} does not read {', '.join(unread)}")
    rows = call(args, Model(args.model), _tables(args))
    _emit_rows(rows, args.format, args.out)
    return int(any(r.get("violated", False) or not r.get("match", True) for r in rows))


def _cmd_report(args) -> int:
    stats: dict[int, list[float]] = {}
    for path in args.inputs:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            missing = sorted({"trial", "x", "normalized"} - set(reader.fieldnames or ()))
            if missing:
                raise ValueError(f"{path}: missing column(s) {', '.join(missing)}")
            for row in reader:
                where = f"{path}:{reader.line_num}"
                if None in row.values():
                    raise ValueError(f"{where}: too few fields")
                if None in row:
                    raise ValueError(f"{where}: more fields than the header")
                try:
                    trial, x = int(row["trial"]), int(row["x"])
                    normalized = float(row["normalized"])
                except ValueError as exc:
                    raise ValueError(f"{where}: {exc}") from None
                if trial < 0:
                    continue
                if not 0.0 <= normalized < math.inf:
                    raise ValueError(f"{where}: normalized {row['normalized']} is not "
                                     "finite and non-negative")
                stats.setdefault(x, []).append(normalized)
    rows = []
    for x in sorted(stats):
        vals = np.asarray(stats[x])
        rows.append(
            {
                "x": x,
                "count": len(vals),
                "median_normalized": float(np.median(vals)),
                "q90_normalized": float(np.quantile(vals, 0.9)),
                "max_normalized": float(np.max(vals)),
            }
        )
    _emit_rows(rows, args.format, args.out)
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def _positive_int(what: str):
    """An argparse type: an integer of at least 1, else "{what} must be positive"."""
    def parse(value: str) -> int:
        try:
            n = int(value)
        except ValueError:
            raise argparse.ArgumentTypeError("must be an integer") from None
        if n < 1:
            raise argparse.ArgumentTypeError(f"{what} must be positive")
        return n

    return parse


def _float_type(ok, message: str):
    """An argparse type: a float for which ``ok`` holds, else ``message``."""
    def parse(value: str) -> float:
        try:
            x = float(value)
        except ValueError:
            raise argparse.ArgumentTypeError("must be a number") from None
        if not ok(x):
            raise argparse.ArgumentTypeError(message)
        return x

    return parse


_finite = _float_type(math.isfinite, "must be finite")
_positive = _float_type(lambda x: 0.0 < x < math.inf, "must be positive and finite")


class _Given(argparse.Action):
    """Store a suite flag's value and add the flag to ``args.given``."""

    def __call__(self, parser, namespace, values, option_string=None):
        setattr(namespace, self.dest, values)
        namespace.given = namespace.given | {self.option_strings[0]}


#: Every argument any subcommand reads, in the order each subcommand's
#: parser lists them; each subcommand picks its own below.
_OPTIONS = {
    "inputs": dict(nargs="+", help="simulate CSV files"),
    "--suite": dict(required=True, choices=[n for c, n in _CHECKS if c == "moments"]),
    "--check": dict(required=True, choices=[n for c, n in _CHECKS if c == "euler"]),
    "--model": dict(choices=[m.value for m in Model], default="rademacher"),
    "--seed": dict(type=int, default=0),
    "--trials": dict(type=_positive_int("trials"), default=100),
    "--epsilon": dict(type=float, default=0.1),
    "--x-max": dict(type=_positive_int("x_max"), default=10_000),
    "--full-grid": dict(action="store_true"),
    "--t-param": dict(type=_finite, default=10.0),
    "--points": dict(default=None, help="comma-separated x values"),
    "--lam": dict(type=_positive, default=50.0),
    "--m": dict(type=int, default=None,
                help="restrict the hypercontractive suite to one moment"),
    "--out": dict(default=None),
    "--format": dict(choices=["csv", "json"], default="csv"),
}

#: The arguments every check subcommand reads besides its checks' suite flags.
_CHECK_FLAGS = ["--model", "--seed", "--trials", "--x-max", "--out", "--format"]

#: Subcommand -> (handler, the arguments it reads besides the suite flags its
#: entries in ``_CHECKS`` read).
_COMMANDS = {
    "simulate": (_cmd_simulate,
                 ["--model", "--seed", "--trials", "--epsilon", "--x-max",
                  "--full-grid", "--out", "--format"]),
    "oracle-check": (_cmd_check, _CHECK_FLAGS),
    "moments": (_cmd_check, ["--suite", *_CHECK_FLAGS]),
    "euler": (_cmd_check, ["--check", *_CHECK_FLAGS]),
    "variance": (_cmd_check, _CHECK_FLAGS),
    "report": (_cmd_report, ["inputs", "--out", "--format"]),
}

#: Subcommand -> the defaults it sets apart from ``_OPTIONS``: every moments
#: suite needs at least 1000 trials.
_DEFAULTS = {"moments": {"trials": 1000}}


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="rmflab", description=__doc__.split("\n")[0])
    sub = p.add_subparsers(dest="command", required=True)
    for name, (func, flags) in _COMMANDS.items():
        sp = sub.add_parser(name)
        reads = {f for (c, _), (suite, _) in _CHECKS.items() if c == name for f in suite}
        for flag in _OPTIONS:
            if flag in flags or flag in reads:
                sp.add_argument(flag, **_OPTIONS[flag],
                                **({"action": _Given} if flag in _SUITE_FLAGS else {}))
        sp.set_defaults(func=func, given=frozenset(), **_DEFAULTS.get(name, {}))
    return p


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"rmflab: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"rmflab: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        print("rmflab: internal error", file=sys.stderr)
        return 4


def console_main() -> None:
    raise SystemExit(main())
