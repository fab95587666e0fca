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
worker counts): floats are printed with ``%.17g``, 17 significant digits,
which round-trips every float64, and rows are emitted in a fixed order.

The Monte Carlo suites run their seed batches on the CPUs in the process's
affinity mask, up to two (``taskset -c 0`` gives one worker), with one
memory budget shared by the batches in flight; see
:func:`rmflab.rmf.over_seeds`.
``simulate`` runs one trial at a time: trial threads were measured no
faster and about 50% heavier.  ``euler --check parseval``,
``oracle-check``, ``submartingale-z`` and ``doob`` run one realization or
one small batch at a time and do not scale.

Exit codes: 0 all checks passed, 1 a statistical check was violated,
2 usage or I/O error, 3 resource or quadrature failure, 4 internal error
(with a traceback on stderr).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
import traceback

import numpy as np

from . import harness
from .euler import (
    QuadratureConfig,
    QuadratureError,
    expected_product_identity_check,
    parseval_identity_check,
)
from .reporting import MomentReport
from .rmf import Model, SampledFunction
from .sieve import build_tables
from .sums import grid_plan, large_prime_sum, large_prime_sum_bruteforce


#: Rows formatted and written per chunk: the text of one chunk stays a few MB.
_CHUNK_ROWS = 1 << 15

_BOOL_TEXT = {True: "true", False: "false"}


def _csv_field(s: str) -> str:
    """Quote a text field as csv.QUOTE_MINIMAL does."""
    if any(c in s for c in ',"\r\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def _row_template(names: list[str], kinds: list[str], fmt: str):
    """The ``%`` template of one row, and the per-column text conversions.

    ``kinds`` are numpy dtype kinds: ints print with ``%d``, floats with
    ``%.17g`` (a JSON string), bools as ``true``/``false`` and text as is,
    quoted for CSV or JSON.
    """
    specs, convs = [], []
    for kind in kinds:
        conv = None
        if kind in "iu":
            spec = "%d"
        elif kind == "f":
            spec = '"%.17g"' if fmt == "json" else "%.17g"
        elif kind == "b":
            spec = "%s"
            conv = _BOOL_TEXT.__getitem__
        elif kind == "U":
            spec = "%s"
            conv = json.dumps if fmt == "json" else _csv_field
        else:
            raise TypeError(f"cannot emit a column of dtype kind {kind!r}")
        specs.append(spec)
        convs.append(conv)
    if fmt == "json":
        fields = ",\n".join(
            f"    {json.dumps(n).replace('%', '%%')}: {spec}"
            for n, spec in zip(names, specs)
        )
        return "  {\n" + fields + "\n  }", convs
    return ",".join(specs) + "\r\n", convs


def _emit(blocks, fmt: str, out_path: str | None) -> None:
    """Write blocks of columns as RFC-4180 CSV or a JSON array, to a file or stdout.

    A block maps each field name to a column (a numpy array or a list) of
    the block's length, with the same names in every block. A block's rows
    are written in chunks through one ``%`` template built from its column
    types. CSV starts with a header row unless there are no rows at all.
    """
    fh = open(out_path, "w", newline="") if out_path else sys.stdout
    try:
        started = False
        for block in blocks:
            names = list(block)
            cols = [np.asarray(c) for c in block.values()]
            template, convs = _row_template(names, [c.dtype.kind for c in cols], fmt)
            for lo in range(0, len(cols[0]) if cols else 0, _CHUNK_ROWS):
                chunk = []
                for c, conv in zip(cols, convs):
                    vals = c[lo:lo + _CHUNK_ROWS].tolist()
                    chunk.append(vals if conv is None else list(map(conv, vals)))
                rows = map(template.__mod__, zip(*chunk))
                if fmt == "json":
                    fh.write(",\n" if started else "[\n")
                    fh.write(",\n".join(rows))
                else:
                    if not started:
                        fh.write(",".join(map(_csv_field, names)) + "\r\n")
                    fh.write("".join(rows))
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


def _checked(reports: list[MomentReport]) -> tuple[list[dict], bool]:
    """The rows that print ``reports``, and whether none is violated."""
    rows = [{"label": r.label, "estimate": float(r.estimate),
             "std_error": float(r.std_error), "bound": float(r.bound),
             "trials": r.trials, "violated": bool(r.violated),
             **{f"aux_{k}": r.aux[k] for k in sorted(r.aux)}} for r in reports]
    return rows, not any(r["violated"] for r in rows)


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


def _cmd_simulate(args) -> int:
    tables = _tables(args)
    grid = harness.test_points(args.epsilon, args.x_max)
    plan = grid_plan(tables, grid)
    scale = np.sqrt(grid.astype(np.float64)) * harness.fluctuation_scale(
        grid, args.epsilon)
    keep = slice(None) if args.full_grid else _decimate(grid.size)
    xs = grid[keep]
    gx = xs.astype(np.float64)
    # math.log, not np.log: they differ in the last bit at some x (first 389).
    # Filled a chunk at a time, so --full-grid never holds a float per x.
    root_loglog = np.empty(gx.size)
    for lo in range(0, gx.size, _CHUNK_ROWS):
        part = gx[lo:lo + _CHUNK_ROWS].tolist()
        root_loglog[lo:lo + len(part)] = np.fromiter(
            map(math.log, map(math.log, part)), np.float64, len(part))
    np.sqrt(root_loglog, out=root_loglog)

    def one(seed: int):
        m, v, normalized, sup = harness.run_trial(args.model, seed, tables, plan, scale)
        m = np.asarray(m[keep], dtype=np.complex128)
        return seed, m, v[keep], normalized[keep], sup

    results = list(map(one, range(args.seed, args.seed + args.trials)))
    del tables, plan, scale  # emit reads none of them, and sets the --full-grid peak

    def blocks():
        for i, (seed, m, v, normalized, _) in enumerate(results):
            yield {
                "trial": np.full(xs.size, i),
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
        sups = np.asarray([sup for *_, sup in results])
        yield {
            "trial": [-1],
            "seed": [args.seed],
            "x": [int(grid[-1]) if grid.size else 0],
            "m_re": [float(np.median(sups))],
            "m_im": [float(np.quantile(sups, 0.9))],
            "v": [float(np.max(sups))],
            "normalized": [float(np.mean(sups))],
            "variance_ratio": [float(np.std(sups, ddof=1)) if sups.size > 1 else 0.0],
            "exceed6": [float(np.mean(sups > 6.0))],
        }

    _emit(blocks(), args.format, args.out)
    return 0


def _cmd_oracle_check(args) -> int:
    tables = _tables(args)
    xs = _points(args, [100, 1000, 3000])
    rows = []
    ok = True
    for i in range(args.trials):
        F = SampledFunction(args.model, args.seed + i, tables)
        for x in xs:
            fast = complex(large_prime_sum(F, x))
            brute = complex(large_prime_sum_bruteforce(F, x))
            match = abs(fast - brute) <= 1e-9 * max(1.0, abs(brute))
            ok = ok and match
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
    _emit_rows(rows, args.format, args.out)
    return 0 if ok else 1


def _parseval_rows(args, model: Model, tables) -> tuple[list[dict], bool]:
    """Random coefficient cases of the Parseval identity; f plays no part."""
    quad = QuadratureConfig(t_cut=args.tcut, rel_tol=args.quad_tol)
    rng = np.random.default_rng(args.seed)
    rows = []
    for i in range(args.trials):
        n = int(rng.integers(1, 30))
        coeffs = rng.normal(size=n) + 1j * rng.normal(size=n)
        res = parseval_identity_check(coeffs, 0.5, quad)
        tol = res.error_bound + 1e-6 * max(1.0, abs(res.lhs))
        rows.append({"case": i, "n_coeffs": n, "lhs": res.lhs, "rhs": res.rhs,
                     "error_bound": res.error_bound,
                     "match": abs(res.lhs - res.rhs) <= tol})
    return rows, all(r["match"] for r in rows)


#: moments suite -> (the suite-specific flags it reads, its one library call,
#: which returns the reports the suite prints).
_SUITES = {
    "hypercontractive": (["--m"], lambda a, model, tables: harness.hypercontractive_check(
        {n: 1.0 / n for n in range(1, a.x_max + 1)},
        (a.m,) if a.m is not None else (1, 2, 3), a.trials, model, tables,
        seed_base=a.seed)),
    "hoeffding": (["--epsilon", "--points"], lambda a, model, tables:
                  harness.hoeffding_tail_check(model, _points(a, [1000]), a.epsilon,
                                               a.seed, a.trials, tables)),
    "doob": (["--lam"], lambda a, model, tables: harness.doob_check(
        "z", a.lam, a.trials, model, tables, seed_base=a.seed)),
    "submartingale-z": ([], lambda a, model, tables: harness.submartingale_z_check(
        model, 1000, 1365, 1375, a.trials, a.seed, tables)),
    "submartingale-y": ([], lambda a, model, tables: [harness.y_submartingale_check(
        model, 100, 150, a.trials, a.seed, tables)]),
}

#: euler check -> (the check-specific flags it reads, its call, which returns
#: the rows the check prints and whether they all pass).
_CHECKS = {
    "parseval": (["--tcut", "--quad-tol"], _parseval_rows),
    "product-expectation": (["--t-param", "--points"], lambda a, model, tables: _checked([
        expected_product_identity_check(model, x, min(a.x_max, 10 * x), a.t_param,
                                        a.trials, tables, seed_base=a.seed)
        for x in _points(a, [10, 100])])),
    "sigma-event": (["--t-param"], lambda a, model, tables: ([harness.sigma_event_statistic(
        model, min(a.x_max, 1000), a.trials, a.t_param, tables, seed_base=a.seed)], True)),
}

#: The flags only some suites or checks read; the others refuse them.
_SUITE_FLAGS = {f for table in (_SUITES, _CHECKS) for reads, _ in table.values()
                for f in reads}


def _run_suite(args, table: dict, name: str):
    """Call ``table[name]``, after refusing any suite flag it does not read."""
    reads, call = table[name]
    unread = sorted(args.given - set(reads))
    if unread:
        raise ValueError(f"{args.command} {name} does not read {', '.join(unread)}")
    return call(args, Model(args.model), _tables(args))


def _cmd_moments(args) -> int:
    rows, ok = _checked(_run_suite(args, _SUITES, args.suite))
    _emit_rows(rows, args.format, args.out)
    return 0 if ok else 1


def _cmd_euler(args) -> int:
    rows, ok = _run_suite(args, _CHECKS, args.check)
    _emit_rows(rows, args.format, args.out)
    return 0 if ok else 1


def _cmd_variance(args) -> int:
    tables = _tables(args)
    rows = harness.variance_ratio_ensemble(args.model, args.trials, tables,
                                           seed_base=args.seed,
                                           xs=_points(args, [1000, 10000]))
    _emit_rows(rows, args.format, args.out)
    return 1 if any(r["violated"] for r in rows) else 0


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


def _trials(value: str) -> int:
    try:
        n = int(value)
    except ValueError:
        raise argparse.ArgumentTypeError("must be an integer") from None
    if n < 1:
        raise argparse.ArgumentTypeError("trials must be positive")
    return n


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


#: Every argument any subcommand reads; each subcommand picks its own below.
_OPTIONS = {
    "inputs": dict(nargs="+", help="simulate CSV files"),
    "--suite": dict(required=True, choices=list(_SUITES)),
    "--check": dict(required=True, choices=list(_CHECKS)),
    "--model": dict(choices=[m.value for m in Model], default="rademacher"),
    "--seed": dict(type=int, default=0),
    "--trials": dict(type=_trials, default=100),
    "--epsilon": dict(type=float, default=0.1),
    "--x-max": dict(type=int, default=10_000),
    "--full-grid": dict(action="store_true"),
    "--points": dict(default=None, help="comma-separated x values"),
    "--lam": dict(type=_positive, default=50.0),
    "--m": dict(type=int, default=None,
                help="restrict the hypercontractive suite to one moment"),
    "--t-param": dict(type=_finite, default=10.0),
    "--tcut": dict(type=_positive, default=None),
    "--quad-tol": dict(type=_positive, default=1e-6),
    "--out": dict(default=None),
    "--format": dict(choices=["csv", "json"], default="csv"),
}

#: Subcommand -> (handler, the arguments it reads).
_COMMANDS = {
    "simulate": (_cmd_simulate,
                 ["--model", "--seed", "--trials", "--epsilon", "--x-max",
                  "--full-grid", "--out", "--format"]),
    "oracle-check": (_cmd_oracle_check,
                     ["--model", "--seed", "--trials", "--x-max", "--points",
                      "--out", "--format"]),
    "moments": (_cmd_moments,
                ["--suite", "--model", "--seed", "--trials", "--epsilon",
                 "--x-max", "--points", "--lam", "--m", "--out",
                 "--format"]),
    "euler": (_cmd_euler,
              ["--check", "--model", "--seed", "--trials", "--x-max",
               "--t-param", "--tcut", "--quad-tol", "--points", "--out",
               "--format"]),
    "variance": (_cmd_variance,
                 ["--model", "--seed", "--trials", "--x-max", "--points",
                  "--out", "--format"]),
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
        for flag in flags:
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
    except (MemoryError, QuadratureError) as exc:
        print(f"rmflab: {exc}", file=sys.stderr)
        return 3
    except Exception:
        traceback.print_exc()
        print("rmflab: internal error", file=sys.stderr)
        return 4


def console_main() -> None:
    raise SystemExit(main())
