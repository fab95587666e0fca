"""Spans and exact work counts around the public functions of ``rmflab``.

The tracer lives entirely in the benchmark: it replaces each listed public
function (or method) with a wrapper, in every ``rmflab`` module namespace
that binds it by name, so calls through ``from .x import f`` imports are
seen too.  A name missing at the commit under test is reported as absent.

Each span records its name, start, end, the span that caused it and the
CLI invocation it belongs to.  Self time is a span's duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from dataclasses import dataclass


def _size(result) -> int:
    return int(result.size)


def _first_size(result) -> int:
    return int(result[0].size)


def _table_integers(result) -> int:
    return int(result.limit) + 1


@dataclass(frozen=True)
class Target:
    """One traced name: ``module.[owner.]attr``, with its optional counter."""

    module: str
    attr: str
    owner: str | None = None
    count_name: str | None = None
    count: object = None

    @property
    def name(self) -> str:
        return f"{self.module}.{self.attr}"


TARGETS = (
    Target("sieve", "build_tables", None, "integers", _table_integers),
    Target("sieve", "largest_factor_table", "PrimeTables"),
    Target("rmf", "values_up_to", "SampledFunction", "integers", _size),
    Target("rmf", "prime_value_matrix", None, "values", _size),
    Target("rmf", "value_matrix", None, "cells", _size),
    Target("sums", "grid_statistics", None, "points", _first_size),
    Target("harness", "run_trial"),
    Target("harness", "test_points"),
    Target("harness", "hoeffding_tail_check"),
    Target("harness", "doob_check"),
    Target("harness", "y_submartingale_check"),
    Target("harness", "submartingale_z_check"),
    Target("harness", "hypercontractive_check"),
    Target("harness", "variance_ratio_ensemble"),
    Target("harness", "sigma_event_statistic"),
    Target("euler", "log_factor_matrix", None, "cells", _size),
    Target("euler", "integral_on_grid"),
    Target("euler", "parseval_integral"),
    Target("euler", "parseval_identity_check"),
    Target("euler", "expected_product_identity_check"),
    Target("cli", "main"),
)

MODULES = ("sieve", "rmf", "sums", "euler", "harness", "cli")


class Tracer:
    """Collects spans in memory; :meth:`summary` aggregates them."""

    def __init__(self):
        self.spans: list[tuple] = []  # (id, parent, name, start, end, self_s, op, cycle)
        # Work counts and quadrature failures are kept for cycle 0 only: they
        # follow from the seed, while later cycles depend on the run length.
        self.counts: dict[str, int] = {}
        self.quadrature_failures = 0
        self.present: list[str] = []
        self.absent: list[str] = []
        self.uncounted: set[str] = set()  # counted names whose result changed shape
        self.op = 0
        self.cycle = 0
        self._stack: list[list] = []  # [span id, child seconds]
        self._next_id = 0

    def _wrap(self, target: Target, fn):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else None
            frame = [sid, 0.0]
            tracer._stack.append(frame)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                if (type(exc).__name__ == "QuadratureError" and tracer.cycle == 0
                        and not getattr(exc, "_perfbench_seen", False)):
                    exc._perfbench_seen = True
                    tracer.quadrature_failures += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                dur = end - start
                if parent is not None:
                    parent[1] += dur
                tracer.spans.append((sid, parent[0] if parent else None,
                                     target.name, start, end, dur - frame[1],
                                     tracer.op, tracer.cycle))
            if target.count is not None and tracer.cycle == 0:
                try:
                    count = target.count(result)
                except (AttributeError, TypeError, IndexError):
                    tracer.uncounted.add(target.name)
                else:
                    tracer.counts[target.name] = tracer.counts.get(target.name, 0) + count
            return result

        return wrapper

    def install(self) -> None:
        """Wrap every target in the already imported ``rmflab`` modules."""
        namespaces = [m for k, m in list(sys.modules.items())
                      if m is not None and (k == "rmflab" or k.startswith("rmflab."))]
        for t in TARGETS:
            module = sys.modules.get(f"rmflab.{t.module}")
            holder = getattr(module, t.owner, None) if t.owner else module
            original = getattr(holder, t.attr, None) if holder is not None else None
            if not callable(original):
                self.absent.append(t.name)
                continue
            wrapper = self._wrap(t, original)
            if t.owner:
                setattr(holder, t.attr, wrapper)
            else:
                for ns in namespaces:
                    for key, val in list(vars(ns).items()):
                        if val is original:
                            setattr(ns, key, wrapper)
            self.present.append(t.name)

    def summary(self) -> dict:
        """Per-name and per-module totals, plus the counts of cycle 0."""
        names = {n: {"calls": 0, "s": 0.0, "self_s": 0.0,
                     "count_c0": self.counts.get(n, 0)}
                 for n in self.present}
        modules = {m: {"spans": 0, "self_s": 0.0} for m in MODULES}
        for _, _, name, start, end, self_s, _, _ in self.spans:
            agg = names[name]
            agg["calls"] += 1
            agg["s"] += end - start
            agg["self_s"] += self_s
            mod = modules[name.split(".")[0]]
            mod["spans"] += 1
            mod["self_s"] += self_s
        return {
            "names": names,
            "modules": modules,
            "absent": self.absent,
            "uncounted": sorted(self.uncounted),
            "quadrature_failures_c0": self.quadrature_failures,
            "spans": len(self.spans),
        }
