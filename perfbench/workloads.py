"""The three benchmark workloads, as argument lists for ``rmflab.cli.main``.

A workload run repeats *cycles*.  One cycle is a fixed list of CLI
invocations that covers both models, so every cycle does the same work
whatever the run length.  Cycle ``c`` of a run with benchmark seed ``s``
passes ``--seed s * SEED_STRIDE + c * SURVEY_TRIALS``, so the inputs follow
from the seed alone and no two cycles share a realization.

No invocation passes ``--threads`` or ``--table-cache``.
"""

from __future__ import annotations

X_MAX = 1_000_000
EPSILON = "0.1"
MODELS = ("rademacher", "steinhaus")
#: Trials per ``survey`` invocation: enough that the kernel, not the
#: per-invocation table build and grid set-up, dominates the invocation.
SURVEY_TRIALS = 4
SEED_STRIDE = 100_000

#: The ``suites`` battery.  The flag says whether the subcommand reads
#: ``--model``; ``euler --check parseval`` draws random coefficients and
#: ignores it, so it runs once per pass.
BATTERY = (
    (["moments", "--suite", "hoeffding", "--points", "1000,10000,100000",
      "--trials", "10000"], True),
    (["moments", "--suite", "doob", "--trials", "2000"], True),
    (["moments", "--suite", "submartingale-y", "--trials", "2000"], True),
    (["moments", "--suite", "submartingale-z", "--trials", "2000"], True),
    (["moments", "--suite", "hypercontractive", "--trials", "5000",
      "--x-max", "1000"], True),
    (["variance", "--trials", "2000", "--points", "1000,10000,100000",
      "--x-max", "100000"], True),
    (["euler", "--check", "product-expectation", "--points", "10,100,1000",
      "--trials", "10000"], True),
    (["euler", "--check", "parseval", "--trials", "20"], False),
    (["euler", "--check", "sigma-event", "--trials", "200"], True),
    (["oracle-check", "--trials", "20", "--points", "100,1000,3000"], True),
)

WORKLOADS = ("survey", "full_grid", "suites")

#: Largest sieve limit any invocation of the workload builds
#: (``max(--x-max, 1000)``, with the CLI default ``--x-max`` of 10000).
TABLE_LIMIT = {"survey": X_MAX, "full_grid": X_MAX, "suites": 100_000}

#: Modules that must record at least one span on each workload, so that a
#: binding the tracer missed cannot read as zero time.
HOME_MODULES = {
    "survey": ("sieve", "rmf", "sums", "harness", "cli"),
    "full_grid": ("sieve", "rmf", "sums", "harness", "cli"),
    "suites": ("sieve", "rmf", "euler", "harness", "cli"),
}


def cycle_argvs(workload: str, seed: int, cycle: int) -> list[list[str]]:
    """The CLI argument lists of one cycle, without ``--out``."""
    base = str(seed * SEED_STRIDE + cycle * SURVEY_TRIALS)
    if workload == "survey":
        return [["simulate", "--x-max", str(X_MAX), "--epsilon", EPSILON,
                 "--trials", str(SURVEY_TRIALS), "--model", m, "--seed", base]
                for m in MODELS]
    if workload == "full_grid":
        return [["simulate", "--full-grid", "--trials", "1", "--x-max",
                 str(X_MAX), "--epsilon", EPSILON, "--model", m, "--seed", base]
                for m in MODELS]
    if workload == "suites":
        out = []
        for argv, per_model in BATTERY:
            for m in (MODELS if per_model else MODELS[:1]):
                out.append(argv + ["--model", m, "--seed", base])
        return out
    raise ValueError(f"unknown workload {workload!r}")


def cycle_items(workload: str, op_rows: list[int]) -> int:
    """Items completed by one cycle, given the data rows each op emitted.

    An item is one trial for ``survey``, one emitted CSV row for
    ``full_grid`` and one pass of the battery for ``suites``.
    """
    if workload == "survey":
        return SURVEY_TRIALS * len(MODELS)
    if workload == "full_grid":
        return sum(op_rows)
    return 1
