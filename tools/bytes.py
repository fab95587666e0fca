"""The byte gate: this tree's CLI output against another tree's, argv by argv.

Usage::

    python tools/bytes.py PARENT_TREE

Each argument list runs as ``python -m rmflab ARGV`` in a fresh process in
both trees (``PYTHONPATH=TREE/src``, from ``TREE``), once unpinned and, where
``taskset`` exists, once pinned to CPU 0.  One line per argv and pinning
gives the sha256 of stdout and the exit code; the script exits 1 when any of
them differs between the trees, and 0 when every one is identical.

The argument lists are every ``perfbench/workloads.py`` ``cycle_argvs`` list
at seeds 7 and 3, cycles 0 and 1 (that file is imported, never written),
and, for both models, a fixed list of edge cases: a full grid as CSV and as
JSON, grids that stop below or at SUP_X_MIN = 100 or are empty, a wide
epsilon, a survey whose sups move after its first segment, a survey of two
groups of trials, ``oracle-check`` and a ``variance`` run with too few
trials for the 3-SE rule, which exits 1.
"""

from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

EXTRA = [
    ["simulate", "--full-grid", "--trials", "2", "--x-max", "200000"],
    ["simulate", "--full-grid", "--trials", "2", "--x-max", "200000", "--format", "json"],
    ["simulate", "--trials", "2", "--x-max", "50"],
    ["simulate", "--x-max", "2", "--full-grid"],
    ["simulate", "--epsilon", "0.24", "--trials", "4", "--x-max", "300000"],
    ["simulate", "--trials", "4", "--x-max", "1000000", "--seed", "20"],
    ["simulate", "--trials", "12", "--x-max", "1000000"],
    ["simulate", "--trials", "3", "--x-max", "99"],
    ["simulate", "--full-grid", "--trials", "2", "--x-max", "100", "--epsilon", "0.24"],
    ["oracle-check"],
    ["variance", "--trials", "3", "--points", "1000", "--seed", "3"],
]


def _workloads():
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def argvs() -> list[list[str]]:
    w = _workloads()
    out = [argv for seed in (7, 3) for cycle in (0, 1) for name in w.WORKLOADS
           for argv in w.cycle_argvs(name, seed, cycle)]
    return out + [argv + ["--model", m] for argv in EXTRA for m in w.MODELS]


def run(tree: Path, argv: list[str], pin: list[str]) -> tuple[str, int]:
    """sha256 of stdout and the exit code of one fresh CLI process in ``tree``."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"))
    proc = subprocess.run([*pin, sys.executable, "-m", "rmflab", *argv], cwd=tree, env=env,
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
    return hashlib.sha256(proc.stdout).hexdigest(), proc.returncode


def main(parent: str) -> int:
    trees = (Path(parent).resolve(), ROOT)
    pins = {"unpinned": []}
    if shutil.which("taskset"):
        pins["taskset -c 0"] = ["taskset", "-c", "0"]
    jobs = [(argv, label, pin) for argv in argvs() for label, pin in pins.items()]
    differ = 0
    with ThreadPoolExecutor(2) as pool:
        results = pool.map(lambda job: [run(t, job[0], job[2]) for t in trees], jobs)
        for (argv, label, _), (old, new) in zip(jobs, results):
            same = old == new
            differ += not same
            got = (f"exit {new[1]}  {new[0]}" if same
                   else f"exit {old[1]}/{new[1]}  {old[0]}/{new[0]}")
            print(f"{'same' if same else 'DIFF'}  {label:12}  {got}  {' '.join(argv)}",
                  flush=True)
    print(f"{len(jobs) - differ} of {len(jobs)} runs identical "
          f"({len(jobs) // len(pins)} argv x {', '.join(pins)})"
          + ("" if differ else "; no difference"))
    return 1 if differ else 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1]))
