import os
import re
import subprocess
import sys
from pathlib import Path

import rmflab

ROOT = Path(__file__).parents[1]
DEMOS = ROOT / "demos"


def test_demos_run():
    env = {**os.environ, "PYTHONPATH": str(Path(rmflab.__file__).parents[1])}
    for argv in (["sup_growth_survey.py", "2", "10000"],
                 ["variance_snapshot.py", "50"],
                 ["euler_integral_tour.py"]):
        proc = subprocess.run([sys.executable, str(DEMOS / argv[0]), *argv[1:]],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, (argv, proc.stderr)


def test_readme_quick_start_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    ns: dict = {}
    exec(compile(block, "README.md", "exec"), ns)
    rl, tables = ns["rl"], ns["tables"]
    # The values the block's comments promise.
    assert isinstance(rl.large_prime_sum(ns["F"], 1000), int)
    assert rl.exact_expected_variance(10, rl.Model.RADEMACHER, tables) == 3.0
    assert rl.parseval_identity_check([1.0, 1.0], 0.5).lhs == 2.5
