import os
import subprocess
import sys
from pathlib import Path

import rmflab

DEMOS = Path(__file__).parents[1] / "demos"


def test_demos_run():
    env = {**os.environ, "PYTHONPATH": str(Path(rmflab.__file__).parents[1])}
    for argv in (["sup_growth_survey.py", "2", "10000"],
                 ["variance_snapshot.py", "50"],
                 ["euler_integral_tour.py"]):
        proc = subprocess.run([sys.executable, str(DEMOS / argv[0]), *argv[1:]],
                              capture_output=True, text=True, env=env)
        assert proc.returncode == 0, (argv, proc.stderr)
