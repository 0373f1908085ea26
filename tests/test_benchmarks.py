"""The benchmark harness runs against the program as it is: every workload
once at tiny size, through the same result fields and CLI helpers the full
benchmark reads."""

import subprocess
import sys
from pathlib import Path


def test_smoke_run_reports_no_problems():
    # writes only under the git-ignored benchmarks/out/
    root = Path(__file__).parents[1]
    run = subprocess.run([sys.executable, "benchmarks/run.py", "--smoke"], cwd=root,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stdout + run.stderr
    assert ", 0 problems, " in run.stdout.splitlines()[-1]
