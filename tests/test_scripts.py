"""The runnable scripts under ``scripts/`` still run against the library."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_overfit_single_mixture_runs_two_steps():
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"),
                                                      os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "overfit_single_mixture.py"),
         "--steps", "2", "--width", "8", "--blocks", "1", "--report-every", "1"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    steps = [line for line in proc.stdout.splitlines() if line.startswith("step")]
    assert len(steps) == 2
