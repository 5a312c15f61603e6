"""The README's code runs as printed."""

import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def quick_start() -> str:
    """The Python block of the README's Quick start section."""
    section = (ROOT / "README.md").read_text().split("## Quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs():
    # a fresh interpreter, as a reader would run the block
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run([sys.executable, "-W", "error::RuntimeWarning", "-c", quick_start()],
                         env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    coverage, ase_ee = run.stdout.splitlines()
    analytic, exact, mean, plus_minus, half_width = coverage.split()
    assert plus_minus == "+/-"
    assert all(0.0 < float(p) < 1.0 for p in (analytic, exact, mean))
    assert 0.0 < float(half_width) < 0.01
    assert all(float(v) > 0.0 for v in ase_ee.split())
