"""Smoke tests for the scripts in scripts/."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_checkerboard_demo_runs():
    proc = subprocess.run([sys.executable, str(SCRIPTS / "checkerboard_demo.py")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "so the solver returns a family: particular (0, 2, 2, 4)" in proc.stdout
    assert "violate the condition: no edge field exists (residual 6)" in proc.stdout
