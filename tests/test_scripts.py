"""Smoke tests for the scripts in scripts/."""

import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_checkerboard_demo_runs():
    # pytest's filterwarnings does not reach the subprocess: a numpy warning there is an error too
    proc = subprocess.run([sys.executable, "-W", "error::RuntimeWarning",
                           str(SCRIPTS / "checkerboard_demo.py")],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert "so the solver returns a family: particular (0, 2, 2, 4)" in proc.stdout
    assert "violate the condition: no edge field exists (residual 6)" in proc.stdout


def test_code_lines_counts_code_only(tmp_path):
    # a docstring, comments and blank lines count nothing; a statement counts each of its lines
    sample = tmp_path / "sample.py"
    sample.write_text('"""Doc."""\n\n# a comment\nx = (1,\n     2)\n\n\ndef f():\n'
                      '    """Doc."""\n    return x  # why\n')
    proc = subprocess.run([sys.executable, str(SCRIPTS / "code_lines.py"), str(sample), str(sample)],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"4 {sample}\n4 {sample}\n8 code lines\n"
