"""The package namespace: the field-file, oracle and audit names load on first use."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import staggrid

SRC = Path(__file__).resolve().parent.parent / "src"

#: The names the package imports on first use, by home module.
LAZY = {
    "exact": ("MAX_ORACLE_UNKNOWNS", "DenseSystem", "EchelonResult", "build_system",
              "determinant_exact", "row_echelon", "solve_dense"),
    "audit": ("AuditRecord", "AuditReport", "build_audit_report", "render_json",
              "render_text"),
    "fieldio": ("read_field", "write_field"),
}

# Runs in a fresh interpreter: pytest and hypothesis import json, and other
# tests import the oracle.  Prints, as its last stderr line, the watched
# modules loaded after each step, with the step's exit code.  fractions is
# watched only where numpy alone does not load it; only the audit uses it.
_SCRIPT = """
import sys
import numpy
WATCHED = ("staggrid.exact", "staggrid.audit", "json", "staggrid.fieldio",
           *(() if "fractions" in sys.modules else ("fractions",)))
steps = []
def step(name, code=0):
    steps.append((name, code, [m for m in WATCHED if m in sys.modules]))
import staggrid
step("import")
from staggrid.cli import main
centered, staggered = sys.argv[1], sys.argv[2]
step("to-edges", main(["to-edges", "--input", centered, "--axis", "0", "--n-edges", "5",
                       "--strategy", "unique", "--output", staggered]))
step("to-centers", main(["to-centers", "--input", staggered, "--axis", "0",
                         "--output", centered]))
step("classify", main(["classify", "5"]))
step("audit", main(["audit", "3", "5"]))
print(repr((WATCHED, steps)), file=sys.stderr)
"""


def test_transforms_load_neither_the_oracle_nor_json(tmp_path):
    centered, staggered = tmp_path / "c.txt", tmp_path / "e.txt"
    staggrid.write_field(centered, staggrid.FieldND([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]))
    proc = subprocess.run([sys.executable, "-c", _SCRIPT, str(centered), str(staggered)],
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr
    watched, steps = ast.literal_eval(proc.stderr.splitlines()[-1])
    fractions = ["fractions"] if "fractions" in watched else []
    assert steps == [
        ("import", 0, []),
        ("to-edges", 0, ["staggrid.fieldio"]),
        ("to-centers", 0, ["staggrid.fieldio"]),
        ("classify", 0, ["staggrid.fieldio"]),
        ("audit", 0, ["staggrid.exact", "staggrid.audit", "json", "staggrid.fieldio",
                      *fractions]),
    ]


@pytest.mark.parametrize("module,name", [(m, n) for m, names in LAZY.items() for n in names])
def test_a_lazy_name_is_its_home_modules(module, name):
    home = importlib.import_module(f"staggrid.{module}")
    assert getattr(staggrid, name) is getattr(home, name)
    assert name in dir(staggrid) and name in staggrid.__all__


def test_dir_lists_every_public_name():
    assert set(staggrid.__all__) <= set(dir(staggrid))


def test_an_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="'staggrid' has no attribute 'no_such_name'"):
        staggrid.no_such_name
