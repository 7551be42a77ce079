"""Inputs and operations of the three benchmark workloads.

A workload is a fixed list of operations.  Its sizes are fixed here and
its values come from the seed.  ``generate`` makes the random arrays (not
timed), ``build`` turns them into program inputs through staggrid's public
constructors (timed as set-up), and each ``Op.run`` is one timed sequence of
calls into staggrid.  Every operation reaches staggrid through attributes
of the package looked up at call time, so the traced run's wrappers see it.

Every workload has odd-N to-edges operations, even-N to-edges operations
(min-norm and pin in equal numbers) and to-centers operations.
"""

from __future__ import annotations

import importlib
import io
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks
from checks import CheckError, KnownFault

WORKLOADS = ("long-lines", "nd-short-lines", "cli-files")

#: Constant offset of the offset lines in ``long-lines``, like a pressure in Pa.
OFFSET = 1.0e6
#: Seed of the offset lines.  They do not depend on ``--seed``: the even-N
#: ones meet the ``alternating_residual`` fault, and the same lines must
#: fail in every run.
OFFSET_SEED = 0

#: (shape, axis) of the fields; the axis extent is the line length M.
FULL = {
    "long-lines": {"m_odd": 1_000_001, "m_even": 1_000_000},
    "nd-short-lines": {
        "odd": [((14285, 7), 1), ((20, 15, 333), 1), ((333, 20, 15), 2), ((63, 1587), 0)],
        "even": [((12500, 8), 1), ((20, 16, 312), 1), ((312, 20, 16), 2), ((64, 1562), 0)],
        "centers": [((14285, 7), 1), ((20, 15, 333), 1), ((312, 20, 16), 2), ((64, 1562), 0)],
    },
    "cli-files": {"odd": [((250, 999), 1), ((999, 250), 0)], "even": [((250, 1000), 1)],
                  "centers": [((250, 1000), 1), ((1000, 250), 0)]},
}

#: The same workloads at sizes small enough for a quick self-test.
TINY = {
    "long-lines": {"m_odd": 1001, "m_even": 1000},
    "nd-short-lines": {
        "odd": [((30, 7), 1), ((3, 15, 4), 1), ((4, 3, 15), 2), ((63, 5), 0)],
        "even": [((30, 8), 1), ((3, 16, 4), 1), ((4, 3, 16), 2), ((64, 5), 0)],
        "centers": [((30, 7), 1), ((3, 15, 4), 1), ((4, 3, 16), 2), ((64, 5), 0)],
    },
    "cli-files": {"odd": [((4, 9), 1), ((9, 4), 0)], "even": [((3, 10), 1)],
                  "centers": [((3, 10), 1), ((10, 3), 0)]},
}

CLI_TIMEOUT_S = 120


@dataclass
class Op:
    """One timed operation and the check of its output."""

    kind: str                        # "odd", "even" or "centers"
    name: str
    run: Callable[[], object]
    check: Callable[[object], float]  # worst relative error; raises on a bad output
    n_values: int                    # values the operation produces


@dataclass
class Spec:
    """Planted edges of one input and the operation run on it."""

    kind: str                              # "odd", "even" or "centers"
    strategy: str | None                   # "unique", "min-norm", "pin"; None to centers
    axis: int
    planted: np.ndarray
    pin: tuple[int, float] | None = None   # (1-based index, value) for "pin"
    label: str = ""
    may_fail: bool = False                 # may meet the named alternating_residual fault

    @property
    def name(self) -> str:
        shape = "x".join(map(str, self.planted.shape))
        return f"{self.strategy or self.kind}/{shape}/axis{self.axis}{self.label}"

    def check(self, values: np.ndarray) -> float:
        """Worst relative error of the operation's output values; raises if wrong."""
        if self.kind == "centers":
            return checks.check_centers(values, self.planted, self.axis)
        if self.strategy == "unique":
            return checks.check_odd(values, self.planted, self.axis)
        if self.strategy == "min-norm":
            return checks.check_min_norm(values, self.planted, self.axis)
        return checks.check_pinned(values, self.planted, *self.pin, self.axis)


def _rng(*key: int) -> np.random.Generator:
    return np.random.default_rng(list(key))


def generate(workload: str, seed: int, sizes: dict) -> list[Spec]:
    """The random planted edges of a workload; the same seed gives the same arrays."""
    if workload == "long-lines":
        return _generate_long_lines(seed, sizes)
    specs = []
    for kind, strategies in (("odd", ("unique",)), ("even", ("min-norm", "pin")),
                             ("centers", (None,))):
        for shape, axis in sizes[kind]:
            rng = _rng(seed, len(specs))
            planted = rng.standard_normal(shape)
            for strategy in strategies:
                pin = None
                if strategy == "pin":
                    pin = (shape[axis] // 2 + 1, float(rng.standard_normal()))
                specs.append(Spec(kind, strategy, axis, planted, pin))
    return specs


def _generate_long_lines(seed: int, sizes: dict) -> list[Spec]:
    specs = []
    for k, (kind, strategy, offset) in enumerate((
            ("odd", "unique", 0.0), ("odd", "unique", OFFSET),
            ("even", "min-norm", 0.0), ("even", "pin", 0.0),
            ("even", "min-norm", OFFSET), ("even", "pin", OFFSET),
            ("centers", None, 0.0), ("centers", None, OFFSET))):
        rng = _rng(OFFSET_SEED, k) if offset else _rng(seed, k)
        m = sizes["m_odd"] if kind == "odd" else sizes["m_even"]
        planted = offset + rng.standard_normal(m)
        pin = (m // 3 + 1, offset + float(rng.standard_normal())) if strategy == "pin" else None
        specs.append(Spec(kind, strategy, 0, planted, pin,
                          label="/offset" if offset else "/zero-mean",
                          may_fail=kind == "even" and bool(offset)))
    return specs


def build(workload: str, specs: list[Spec], sg, workdir: Path, cli=None) -> list[Op]:
    """Program inputs made from ``specs`` through staggrid's constructors, as ops."""
    if workload == "long-lines":
        return [_long_line_op(spec, sg) for spec in specs]
    if workload == "nd-short-lines":
        return [_nd_op(spec, sg) for spec in specs]
    return _cli_ops(specs, sg, workdir, cli)


def _long_line_op(spec: Spec, sg) -> Op:
    m = spec.planted.shape[0]
    grid = sg.PeriodicStagger1D(m + 2)
    if spec.kind == "centers":
        edges = sg.EdgeField1D(grid, spec.planted)
        return Op(spec.kind, spec.name, lambda: sg.centers_from_edges(edges),
                  lambda out: spec.check(out.values), m)

    centers_raw = checks.centers_of(spec.planted)
    centers = sg.CenterField1D(grid, centers_raw)
    if spec.kind == "odd":
        def check(out):
            if not isinstance(out, sg.Unique):
                raise CheckError(f"odd N gave {type(out).__name__}")
            return spec.check(out.edges.values)

        return Op(spec.kind, spec.name, lambda: sg.edges_from_centers(centers), check, m)

    def run():
        outcome = sg.edges_from_centers(centers)
        if isinstance(outcome, sg.Inconsistent):
            return outcome
        if spec.strategy == "min-norm":
            return sg.complete_min_norm(outcome)
        return outcome.pinned(*spec.pin)

    reasons = []   # the data never change, so one explanation serves every round

    def check(out):
        if isinstance(out, sg.Inconsistent):
            if not reasons:
                reasons.append(checks.explain_inconsistent(centers_raw, out.residual))
            if not spec.may_fail:
                raise CheckError(f"Inconsistent on consistent data: {reasons[0]}")
            raise KnownFault(reasons[0])
        return spec.check(out.values)

    return Op(spec.kind, spec.name, run, check, m)


def _nd_op(spec: Spec, sg) -> Op:
    axis = spec.axis
    m = spec.planted.shape[axis]
    n_lines = spec.planted.size // m
    if spec.kind == "centers":
        field = sg.FieldND(spec.planted, staggered_axis=axis)

        def run():
            return sg.to_centers_along(field, axis)
    else:
        field = sg.FieldND(checks.centers_of(spec.planted, axis))
        pin_index, pin_value = spec.pin or (None, None)

        def run():
            return sg.to_edges_along(field, axis, m + 2, spec.strategy,
                                     pin_index=pin_index, pin_value=pin_value)

    def check(out):
        result, summary = out
        want_axis = None if spec.kind == "centers" else axis
        solved = {"odd": summary.unique_lines, "even": summary.family_lines,
                  "centers": n_lines}[spec.kind]
        if result.staggered_axis != want_axis or not summary.n_lines == solved == n_lines:
            raise CheckError(f"{spec.name}: staggered_axis {result.staggered_axis}, "
                             f"summary {summary}")
        return spec.check(result.values)

    return Op(spec.kind, spec.name, run, check, spec.planted.size)


class CliRunner:
    """Runs ``staggrid`` with given arguments: as a subprocess, or in-process.

    The subprocess form is what users run.  The in-process form calls
    ``staggrid.cli.main``, so that the traced run can see inside it.
    """

    def __init__(self, src: Path, sg):
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=str(src) + (os.pathsep + path if path else ""))
        self.cwd = src.parent
        self.inprocess = False
        self._sg = sg
        importlib.import_module("staggrid.cli")   # for the in-process form

    def __call__(self, argv: list[str]) -> tuple[int, str, str]:
        if self.inprocess:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = self._sg.cli.main(argv)
            return code, out.getvalue(), err.getvalue()
        proc = subprocess.run([sys.executable, "-m", "staggrid", *argv],
                              cwd=self.cwd, env=self.env, capture_output=True,
                              text=True, timeout=CLI_TIMEOUT_S, check=False)
        return proc.returncode, proc.stdout, proc.stderr


def _cli_ops(specs: list[Spec], sg, workdir: Path, cli: CliRunner) -> list[Op]:
    ops = []
    inputs: dict[int, Path] = {}     # min-norm and pin share one input file
    for k, spec in enumerate(specs):
        axis = spec.axis
        m = spec.planted.shape[axis]
        n_lines = spec.planted.size // m
        src = inputs.get(id(spec.planted))
        if src is None:
            src = inputs[id(spec.planted)] = workdir / f"in-{k}.txt"
            field = (sg.FieldND(spec.planted, staggered_axis=axis) if spec.kind == "centers"
                     else sg.FieldND(checks.centers_of(spec.planted, axis)))
            sg.write_field(src, field)
        out_path = workdir / f"out-{k}.txt"
        if spec.kind == "centers":
            argv = ["to-centers", "--input", str(src), "--axis", str(axis),
                    "--output", str(out_path)]
            summary = {"lines": n_lines}
        else:
            argv = ["to-edges", "--input", str(src), "--axis", str(axis),
                    "--n-edges", str(m + 2), "--strategy", spec.strategy,
                    "--output", str(out_path)]
            if spec.pin:
                argv += ["--pin-index", str(spec.pin[0]), "--pin-value", repr(spec.pin[1])]
            solved = n_lines if spec.kind == "odd" else 0
            summary = {"lines": n_lines, "unique": solved,
                       "family": n_lines - solved, "inconsistent": 0}
        ops.append(Op(spec.kind, spec.name, lambda argv=argv: cli(argv),
                      _cli_check(spec, out_path, summary), spec.planted.size))
    return ops


def _cli_check(spec: Spec, out_path: Path, summary: dict[str, int]):
    def check(out):
        code, stdout, stderr = out
        if code != 0:
            raise CheckError(f"staggrid exited {code}: {stderr.strip()}")
        printed = dict(t.split("=", 1) for t in stdout.split())
        for key, want in summary.items():
            if int(printed.get(key, -1)) != want:
                raise CheckError(f"summary {stdout.strip()!r}: {key} is not {want}")
        values, staggered = checks.read_field_text(out_path)
        want_axis = None if spec.kind == "centers" else spec.axis
        if staggered != want_axis:
            raise CheckError(f"output staggered along {staggered}, not {want_axis}")
        return spec.check(values)

    return check
