"""Spans around staggrid's public functions, for the traced benchmark run.

``Tracer.install`` replaces each traced function by a wrapper in every
loaded staggrid module that binds it, which is where callers look it up
(``staggrid.ndfield.edges_from_centers``, ``staggrid.cli.read_field``, ...).
Constructors and methods are wrapped on their class.  ``uninstall`` puts
the originals back.  Spans (name, start, end, parent, op id, bytes, count)
are kept in flat arrays in memory and written out by ``save``.
"""

from __future__ import annotations

import os
import sys
from array import array
from time import perf_counter

import numpy as np


def _solve_work(args, kwargs, out):
    given = args[0].values.nbytes
    made = getattr(out, "edges", None) or getattr(out, "particular", None)
    if made is None:                      # Inconsistent: one residual
        return given + 8, 0
    return given + made.values.nbytes, made.values.size


def _residual_work(args, kwargs, out):
    return args[0].values.nbytes + 8, 0


def _average_work(args, kwargs, out):
    return args[0].values.nbytes + out.values.nbytes, out.values.size


def _completion_work(args, kwargs, out):
    family = args[0]
    given = family.particular.values.nbytes + family.null_direction.nbytes
    return given + out.values.nbytes, out.values.size


def _init_work(args, kwargs, out):
    return 2 * args[0].values.nbytes, 0


def _lines_work(args, kwargs, out):
    return 0, out[1].n_lines


def _read_work(args, kwargs, out):
    return os.path.getsize(args[0]), out.values.size


def _write_work(args, kwargs, out):
    return os.path.getsize(args[0]), args[1].values.size


#: (span name, defining module, attribute, work function).  The work
#: function gives (bytes in and out, values made or lines) of one call,
#: computed from the array sizes; it runs after the span has ended.
TARGETS = (
    ("grid.edges_from_centers", "staggrid.grid", "edges_from_centers", _solve_work),
    ("grid.alternating_residual", "staggrid.grid", "alternating_residual", _residual_work),
    ("grid.centers_from_edges", "staggrid.grid", "centers_from_edges", _average_work),
    ("grid.complete_min_norm", "staggrid.grid", "complete_min_norm", _completion_work),
    ("grid.pinned", "staggrid.grid", "Family.pinned", _completion_work),
    ("grid.field_init", "staggrid.grid", "CenterField1D.__init__", _init_work),
    ("grid.field_init", "staggrid.grid", "EdgeField1D.__init__", _init_work),
    ("ndfield.to_edges_along", "staggrid.ndfield", "to_edges_along", _lines_work),
    ("ndfield.to_centers_along", "staggrid.ndfield", "to_centers_along", _lines_work),
    ("ndfield.fieldnd_init", "staggrid.ndfield", "FieldND.__init__", None),
    ("fieldio.read_field", "staggrid.fieldio", "read_field", _read_work),
    ("fieldio.write_field", "staggrid.fieldio", "write_field", _write_work),
    ("cli.main", "staggrid.cli", "main", None),
)

_GRID = ("edges_from_centers", "alternating_residual", "centers_from_edges",
         "complete_min_norm", "pinned", "field_init")
_NDFIELD = ("to_edges_along", "to_centers_along")
_FIELDIO = ("read_field", "write_field")

#: Per-layer metrics of the traced run: name -> (unit, better).
PER_LAYER = {
    **{f"grid.{f}.{m}": ("count" if m == "calls" else "s", "lower")
       for f in _GRID for m in ("calls", "s")},
    "grid.solve_values_per_s": ("values/s", "higher"),
    "grid.bytes_computed": ("bytes", "lower"),
    **{f"ndfield.{f}.{m}": ("count" if m == "calls" else "s", "lower")
       for f in _NDFIELD for m in ("calls", "s", "self_s")},
    "ndfield.lines": ("count", "higher"),
    "ndfield.self_us_per_line": ("us", "lower"),
    "ndfield.fieldnd_init.s": ("s", "lower"),
    **{f"fieldio.{f}.{m}": ("count" if m == "calls" else "s", "lower")
       for f in _FIELDIO for m in ("calls", "s")},
    "fieldio.bytes_read": ("bytes", "lower"),
    "fieldio.bytes_written": ("bytes", "lower"),
    "fieldio.read_values_per_s": ("values/s", "higher"),
    "fieldio.write_values_per_s": ("values/s", "higher"),
    "cli.startup_s": ("s", "lower"),
    "cli.process_s": ("s", "lower"),
    "cli.main.s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


class Tracer:
    """Wraps staggrid's public functions and records a span for every call."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name = array("i")
        self.parent = array("q")
        self.op = array("q")
        self.start = array("d")
        self.end = array("d")
        self.nbytes = array("d")
        self.count = array("d")
        self.current_op = -1
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, span: str, fn, work):
        if span not in self.names:
            self.names.append(span)
        nid = self.names.index(span)
        stack = self._stack

        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.op.append(self.current_op)
            self.end.append(0.0)
            self.nbytes.append(0.0)
            self.count.append(0.0)
            stack.append(idx)
            self.start.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                stack.pop()
            if work is not None:
                self.nbytes[idx], self.count[idx] = work(args, kwargs, out)
            return out

        return traced

    def install(self) -> None:
        modules = [m for k, m in list(sys.modules.items())
                   if m is not None and (k == "staggrid" or k.startswith("staggrid."))]
        for span, modname, attr, work in TARGETS:
            module = sys.modules.get(modname)
            if module is None:
                continue
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                orig = cls.__dict__[meth]
                self._undo.append((cls, meth, orig))
                setattr(cls, meth, self._wrap(span, orig, work))
                continue
            orig = getattr(module, attr)
            wrapper = self._wrap(span, orig, work)
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is orig:
                        self._undo.append((m, key, orig))
                        setattr(m, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            obj, key, orig = self._undo.pop()
            setattr(obj, key, orig)

    def _columns(self):
        return (np.frombuffer(self.name, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.end, dtype=np.float64)
                - np.frombuffer(self.start, dtype=np.float64))

    def layer_metrics(self, rounds: int) -> dict[str, float]:
        """Per-round totals of the spans, and the rates and self times they give."""
        name, parent, dur = self._columns()
        nested = parent >= 0
        covered = np.zeros_like(dur)
        np.add.at(covered, parent[nested], dur[nested])
        self_t = dur - covered
        nbytes = np.frombuffer(self.nbytes, dtype=np.float64)
        count = np.frombuffer(self.count, dtype=np.float64)

        def total(span, column):
            if span not in self.names:
                return 0.0
            return float(column[name == self.names.index(span)].sum())

        def calls(span):
            return total(span, np.ones_like(dur))

        def rate(span):
            busy = total(span, dur)
            return total(span, count) / busy if busy > 0 else 0.0

        out = {}
        for f in _GRID:
            out[f"grid.{f}.calls"] = calls(f"grid.{f}") / rounds
            out[f"grid.{f}.s"] = total(f"grid.{f}", dur) / rounds
        out["grid.solve_values_per_s"] = rate("grid.edges_from_centers")
        out["grid.bytes_computed"] = sum(
            total(s, nbytes) for s in self.names if s.startswith("grid.")) / rounds
        for f in _NDFIELD:
            out[f"ndfield.{f}.calls"] = calls(f"ndfield.{f}") / rounds
            out[f"ndfield.{f}.s"] = total(f"ndfield.{f}", dur) / rounds
            out[f"ndfield.{f}.self_s"] = total(f"ndfield.{f}", self_t) / rounds
        lines = total("ndfield.to_edges_along", count) + total("ndfield.to_centers_along", count)
        out["ndfield.lines"] = lines / rounds
        out["ndfield.self_us_per_line"] = (
            1e6 * (out["ndfield.to_edges_along.self_s"] + out["ndfield.to_centers_along.self_s"])
            * rounds / lines if lines else 0.0)
        out["ndfield.fieldnd_init.s"] = total("ndfield.fieldnd_init", dur) / rounds
        for f in _FIELDIO:
            out[f"fieldio.{f}.calls"] = calls(f"fieldio.{f}") / rounds
            out[f"fieldio.{f}.s"] = total(f"fieldio.{f}", dur) / rounds
        out["fieldio.bytes_read"] = total("fieldio.read_field", nbytes) / rounds
        out["fieldio.bytes_written"] = total("fieldio.write_field", nbytes) / rounds
        out["fieldio.read_values_per_s"] = rate("fieldio.read_field")
        out["fieldio.write_values_per_s"] = rate("fieldio.write_field")
        out["cli.main.s"] = total("cli.main", dur) / rounds
        out["cli.main.self_s"] = total("cli.main", self_t) / rounds
        return out

    def save(self, path) -> None:
        name, parent, _ = self._columns()
        np.savez(path, names=np.array(self.names), name=name, parent=parent,
                 op=np.frombuffer(self.op, dtype=np.int64),
                 start=np.frombuffer(self.start, dtype=np.float64),
                 end=np.frombuffer(self.end, dtype=np.float64),
                 nbytes=np.frombuffer(self.nbytes, dtype=np.float64),
                 count=np.frombuffer(self.count, dtype=np.float64))
