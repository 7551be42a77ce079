"""Axis-wise center/edge transforms for N-dimensional fields.

A FieldND is a dense float array plus a marker saying which axis, if any,
currently holds edge values.  A transform solves every 1-D line of the
chosen axis at once, running the line kernel of :mod:`staggrid.grid` over
the view ``np.moveaxis(values, axis, -1)``: no copy, no loop per line.  Each
line gets the edges it would get alone, and the 1-D API runs the same kernel.

Only one axis may be staggered at a time.  Transforming to edges requires a
fully centered field; transforming to centers requires the requested axis
to be the staggered one.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .errors import ParityError
from .grid import (
    DEFAULT_TOLERANCE,
    PeriodicStagger1D,
    _kernel_field,
    average_lines,
    checked_floats,
    checked_int,
    complete_lines,
)


def _checked_axis(axis, ndim: int, name: str = "axis") -> int:
    """``axis`` as an int in 0..ndim-1, else ValueError."""
    axis = checked_int(axis, name)
    if not 0 <= axis < ndim:
        raise ValueError(f"{name} {axis} out of range for {ndim}-dimensional field")
    return axis


@dataclass(frozen=True, eq=False)
class FieldND:
    """Dense N-dimensional float field with at most one staggered axis.

    ``staggered_axis`` is None for a fully centered field, or the index of
    the axis whose extent counts independent edge values.  The constructor
    checks and copies outside input (:func:`~staggrid.grid.checked_floats`); the
    transforms wrap their new results.

    ``values`` must be numeric, an array or sequence that numpy holds as int,
    uint or float, each entry finite and held exactly by float64.  Object input
    is refused with ValueError, Fractions included, and so are integers too
    large for a numpy integer array, such as 2**64: a FieldND has no exact mode.
    """

    values: np.ndarray
    staggered_axis: Optional[int] = None

    def __post_init__(self) -> None:
        arr = checked_floats(self.values)
        if arr.ndim < 1:
            raise ValueError("field must have at least one dimension")
        if self.staggered_axis is not None:
            axis = _checked_axis(self.staggered_axis, arr.ndim, "staggered_axis")
            if arr.shape[axis] == 0:   # M = N - 2 >= 1 edge values per line
                raise ValueError(f"staggered axis {axis} has extent 0; "
                                 "an edge axis holds at least one value")
            object.__setattr__(self, "staggered_axis", axis)
        object.__setattr__(self, "values", arr)

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.values.shape


@dataclass(frozen=True)
class TransformSummary:
    """Per-line accounting for one axis transform.

    ``max_residual`` is the largest |2 S| seen across even-N lines (0.0 when
    none apply).  No line is counted as inconsistent: such a line raises
    instead of being skipped.
    """

    n_lines: int
    unique_lines: int = 0
    family_lines: int = 0
    max_residual: float = 0.0


def to_edges_along(field: FieldND, axis: int, n_edges: int, strategy: str,
                   tolerance: float = DEFAULT_TOLERANCE,
                   pin_index: Optional[int] = None,
                   pin_value: Optional[float] = None
                   ) -> Tuple[FieldND, TransformSummary]:
    """Recover edge values along one axis of a fully centered field.

    The axis extent must equal n_edges - 2.  ``strategy`` selects how each
    line's solution is produced, through :func:`staggrid.grid.complete_lines`:
    "unique" needs odd n_edges, "min-norm" and "pin" need even n_edges
    ("pin" also needs pin_index and pin_value).  Any line failing the
    even-N consistency test raises InconsistentDataError carrying the
    multi-index of the first such line, in C order, in ``line_coords``.
    Edges that overflow float64 raise ValueError.
    """
    axis = _checked_axis(axis, field.values.ndim)
    if field.staggered_axis is not None:
        raise ParityError(
            f"field is already staggered along axis {field.staggered_axis}; "
            "edge recovery needs a fully centered field"
        )
    grid = PeriodicStagger1D(n_edges)
    m = grid.n_unknowns
    if field.values.shape[axis] != m:
        raise ValueError(
            f"axis {axis} has extent {field.values.shape[axis]} but n_edges={n_edges} "
            f"implies {m} centers"
        )
    edges, residual = complete_lines(np.moveaxis(field.values, axis, -1), strategy,
                                     tolerance, pin_index, pin_value)
    result = _kernel_field(FieldND, values=np.moveaxis(edges, -1, axis), staggered_axis=axis)
    n_lines = field.values.size // m
    unique = n_lines if grid.is_odd else 0
    max_residual = 0.0 if residual is None else float(np.max(np.abs(residual), initial=0.0))
    return result, TransformSummary(n_lines=n_lines, unique_lines=unique,
                                    family_lines=n_lines - unique, max_residual=max_residual)


def to_centers_along(field: FieldND, axis: int) -> Tuple[FieldND, TransformSummary]:
    """Average the staggered axis back onto centers.

    The field must be staggered along exactly the requested axis.  Always
    succeeds: averaging is defined for every parity and every line.
    """
    axis = _checked_axis(axis, field.values.ndim)
    if field.staggered_axis != axis:
        state = ("fully centered" if field.staggered_axis is None
                 else f"staggered along axis {field.staggered_axis}")
        raise ParityError(
            f"cannot average axis {axis} to centers: field is {state}"
        )
    centers = average_lines(np.moveaxis(field.values, axis, -1))
    result = _kernel_field(FieldND, values=np.moveaxis(centers, -1, axis), staggered_axis=None)
    return result, TransformSummary(n_lines=field.values.size // field.values.shape[axis])
