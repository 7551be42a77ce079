"""1D periodic staggered-grid transforms between cell centers and cell edges.

A periodic staggered grid is described by N edge points, the last two of
which are periodic images of the first two (e_{N-1} = e_1, e_N = e_2, and
c_{N-1} = c_1 for the centers).  That leaves M = N - 2 independent edge
values and M independent center values, coupled by the averaging relation

    c_i = (e_i + e_{i+1}) / 2,   i = 1..M,   with e_{M+1} wrapping to e_1.

Averaging edges to centers is a plain O(M) stencil.  The reverse direction
is a cyclic linear system whose character depends only on the parity of N:

* odd N: exactly one solution.  It is recovered in O(M) by seeding
  e_1 = S = sum_{i=1..M} (-1)^(M-i) c_i and running the forward recurrence
  e_{i+1} = 2 c_i - e_i.
* even N: the system matrix is singular.  Solutions exist only when the
  alternating sum S vanishes, and then they form a one-parameter family
  whose direction is the checkerboard vector (+1, -1, +1, ...).

S is summed pairwise as adjacent differences, (c_2 - c_1) + (c_4 - c_3) +
..., with a leading c_1 when M is odd, so a common offset of the centers
cancels before anything accumulates.

The line kernel works along the last axis of an array of any rank: an N-D
field runs it once over all of its lines, and the 1-D API is a batch of
one.  Fields hold float64 values by default.  Constructing a field from
``fractions.Fraction`` entries switches every operation on it to exact
rational arithmetic (the kernel's constants are integers, and numpy's
object arrays sum Fractions exactly); in that mode the even-N consistency
test is exact and the ``tolerance`` argument is ignored.

All functions here are pure: they never mutate their inputs and keep no
module state, so concurrent use on distinct values needs no locking.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

import numpy as np

from .errors import InconsistentDataError, ParityError

#: Default relative tolerance for the floating-point consistency test.
DEFAULT_TOLERANCE = 1e-10

OUTCOME_ALWAYS_UNIQUE = "always-unique"
OUTCOME_CONSISTENT_DEPENDENT = "consistent-dependent"


def checked_int(value, name: str) -> int:
    """``value`` as a Python int: any integer type but bool, else ValueError."""
    if isinstance(value, (bool, np.bool_)):
        raise ValueError(f"{name} must be an int, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an int, got {value!r}") from None


@dataclass(frozen=True)
class PeriodicStagger1D:
    """Grid descriptor: N edge points including the two periodic images.

    Only N is stored; everything else (unknown count, parity) is derived so
    the descriptor can never go out of sync with itself.
    """

    n_edges: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "n_edges", checked_int(self.n_edges, "n_edges"))
        if self.n_edges < 3:
            raise ValueError(f"n_edges must be at least 3, got {self.n_edges}")

    @property
    def n_unknowns(self) -> int:
        """Count M = N - 2 of independent edge values."""
        return self.n_edges - 2

    @property
    def n_centers(self) -> int:
        """Count of independent center values; equals n_unknowns."""
        return self.n_unknowns

    @property
    def is_odd(self) -> bool:
        return self.n_edges % 2 == 1

    @property
    def parity(self) -> str:
        return "odd" if self.is_odd else "even"


def checked_floats(values) -> np.ndarray:
    """``values`` as a new float64 array: integers or floats, all finite, else ValueError."""
    raw = np.asarray(values)
    if raw.dtype.kind not in "iuf":
        raise ValueError(f"values must be real numbers, got dtype {raw.dtype}")
    arr = np.array(raw, dtype=np.float64)
    finite = np.isfinite(arr)
    if not finite.all():
        k = int(np.flatnonzero(~finite)[0])
        raise ValueError(f"non-finite value at flat index {k}: {arr.flat[k]!r}")
    return arr


def _coerce_values(values, expected_len: int) -> np.ndarray:
    """Normalize a value sequence to a 1-D array of float64 or Fraction.

    Object input (anything containing a Fraction) selects exact mode; all
    entries are then coerced to Fraction.  Everything else goes through
    :func:`checked_floats`.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"values must be one-dimensional, got shape {arr.shape}")
    if arr.shape[0] != expected_len:
        raise ValueError(
            f"length mismatch: grid expects {expected_len} values, got {arr.shape[0]}"
        )
    if arr.dtype == object:
        out = np.empty(expected_len, dtype=object)
        for k, v in enumerate(arr):
            if isinstance(v, Fraction):
                out[k] = v
            elif isinstance(v, (int, np.integer)):
                out[k] = Fraction(int(v))
            elif isinstance(v, (float, np.floating)):
                if not np.isfinite(v):
                    raise ValueError(f"non-finite value at index {k}: {v!r}")
                out[k] = Fraction(float(v))
            else:
                raise ValueError(f"cannot use {type(v).__name__} value at index {k}")
        return out
    return checked_floats(arr)


@dataclass(frozen=True, eq=False)
class _Field1D:
    """Values at the M independent centers or edges of a periodic grid."""

    grid: PeriodicStagger1D
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "values", _coerce_values(self.values, self.grid.n_unknowns))

    @property
    def exact(self) -> bool:
        return self.values.dtype == object


@dataclass(frozen=True, eq=False)
class CenterField1D(_Field1D):
    """Values c_1..c_M at the independent cell centers of a periodic grid."""


@dataclass(frozen=True, eq=False)
class EdgeField1D(_Field1D):
    """Values e_1..e_M at the independent cell edges of a periodic grid.

    The periodic images e_{N-1} = e_1 and e_N = e_2 are never stored; use
    :meth:`with_periodic_images` when the full length-N array is needed.
    """

    def with_periodic_images(self) -> np.ndarray:
        """Full periodic edge array (e_1, ..., e_M, e_1, e_2) of length N."""
        m = self.grid.n_unknowns
        return np.concatenate([self.values, self.values[[0, 1 % m]]])


@dataclass(frozen=True, eq=False)
class Unique:
    """Solve outcome for odd N: the single edge field."""

    edges: EdgeField1D


@dataclass(frozen=True, eq=False)
class Family:
    """Solve outcome for consistent even N: a one-parameter solution family.

    Every member is ``particular + t * null_direction`` for real t; the null
    direction is the checkerboard vector (+1, -1, ...), which averages to
    zero at every center; in exact mode it holds Python ints.
    """

    particular: EdgeField1D
    null_direction: np.ndarray

    def member(self, t) -> EdgeField1D:
        """The family member at parameter value t."""
        p = self.particular
        return _edge_field(p.grid, _shift(p.values, _finite_number(t, p.exact, "t")))

    def pinned(self, pin_index: int, pin_value) -> EdgeField1D:
        """The single member with e_{pin_index} = pin_value (1-based index)."""
        p = self.particular
        return _edge_field(p.grid, pin_lines(p.values, pin_index, pin_value))


@dataclass(frozen=True, eq=False)
class Inconsistent:
    """Solve outcome for even N when no edge field reproduces the centers.

    ``residual`` is twice the alternating center sum, i.e. the right-hand
    side left over in the zero row of the eliminated system.
    """

    residual: Union[float, Fraction]


SolveOutcome = Union[Unique, Family, Inconsistent]


@dataclass(frozen=True)
class SolvabilityReport:
    """Parity-determined facts about the center-to-edge system for one N."""

    n_edges: int
    n_unknowns: int
    parity: str
    determinant: int
    rank: int
    outcome_class: str


def solvability_report(n_edges: int) -> SolvabilityReport:
    """Classify the center-to-edge system for a grid with N edge points.

    The determinant of the M x M system matrix is 2 for odd N (full rank)
    and 0 for even N (rank M - 1).  The degenerate sizes follow the same
    rule: N=3 reduces to the single equation 2 e_1 = 2 c_1 (determinant 2 by
    convention), N=4 gives the rank-1 matrix [[1,1],[1,1]].
    """
    grid = PeriodicStagger1D(n_edges)
    m = grid.n_unknowns
    if grid.is_odd:
        return SolvabilityReport(n_edges, m, "odd", 2, m, OUTCOME_ALWAYS_UNIQUE)
    return SolvabilityReport(n_edges, m, "even", 0, m - 1, OUTCOME_CONSISTENT_DEPENDENT)


# -- the line kernel: along the last axis, one line per leading index ---------


def _checkerboard(m: int) -> np.ndarray:
    """The null direction (+1, -1, +1, ...) of length m, as integers."""
    signs = np.ones(m, dtype=np.int64)
    signs[1::2] = -1
    return signs


def check_finite(values, what: str):
    """Return ``values``, or raise ValueError if a float result overflowed."""
    if np.asarray(values).dtype.kind == "f" and not np.all(np.isfinite(values)):
        raise ValueError(f"{what} overflow float64: the input is too large in magnitude")
    return values


def alternating_sums(c: np.ndarray):
    """S = sum_{i=1..M} (-1)^(M-i) c_i of every line of ``c``.

    The differences are laid out C-contiguous, so numpy sums each line in
    the same pairwise order whatever the layout of ``c``: a line of an N-D
    field gets exactly the S it would get on its own.
    """
    if c.shape[-1] % 2 == 0:
        return np.sum(np.subtract(c[..., 1::2], c[..., 0::2], order="C"), axis=-1)
    return c[..., 0] + np.sum(np.subtract(c[..., 2::2], c[..., 1::2], order="C"), axis=-1)


def _telescope(first, c: np.ndarray) -> np.ndarray:
    """Edges of every line from e_1 = first and e_{i+1} = 2 c_i - e_i.

    The recurrence telescopes to e_k = (-1)^(k-1) 2 (e_1 / 2 - P_k) with
    P_k = sum_{j<k} (-1)^(j-1) c_j, which is one cumulative sum per line.
    |e_1 / 2 - P_k| = |e_k| / 2, so no step overflows where the edges fit.
    """
    alt = _checkerboard(c.shape[-1])
    e = np.zeros_like(c)
    np.multiply(alt[:-1], c[..., :-1], out=e[..., 1:])
    np.cumsum(e[..., 1:], axis=-1, out=e[..., 1:])
    np.subtract(np.asarray(first)[..., None] / 2, e, out=e)
    e *= alt
    e *= 2
    return e


def _shift(e: np.ndarray, t) -> np.ndarray:
    """Family members e + t * checkerboard, with one t per line."""
    out = np.asarray(t)[..., None] * _checkerboard(e.shape[-1])
    with np.errstate(over="ignore", invalid="ignore"):  # check_finite reports it
        out += e
    return out


def _finite_number(value, exact: bool, name: str):
    """``value`` as a Fraction in exact mode, else as a finite float."""
    try:
        if isinstance(value, np.floating):
            value = float(value)
        out = Fraction(value) if exact else float(value)
        if exact or np.isfinite(out):
            return out
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValueError(f"{name} must be a finite real number, got {value!r}")


def _validate_tolerance(tolerance) -> float:
    tolerance = _finite_number(tolerance, False, "tolerance")
    if tolerance < 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance!r}")
    return tolerance


def solve_lines(c: np.ndarray, tolerance: float = DEFAULT_TOLERANCE):
    """Solve e_i + e_{i+1} = 2 c_i on every line of ``c``.

    Returns ``(edges, residual, consistent)``: for odd M the unique edges,
    None, None.  For even M, 2 S and the test |2 S| <= tolerance *
    max(1, max|c|) (S == 0 for Fractions) per line, and the particulars
    with e_1 = 0, or None if any line fails.  Callers validate
    ``tolerance`` and check their final edges once with :func:`check_finite`.
    """
    exact = c.dtype == object
    with np.errstate(over="ignore", invalid="ignore"):  # check_finite reports it
        s = alternating_sums(c)
        if c.shape[-1] % 2 == 1:
            return _telescope(s, c), None, None
        residual = check_finite(2 * s, "the consistency residual")
        if exact:
            consistent = residual == 0
        else:
            scale = np.maximum(1.0, np.max(np.abs(c), axis=-1))
            consistent = np.abs(residual) <= tolerance * scale
        if not np.all(consistent):
            return None, residual, consistent
        return _telescope(Fraction(0) if exact else 0.0, c), residual, consistent


def min_norm_lines(p: np.ndarray) -> np.ndarray:
    """The member of least Euclidean norm of each even-M family particular.

    t* = -<p, null> / M makes the result orthogonal to the null direction;
    for even M, -<p, null> is the alternating sum S of p.
    """
    return _shift(p, alternating_sums(p) / p.shape[-1])


def pin_lines(p: np.ndarray, pin_index: int, pin_value) -> np.ndarray:
    """The member of each family with e_{pin_index} = pin_value (1-based)."""
    m = p.shape[-1]
    pin_index = checked_int(pin_index, "pin index")
    if not 1 <= pin_index <= m:
        raise ValueError(f"pin index must be in 1..{m}, got {pin_index}")
    pin_value = _finite_number(pin_value, p.dtype == object, "pin value")
    k = pin_index - 1
    return _shift(p, (pin_value - p[..., k]) * (-1 if k % 2 else 1))


#: Completion strategies accepted by :func:`complete_lines`.
STRATEGIES = ("unique", "min-norm", "pin")


def complete_lines(c: np.ndarray, strategy: str, tolerance: float = DEFAULT_TOLERANCE,
                   pin_index=None, pin_value=None):
    """``(edges, residual)`` of every line of ``c``: edges completed by
    ``strategy``, and 2 S per line, or None for odd N = M + 2.

    "unique" needs odd N, "min-norm" and "pin" need even N, else
    ParityError; "pin", and only "pin", takes pin_index and pin_value.  The
    first line in C order failing the even-N consistency test raises
    InconsistentDataError with its index in ``line_coords`` (a 1-D ``c`` is
    line (0,)).  Edges that overflow float64 raise ValueError.
    """
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}; expected one of {STRATEGIES}")
    n_edges = c.shape[-1] + 2
    odd = n_edges % 2 == 1
    if (strategy == "unique") != odd:
        need, parity = ("even", "odd") if odd else ("odd", "even")
        raise ParityError(
            f"strategy {strategy!r} needs an {need} edge count; N={n_edges} is {parity}")
    if strategy == "pin":
        if pin_index is None or pin_value is None:
            raise ValueError("strategy 'pin' requires pin_index and pin_value")
    elif pin_index is not None or pin_value is not None:
        raise ValueError(f"pin_index/pin_value only apply to strategy 'pin', not {strategy!r}")

    tolerance = _validate_tolerance(tolerance)
    edges, residual, consistent = solve_lines(c, tolerance)
    if not odd:
        if not np.all(consistent):
            first = int(np.flatnonzero(np.logical_not(consistent))[0])
            coords = tuple(int(x) for x in np.unravel_index(first, np.shape(residual) or (1,)))
            bad = np.ravel(residual).tolist()[first]   # a float, or a Fraction
            raise InconsistentDataError(
                f"line {coords} admits no edge solution "
                f"(residual {bad}, tolerance {tolerance:g})",
                residual=bad, line_coords=coords)
        if strategy == "min-norm":
            edges = min_norm_lines(edges)
        else:
            edges = pin_lines(edges, pin_index, pin_value)
    return check_finite(edges, "edge values"), residual


def average_lines(e: np.ndarray) -> np.ndarray:
    """Centers c_i = (e_i + e_{i+1}) / 2 of every line, with e_{M+1} = e_1.

    Where a sum e_i + e_{i+1} overflows float64, the halves are added
    instead: the mean of finite values is always finite.
    """
    c = np.roll(e, -1, axis=-1)
    with np.errstate(over="ignore"):
        c += e
    c /= 2
    if c.dtype.kind == "f" and not np.all(np.isfinite(c)):
        c = np.roll(e, -1, axis=-1) / 2 + e / 2
    return c


# -- the 1-D API: a batch of one ---------------------------------------------


def _kernel_field(cls, grid: PeriodicStagger1D, values: np.ndarray):
    """A field holding new kernel output, which has the grid's length and
    number type already: the constructor's coercion and copy are skipped."""
    field = object.__new__(cls)
    object.__setattr__(field, "grid", grid)
    object.__setattr__(field, "values", values)
    return field


def _edge_field(grid: PeriodicStagger1D, values: np.ndarray) -> EdgeField1D:
    """Kernel edges as a field, after their one check for float overflow."""
    return _kernel_field(EdgeField1D, grid, check_finite(values, "edge values"))


def centers_from_edges(edges: EdgeField1D) -> CenterField1D:
    """Average neighbouring edges onto centers: c_i = (e_i + e_{i+1}) / 2.

    The wrap e_{M+1} = e_1 realizes the periodic image e_{N-1} = e_1.
    """
    return _kernel_field(CenterField1D, edges.grid, average_lines(edges.values))


def alternating_residual(centers: CenterField1D):
    """Alternating center sum S = sum_{i=1..M} (-1)^(M-i) c_i.

    For odd M this equals e_1 of the unique solution; for even M the system
    is consistent exactly when S vanishes (equivalently, when c_M equals the
    alternating sum of the other centers).
    """
    s = alternating_sums(centers.values)
    return s if centers.exact else float(s)


def edges_from_centers(centers: CenterField1D,
                       tolerance: float = DEFAULT_TOLERANCE) -> SolveOutcome:
    """Solve e_i + e_{i+1} = 2 c_i for the edges, classifying the outcome.

    Odd N always yields :class:`Unique` in O(M).  Even N yields
    :class:`Family` when the alternating residual passes the consistency
    test (|2 S| <= tolerance * max(1, max|c|) in floating mode, S == 0 in
    exact mode) and :class:`Inconsistent` otherwise.  The family particular
    is the member with e_1 = 0.  Raises ValueError when the edges (or that
    particular) overflow float64.
    """
    grid = centers.grid
    edges, residual, consistent = solve_lines(centers.values, _validate_tolerance(tolerance))
    if grid.is_odd:
        return Unique(_edge_field(grid, edges))
    if not consistent:
        return Inconsistent(residual if centers.exact else float(residual))
    particular = _edge_field(grid, edges)
    return Family(particular, _checkerboard(grid.n_unknowns).astype(centers.values.dtype))


def complete_min_norm(outcome: SolveOutcome) -> EdgeField1D:
    """Pick the family member of minimal Euclidean norm.

    The projection t* = -<particular, null> / M makes the result orthogonal
    to the null direction.  Raises unless the outcome actually has a free
    parameter.
    """
    if isinstance(outcome, Unique):
        raise ParityError(
            "minimum-norm completion needs an even-N family; this solution is already unique"
        )
    if isinstance(outcome, Inconsistent):
        raise InconsistentDataError(
            f"minimum-norm completion impossible: no solution exists "
            f"(residual {outcome.residual!r})",
            residual=outcome.residual,
        )
    p = outcome.particular
    return _edge_field(p.grid, min_norm_lines(p.values))


def complete_pinned(centers: CenterField1D, pin_index: int, pin_value,
                    tolerance: float = DEFAULT_TOLERANCE) -> EdgeField1D:
    """Solve an even-N system and pick the member with e_{pin_index} = pin_value.

    ``pin_index`` is 1-based, matching the e_1..e_M naming.  Raises
    ParityError on odd N (there is nothing to pin: the solution is unique)
    and InconsistentDataError when no solution exists at all.
    """
    edges, _ = complete_lines(centers.values, "pin", tolerance, pin_index, pin_value)
    return _kernel_field(EdgeField1D, centers.grid, edges)
