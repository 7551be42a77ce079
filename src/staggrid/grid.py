"""1D periodic staggered-grid transforms between cell centers and cell edges.

A periodic staggered grid is described by N edge points, the last two of
which are periodic images of the first two (e_{N-1} = e_1, e_N = e_2, and
c_{N-1} = c_1 for the centers).  That leaves M = N - 2 independent edge
values and M independent center values, coupled by the averaging relation

    c_i = (e_i + e_{i+1}) / 2,   i = 1..M,   with e_{M+1} wrapping to e_1.

Averaging edges to centers is a plain O(M) stencil.  The reverse direction
is a cyclic linear system with exactly one solution for odd N.  For even N
it is singular: solutions exist only when S = sum_{i=1..M} (-1)^(M-i) c_i
vanishes, and then form a one-parameter family along the checkerboard
vector (+1, -1, +1, ...).  Either way the recurrence e_{i+1} = 2 c_i - e_i
telescopes to e_k = (-1)^(k-1) 2 (e_1 / 2 - P_k), P_k = sum_{j<k}
(-1)^(j-1) c_j, so every completion is a choice of e_1 followed by one pass
over the partial sums P, which overflows only where an edge does:

* odd N: e_1 = S, the unique solution;
* the even-N family particular: e_1 = 0;
* the even-N minimum-norm member: e_1 = 2 mean(P), orthogonal to the
  checkerboard;
* the even-N member pinned at e_k = v: e_1 = 2 P_k + (-1)^(k-1) v.

S is summed pairwise as adjacent differences, (c_2 - c_1) + (c_4 - c_3) +
..., with a leading c_1 when M is odd, so a common offset of the centers
cancels before anything accumulates.  Every sign (-1)^(k-1) and factor 2 is
applied in place, by negating or doubling alternate slots of the one output
buffer; no sign array is built.  Negation and doubling are exact, so this
gives bit for bit what a multiply by the checkerboard would.

P is a running sum, built in one of two orders of memory.  Usually
``np.cumsum`` runs along each line.  On the row path (at least
``_ROWWISE_MIN_LINES`` lines of at most ``_ROWWISE_MAX_LENGTH`` values, read
from the shape) numpy's one inner loop per line costs more than the
arithmetic, so P is laid out position-outermost and built with one vector add
per position across all lines.  Both add P_{k-1} + (-1)^(k-2) c_{k-1} in
sequence, so P has the same bits either way; before that, P holds
+-c_1..+-c_{M-1}, which give max|c|.  S and both min-norm means are pairwise
sums, as np.sum gives them for a line alone: of the differences of c, and of
the pair sums P_{2j-1} + P_{2j} or, in Family, their doubles, the differences
of the particular.  On the row path S and the gate's mean are row adds in
numpy's pairwise order instead, with the same bits.

Each call builds only what it returns (:class:`Family` its null direction on
first read).  Overflow of the edges from P and of 2 S, whose inputs may be
infinite already, is found by :func:`check_finite`; that of a member p +- t
or of neighbour sums of edges, all finite, is read from the FP overflow flag
(IEEE 754-2008 section 7), with no pass over the output.

The line kernel works along the last axis of an array of any rank: an N-D
field runs it once over all of its lines, and the 1-D API is a batch of
one.  Fields hold float64 values by default.  Constructing a field from
``fractions.Fraction`` entries switches every operation on it to exact
rational arithmetic (the kernel's constants are integers, and numpy's
object arrays sum Fractions exactly); in that mode the even-N consistency
test is S == 0 and ``tolerance`` is ignored (see :func:`solve_lines`).

All functions here are pure: they never mutate their inputs and keep no
module state, so concurrent use on distinct values needs no locking.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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
    """``values`` as a new float64 array of integers or floats, each finite and
    held exactly (the rule of :func:`_finite_number`), else ValueError."""
    raw = np.asarray(values)
    if raw.dtype.kind not in "iuf":
        raise ValueError(f"values must be real numbers, got dtype {raw.dtype}")
    with np.errstate(over="ignore"):  # a long double beyond float64 is reported below
        arr = np.array(raw, dtype=np.float64)
    if raw.dtype.kind in "iu":
        # integers up to 2^53 in magnitude convert exactly; compare the rest as ints
        big = np.flatnonzero(np.abs(arr) >= 2.0**53)
        for k, v, f in zip(big.tolist(), raw.flat[big].tolist(), arr.flat[big].tolist()):
            if int(f) != v:
                raise ValueError(f"value at flat index {k} has no exact float64 value: {v}")
        return arr
    finite = np.isfinite(arr)
    if not finite.all():
        k = int(np.flatnonzero(~finite)[0])
        raise ValueError(f"non-finite value at flat index {k}: {arr.flat[k]!r}")
    return arr


def _coerce_values(values, expected_len: int) -> np.ndarray:
    """Normalize a value sequence to a 1-D array of float64 or Fraction.

    Object input goes entry by entry through :func:`_finite_number`, in
    exact mode only if some entry is a Fraction.  Everything else goes
    through :func:`checked_floats`.
    """
    arr = np.asarray(values)
    if arr.ndim != 1:
        raise ValueError(f"values must be one-dimensional, got shape {arr.shape}")
    if arr.shape[0] != expected_len:
        raise ValueError(
            f"length mismatch: grid expects {expected_len} values, got {arr.shape[0]}"
        )
    if arr.dtype == object:
        exact = any(isinstance(v, Fraction) for v in arr)
        return np.array([_finite_number(v, exact, f"value at index {k}")
                         for k, v in enumerate(arr)], dtype=object if exact else np.float64)
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


@dataclass(frozen=True, eq=False, init=False)
class Family:
    """Solve outcome for consistent even N: a one-parameter solution family.

    Every member is ``particular + t * null_direction`` for real t; the null
    direction is the checkerboard vector (+1, -1, ...), which averages to
    zero at every center: float64, or Python ints in exact mode, built on first
    read unless given (as the dense oracle does).  The particular p is the
    gate's member pinned at e_1 = 0, so the shift t = e_1 that
    :func:`complete_lines` picks (P_k = -(-1)^(k-1) p_k / 2) gives the gate's edges.
    """

    particular: EdgeField1D

    def __init__(self, particular: EdgeField1D, null_direction=None):
        object.__setattr__(self, "particular", particular)
        if null_direction is not None:   # shadows the cached_property below
            object.__setattr__(self, "null_direction", null_direction)

    @cached_property
    def null_direction(self) -> np.ndarray:
        p = self.particular
        return _checkerboard(p.grid.n_unknowns, p.values.dtype)

    def member(self, t) -> EdgeField1D:
        """The family member at parameter value t."""
        p = self.particular
        return _shift(p, _finite_number(t, p.exact, "t"))

    def pinned(self, pin_index: int, pin_value) -> EdgeField1D:
        """The single member with e_{pin_index} = pin_value (1-based index)."""
        p = self.particular
        k, sign, v = _checked_pin(p.grid.n_unknowns, p.exact, pin_index, pin_value)
        with np.errstate(over="ignore"):  # an infinite t is refused by _shift
            t = sign * (v - p.values[k])
        return _shift(p, t)


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


def _checkerboard(m: int, dtype) -> np.ndarray:
    """The null direction (+1, -1, +1, ...) of length m in ``dtype`` (Python ints
    for object), built only when :attr:`Family.null_direction` is first read;
    the kernel negates alternate slots in place instead."""
    signs = np.ones(m, dtype=dtype)
    signs[1::2] = -1
    return signs


_OVERFLOW = "{} overflow float64: the input is too large in magnitude"


def check_finite(values, what: str):
    """Return ``values``, or raise ValueError if a float result overflowed."""
    if np.asarray(values).dtype.kind == "f" and not np.all(np.isfinite(values)):
        raise ValueError(_OVERFLOW.format(what))
    return values


def alternating_sums(c: np.ndarray):
    """S = sum_{i=1..M} (-1)^(M-i) c_i of every line of ``c``: c_1 (odd M) plus the
    differences c_{2j} - c_{2j-1} (even M) or c_{2j+1} - c_{2j} (odd M), summed
    pairwise as np.sum sums them for a line alone.  On the row path the sum is
    row adds in that order (:func:`_pair_total`): a line of an N-D field gets
    exactly the S it would get on its own, on either path.
    """
    odd = c.shape[-1] % 2
    s = _pair_total(np.subtract, c, odd)
    return c[..., 0] + s if odd else s


def _pair_total(op, x: np.ndarray, first: int = 0):
    """sum_j op(x_{first+2j+1}, x_{first+2j}) of every line of ``x``, with the bits
    np.sum gives the C-order terms of the line alone.  On the row path
    :func:`_pairwise_rows` adds the terms, made one row at a time, and then +0.0,
    where numpy's accumulator starts (an all -0.0 line sums to +0.0)."""
    n = (x.shape[-1] - first) // 2
    if x.dtype == object or n == 0 or not _rowwise(x):
        return np.sum(op(x[..., first + 1::2], x[..., first::2], order="C"), axis=-1)
    total = _pairwise_rows(lambda j: op(x[..., first + 2 * j + 1], x[..., first + 2 * j]), n)
    total += 0.0
    return total


def _pairwise_rows(term, n: int):
    """term(0) + ... + term(n - 1) for new rows term(j), 1 <= n <= 128 (the row
    path has at most 32), added in the order of numpy's pairwise_sum
    (loops_utils.h.src): under 8 in sequence; else into 8 accumulators
    r_{j mod 8}, combined as ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7)),
    then the rest in sequence."""
    head = n - n % 8 if n >= 8 else 1   # the terms added before the sequential rest
    r = [term(j) for j in range(min(head, 8))]
    for j in range(8, head):
        r[j % 8] += term(j)
    if n >= 8:
        for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
            r[a] += r[b]
    for j in range(head, n):
        r[0] += term(j)
    return r[0]


def _telescope(first, partial: np.ndarray) -> np.ndarray:
    """Edges e_k = (-1)^(k-1) 2 (e_1 / 2 - P_k) of every line from e_1 = ``first``,
    written over its ``partial`` sums P (doubled, then the even-k slots negated,
    in place: no sign array); ValueError if they overflow float64."""
    with np.errstate(over="ignore", invalid="ignore"):  # check_finite reports it
        np.subtract(np.asarray(first)[..., None] / 2, partial, out=partial)
        partial *= 2
        np.negative(partial[..., 1::2], out=partial[..., 1::2])
    return check_finite(partial, "edge values")


def _shift(particular: EdgeField1D, t) -> EdgeField1D:
    """The member ``particular + t * checkerboard``: p + t at the odd-k slots and
    p - t at the even-k ones, written into one new buffer (no copy, no sign
    array); ValueError if t is infinite or the member overflows."""
    p = particular.values
    if p.dtype.kind == "f" and not math.isfinite(t):
        raise ValueError(_OVERFLOW.format("edge values"))
    e = np.empty_like(p)
    try:
        with np.errstate(over="raise"):   # p and t are finite: the flag marks overflow
            np.add(p[..., 0::2], t, out=e[..., 0::2])
            np.subtract(p[..., 1::2], t, out=e[..., 1::2])
    except FloatingPointError:
        raise ValueError(_OVERFLOW.format("edge values")) from None
    return _kernel_field(EdgeField1D, grid=particular.grid, values=e)


def _line_mean(total, x: np.ndarray):
    """``total(x) / M`` per line, M = x.shape[-1], for ``total`` a sum of the M / 2
    pair sums or differences of x.  Where that overflows, it is taken again on
    x * 2^-ceil(log2 M), which cannot overflow (see average_lines)."""
    m = x.shape[-1]
    with np.errstate(over="ignore", invalid="ignore"):  # the retry is finite if x is
        mean = total(x) / m
        if x.dtype.kind == "f" and not np.all(np.isfinite(mean)):
            scale = 2.0 ** (m - 1).bit_length()
            mean = total(x / scale) / m * scale
    return mean


def _finite_number(value, exact: bool, name: str):
    """``value``, any real number but a bool, as a Fraction in exact mode, else
    as a finite float equal to it (compared as ints for an integer, so one
    that float64 cannot hold is refused, not rounded); else ValueError."""
    if isinstance(value, numbers.Real) and not isinstance(value, bool):
        integral = isinstance(value, numbers.Integral)
        num = int(value) if integral else float(value) if isinstance(value, np.floating) else value
        try:
            out = Fraction(num) if exact else float(num)
            if exact or (math.isfinite(out) and (not integral or int(out) == num)):
                return out
        except (ValueError, OverflowError):
            pass
    raise ValueError(f"{name} must be a finite real number, got {value!r}")


#: The row path (one row op per position across all lines) takes at least
#: ``_ROWWISE_MIN_LINES`` lines, where its fixed cost per op passes numpy's per
#: line loop, of at most ``_ROWWISE_MAX_LENGTH`` values: on longer lines the
#: copy of c into the transposed P loses what the adds gain.
_ROWWISE_MIN_LINES = 512
_ROWWISE_MAX_LENGTH = 64


def _rowwise(c: np.ndarray) -> bool:
    """Whether the lines of ``c`` take the row path, from its shape."""
    m = c.shape[-1]
    return m <= _ROWWISE_MAX_LENGTH and c.size >= _ROWWISE_MIN_LINES * m


def solve_lines(c: np.ndarray, tolerance: float = DEFAULT_TOLERANCE):
    """``(partial, s, residual, consistent)`` of every line of ``c``: the partial
    sums P (P_1 = 0) and S that :func:`_telescope` takes to solve
    e_i + e_{i+1} = 2 c_i, and for even M the residual 2 S and the test
    |2 S| <= (tolerance + 2 M u) max|c|, u = 2^-53: within one rounding per center
    (S == 0 for Fractions); else None, None.  :func:`complete_lines` checks tolerance.
    A float line whose 2 S overflows is decided at 2^-k, k = ceil(log2 M), and
    its residual is 2^k 2 S', +-inf where that does not fit either.

    P is a new buffer.  On the row path (:func:`_rowwise`) it is laid out
    position-outermost and summed with one row add per position, and S is row
    adds in numpy's pairwise order; otherwise ``np.cumsum`` and ``np.sum`` run
    along each line.  The bits agree.
    """
    m = c.shape[-1]
    rowwise = _rowwise(c)
    if rowwise:
        partial = np.moveaxis(np.empty((m,) + c.shape[:-1], c.dtype), 0, -1)
    else:
        partial = np.empty_like(c)
    partial[..., 0] = 0
    partial[..., 1:] = c[..., :-1]
    np.negative(partial[..., 2::2], out=partial[..., 2::2])   # (-1)^(j-1) c_j, j = k - 1
    if m % 2 == 0:   # P holds +-c_1 .. +-c_{M-1} until it is summed: no |c| temporary
        head = partial[..., 1:]
        max_abs = np.maximum(np.maximum(head.max(axis=-1), -head.min(axis=-1)),
                             np.abs(c[..., -1]))
    with np.errstate(over="ignore", invalid="ignore"):  # check_finite reports it
        if rowwise:
            rows = np.moveaxis(partial, -1, 0)
            for k in range(2, m):
                np.add(rows[k - 1, ...], rows[k, ...], out=rows[k, ...])   # views, even 0-d
        else:
            np.cumsum(partial[..., 1:], axis=-1, out=partial[..., 1:])
        s = alternating_sums(c)
        if m % 2 == 1:
            return partial, s, None, None
        residual = 2 * s
        allowance = 0 if c.dtype == object else tolerance + 2 * m * 2.0**-53
        consistent = np.abs(residual) <= allowance * max_abs
        if c.dtype != object and not np.all(np.isfinite(residual)):
            # decide only those lines at 2^-k, where S fits (see _line_mean): others may be tiny
            residual, consistent = np.array(residual), np.array(consistent)
            bad = ~np.isfinite(residual)
            scale = 2.0 ** (m - 1).bit_length()
            s_scaled = alternating_sums(c[bad] / scale)
            residual[bad] = 2 * scale * s_scaled
            consistent[bad] = np.abs(s_scaled) <= allowance * (max_abs[bad] / (2 * scale))
    return partial, s, residual, consistent


def _checked_pin(m: int, exact: bool, pin_index, pin_value):
    """``(k, (-1)^k, v)`` of the pin e_{k+1} = v on lines of m edges, else ValueError."""
    pin_index = checked_int(pin_index, "pin index")
    if not 1 <= pin_index <= m:
        raise ValueError(f"pin index must be in 1..{m}, got {pin_index}")
    return pin_index - 1, 1 if pin_index % 2 else -1, _finite_number(pin_value, exact, "pin value")


#: Completion strategies accepted by :func:`complete_lines`.
STRATEGIES = ("unique", "min-norm", "pin")


def complete_lines(c: np.ndarray, strategy: str, tolerance: float = DEFAULT_TOLERANCE,
                   pin_index=None, pin_value=None):
    """``(edges, residual)`` of every line of ``c``: edges completed by
    ``strategy``, and 2 S per line, or None for odd N = M + 2.

    The only caller of :func:`solve_lines`, for the 1-D and N-D APIs alike.  Each
    strategy picks e_1 per line, then :func:`_telescope` runs: "unique" (odd N)
    e_1 = S, "min-norm" (even N) e_1 = 2 mean(P), "pin" (even N, and only it
    takes pin_index = k and pin_value = v) e_1 = 2 P_k + (-1)^(k-1) v; else
    ParityError.  ("pin", 1, 0) gives the :class:`Family` particular, e_1 = 0.
    The first line in C order failing the even-N consistency test
    raises InconsistentDataError with its index in ``line_coords`` (a 1-D ``c``
    is line (0,)).  Edges that overflow float64, and only they, raise ValueError.
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

    tolerance = _finite_number(tolerance, False, "tolerance")
    if tolerance < 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance!r}")
    partial, e1, residual, consistent = solve_lines(c, tolerance)
    if not odd:
        if not np.all(consistent):
            first = int(np.flatnonzero(np.logical_not(consistent))[0])
            coords = tuple(int(x) for x in np.unravel_index(first, np.shape(residual) or (1,)))
            bad = np.ravel(residual).tolist()[first]   # a float, or a Fraction
            raise InconsistentDataError(
                f"line {coords} admits no edge solution "
                f"(residual {bad}, tolerance {tolerance:g})",
                residual=bad, line_coords=coords)
        with np.errstate(over="ignore", invalid="ignore"):  # _telescope reports it
            if strategy == "min-norm":   # pair sums: half the particular's differences
                e1 = 2 * _line_mean(lambda x: _pair_total(np.add, x), partial)
            else:
                k, sign, v = _checked_pin(c.shape[-1], c.dtype == object, pin_index, pin_value)
                e1 = 2 * (partial[..., k] + sign * v / 2)
    return _telescope(e1, partial), residual


def _neighbour_sums(x: np.ndarray) -> np.ndarray:
    """x_i + x_{i+1} of every line into one new buffer, the wrap x_M + x_1 last.
    C-contiguous lines are summed as one flat run (one inner loop, not one per
    line); where a line meets the next, the wrap then overwrites the slot."""
    out = np.empty_like(x)
    if x.flags.c_contiguous:
        flat, flat_out = x.reshape(-1), out.reshape(-1)
        np.add(flat[:-1], flat[1:], out=flat_out[:-1])
    else:
        np.add(x[..., :-1], x[..., 1:], out=out[..., :-1])
    np.add(x[..., -1], x[..., 0], out=out[..., -1])
    return out


def average_lines(e: np.ndarray) -> np.ndarray:
    """Centers c_i = (e_i + e_{i+1}) / 2 of every line, with e_{M+1} = e_1.

    The sums go straight into the output (no rolled copy of e, no sign array)
    and are halved in place.  Where a sum overflows float64 (read from the FP
    flag: edges are finite), the halves are added instead: the mean of finite
    values is always finite.
    """
    try:
        with np.errstate(over="raise"):
            c = _neighbour_sums(e)
    except FloatingPointError:
        return _neighbour_sums(e / 2)
    c /= 2
    return c


# -- the 1-D API: a batch of one ---------------------------------------------


def _kernel_field(cls, **fields):
    """A field of type ``cls`` holding new, already checked kernel output: the
    constructor's checks and copy are skipped.  Every kernel result is one."""
    field = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(field, name, value)
    return field


def centers_from_edges(edges: EdgeField1D) -> CenterField1D:
    """Average neighbouring edges onto centers: c_i = (e_i + e_{i+1}) / 2.

    The wrap e_{M+1} = e_1 realizes the periodic image e_{N-1} = e_1.
    """
    return _kernel_field(CenterField1D, grid=edges.grid, values=average_lines(edges.values))


def alternating_residual(centers: CenterField1D):
    """Alternating center sum S = sum_{i=1..M} (-1)^(M-i) c_i.

    For odd M this equals e_1 of the unique solution; for even M the system
    is consistent exactly when S vanishes (equivalently, when c_M equals the
    alternating sum of the other centers).  ValueError if it overflows float64.
    """
    with np.errstate(over="ignore", invalid="ignore"):  # check_finite reports it
        s = check_finite(alternating_sums(centers.values), "the alternating sum")
    return s if centers.exact else float(s)


def edges_from_centers(centers: CenterField1D,
                       tolerance: float = DEFAULT_TOLERANCE) -> SolveOutcome:
    """Solve e_i + e_{i+1} = 2 c_i for the edges, classifying the outcome.

    Odd N: :func:`complete_lines` with "unique", always :class:`Unique`.  Even N:
    ("pin", 1, 0), a :class:`Family` whose particular is that member, e_1 = 0,
    when the line is consistent (|2 S| <= (tolerance + 2 M u) max|c|, u = 2^-53:
    within one rounding per center; S == 0 in exact mode), else
    :class:`Inconsistent` with the gate's residual (+-inf if it overflows).
    Raises ValueError when the edges (or that particular) overflow float64.
    """
    grid = centers.grid
    if grid.is_odd:
        edges, _ = complete_lines(centers.values, "unique", tolerance)
        return Unique(_kernel_field(EdgeField1D, grid=grid, values=edges))
    try:
        particular, _ = complete_lines(centers.values, "pin", tolerance, 1, 0)
    except InconsistentDataError as exc:
        return Inconsistent(exc.residual)
    return Family(_kernel_field(EdgeField1D, grid=grid, values=particular))


def complete_min_norm(outcome: SolveOutcome) -> EdgeField1D:
    """Pick the family member of minimal Euclidean norm.

    The projection t* = -<particular, null> / M makes the result orthogonal
    to the null direction.  Raises unless the outcome actually has a free
    parameter, and ValueError only when that member overflows float64.
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
    return _shift(p, _line_mean(alternating_sums, p.values))


def complete_pinned(centers: CenterField1D, pin_index: int, pin_value,
                    tolerance: float = DEFAULT_TOLERANCE) -> EdgeField1D:
    """Solve an even-N system and pick the member with e_{pin_index} = pin_value.

    ``pin_index`` is 1-based, matching the e_1..e_M naming.  Raises
    ParityError on odd N (there is nothing to pin: the solution is unique)
    and InconsistentDataError when no solution exists at all.
    """
    edges, _ = complete_lines(centers.values, "pin", tolerance, pin_index, pin_value)
    return _kernel_field(EdgeField1D, grid=centers.grid, values=edges)
