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
over the partial sums P, which overflows only where an edge does (where
e_1 / 2 would round, the pass takes (-1)^(k-1) (e_1 - 2 P_k) instead):

* odd N: e_1 = S, the unique solution;
* the even-N family particular: e_1 = 0;
* the even-N member p + t (+1, -1, ...): e_1 = t;
* the even-N minimum-norm member: e_1 = 2 mean(P), orthogonal to the
  checkerboard;
* the even-N member pinned at e_k = v: e_1 = 2 P_k + (-1)^(k-1) v, and e_k
  then stored as v itself, which the pass would miss by one rounding.

The 1-D and N-D APIs complete every even-N line in one place,
:func:`_complete`, which makes the choice, runs the pass and stores a pinned
edge, and a :class:`Family` keeps P for it, so a line gets the same edges from
either API.

S is summed pairwise as adjacent differences, (c_2 - c_1) + (c_4 - c_3) +
..., with a leading c_1 when M is odd, so a common offset of the centers
cancels before anything accumulates.  Every sign (-1)^(k-1) and factor 2 is
applied in place, by negating or doubling alternate slots of the one output
buffer; no sign array is built.  Negation and doubling are exact, so this
gives bit for bit what a multiply by the checkerboard would.

P is built pair-first: the odd-indexed sums are a running sum of the pair
differences, P_{2t+1} = P_{2t-1} + (c_{2t-1} - c_{2t}), and each even-indexed
one is one add, P_{2t+2} = P_{2t+1} + c_{2t+1}.  So the running sum has M / 2
terms, not M - 1, and a common offset of the centers cancels in each difference
before anything accumulates, as it does for S.  It is built in one of two
orders of memory.  Usually ``np.cumsum`` runs over the odd-indexed slots of each
line, between one strided subtract and one strided add.  On the row path (at
least ``_ROWWISE_MIN_LINES`` lines of at most ``_ROWWISE_MAX_LENGTH`` values,
read from the shape) numpy's one inner loop per line costs more than the
arithmetic, so P is laid out position-outermost and built with one row
subtract and one add onto the next two rows per pair of positions, across all
lines.  Both make the same sums in the same order, so P has the same bits
either way; before that, P holds c_1..c_{M-1}, which give max|c|.  A pair
difference can overflow where P fits (c_{2t-1} = -1e308 and c_{2t} = 1e308
after P_{2t-1} = 1.5e308), and an even-indexed P_k can overflow where no later
one does; only when the FP overflow flag says so is a line with some P_k not
finite built again by the alternating scan, P_k = P_{k-1} + (-1)^k c_{k-1} in
sequence, whose bits P then has.  S and the min-norm mean are pairwise
sums, as np.sum gives them for a line alone: of the differences of c, and of
the pair sums P_{2j-1} + P_{2j}, float or Fraction alike, by one of two paths.
On the row path they are row adds in numpy's pairwise order.  Off it, a sum is
split as numpy splits it, and each run of at most ``_LEAF`` terms is made in
one scratch of min(n, ``_LEAF``) terms per line and summed there: the same
bits either way, and no temporary holding half a line.

Each call builds only what it returns: an even-N solve keeps P and builds no
edge, and :class:`Family` builds its particular and null direction on first
read.  Overflow of the edges and of neighbour sums of edges is read from the
FP overflow flag (IEEE 754-2008 section 7), with no pass over the output; a
non-finite e_1 or P shows in the last edge, checked once per line (P is
finite exactly when P_M is: see :func:`_telescope`).  A line's result depends
on that line alone, whatever lines share its batch: a line whose S or min-norm
sum is not finite is summed again alone on a power-of-two prescale
(:func:`_pair_total`), and only a neighbour sum of edges that overflows takes
the halves.

The line kernel works along the last axis of an array of any rank: an N-D
field runs it once over all of its lines, and the 1-D API is a batch of
one.  Fields hold float64 values by default.  Constructing a 1-D field from
``fractions.Fraction`` entries switches every operation on it to exact
rational arithmetic (the kernel's constants are integers, and numpy's
object arrays sum Fractions exactly); in that mode the even-N consistency
test is S == 0 and ``tolerance`` is ignored (see :func:`solve_lines`).
Otherwise the two modes take one path.  Finiteness is read one way in both,
``np.abs(x) < np.inf`` (``abs(x) < math.inf`` for a scalar): False for nan and
+-inf, True for every Fraction, which compares with a float infinity, so a
Fraction is always finite, whatever its size.  A scalar goes back to the
caller as ``np.asarray(x).item()``, a Python float or a Fraction.

All functions here are pure: they never mutate their inputs and keep no
module state, so concurrent use on distinct values needs no locking.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
import sys
from dataclasses import dataclass
from functools import cached_property
from typing import TYPE_CHECKING, Union

import numpy as np

from .errors import InconsistentDataError, ParityError

if TYPE_CHECKING:   # imported where a Fraction is made: the float path never loads it
    from fractions import Fraction

#: Default relative tolerance for the floating-point consistency test.
DEFAULT_TOLERANCE = 1e-10

OUTCOME_ALWAYS_UNIQUE = "always-unique"
OUTCOME_CONSISTENT_DEPENDENT = "consistent-dependent"


def _shown(value, form=str) -> str:
    """``form(value)`` for a message, or, where an integer in ``value`` has more
    digits than ``form`` makes (``sys.get_int_max_str_digits()``), the sign, type
    and that size of ``value``: a message shows every number without raising."""
    try:
        return form(value)
    except ValueError:
        sign = "negative " if isinstance(value, numbers.Real) and value < 0 else ""
        return f"<{sign}{type(value).__name__} of more than {sys.get_int_max_str_digits()} digits>"


def checked_int(value, name: str) -> int:
    """``value`` as a Python int: any integer type but bool, else ValueError."""
    if not isinstance(value, (bool, np.bool_)):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ValueError(f"{name} must be an int, got {_shown(value, repr)}")


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
            raise ValueError(f"n_edges must be at least 3, got {_shown(self.n_edges)}")

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


#: The types of an entry that may be a bool.
_BOOLS = frozenset((bool, np.bool_, np.ndarray))


def _as_numbers(values) -> np.ndarray:
    """``np.asarray(values)``, but a list or tuple holding a bool among numbers,
    or a 0-d bool array (which a numeric array would hold as 0 or 1), is a
    ValueError naming its flat index.  The list is scanned while it still
    holds the caller's entries; an array keeps its dtype, and costs one
    isinstance check."""
    raw = np.asarray(values)
    if isinstance(values, (list, tuple)) and raw.dtype.kind in "iuf":
        def leaves():   # the entries in C order, unpacked one nesting level at a time
            flat = values
            for _ in range(raw.ndim - 1):
                flat = itertools.chain.from_iterable(flat)
            return flat
        # a 0-d array is an entry too, and numpy takes a bool one as 0 or 1 as well
        if not _BOOLS.isdisjoint(set(map(type, leaves()))):
            for k, v in enumerate(leaves()):
                if type(v) in _BOOLS and np.asarray(v).dtype == np.bool_:
                    raise ValueError(
                        f"value at flat index {k} must be a finite real number, got {v}")
    return raw


def checked_floats(values) -> np.ndarray:
    """``values`` as a new float64 array of integers or floats, each finite and
    held exactly (the rule of :func:`_finite_number`, which words the fault of a
    value float64 does not hold), else ValueError."""
    raw = _as_numbers(values)
    if raw.dtype.kind not in "iuf":
        raise ValueError(f"values must be real numbers, got dtype {raw.dtype}")
    with np.errstate(over="ignore"):  # a long double beyond float64 is reported below
        arr = np.array(raw, dtype=np.float64)
    if raw.dtype.kind in "iu":
        # integers up to 2^53 in magnitude convert exactly; compare the rest as ints
        big = np.flatnonzero(np.abs(arr) >= 2.0**53)
        for k, v, f in zip(big.tolist(), raw.flat[big].tolist(), arr.flat[big].tolist()):
            if int(f) != v:   # float64 does not hold v, so this raises
                _finite_number(v, False, f"value at flat index {k}")
        return arr
    finite = np.isfinite(raw)
    if not finite.all():
        k = int(np.flatnonzero(~finite)[0])
        raise ValueError(f"non-finite value at flat index {k}: {raw.flat[k]!s}")
    if np.finfo(raw.dtype).nmant > 52:   # a long double: compared at its own width
        rounded = np.flatnonzero(arr != raw)
        if rounded.size:   # float64 does not hold the value, so this raises
            k = int(rounded[0])
            _finite_number(raw.flat[k], False, f"value at flat index {k}")
    return arr


def _coerce_values(values, expected_len: int) -> np.ndarray:
    """Normalize a value sequence to a 1-D array of float64 or Fraction.

    Object input goes entry by entry through :func:`_finite_number`, in
    exact mode only if some entry is a Fraction.  Everything else goes
    through :func:`checked_floats`.
    """
    arr = _as_numbers(values)
    if arr.ndim != 1:
        raise ValueError(f"values must be one-dimensional, got shape {arr.shape}")
    if arr.shape[0] != expected_len:
        raise ValueError(
            f"length mismatch: grid expects {expected_len} values, got {arr.shape[0]}"
        )
    if arr.dtype == object:
        from fractions import Fraction

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
    zero at every center.  The family keeps the line's partial sums P, and
    each completion (:meth:`member`, :meth:`pinned`, :func:`complete_min_norm`)
    is :func:`_complete` of P into a new buffer, which :func:`complete_lines`
    runs over P, so it gives the gate's edges.  The particular p,
    the member at t = 0 (e_1 = 0), and the null direction (float64, or Python
    ints in exact mode) are built on first read, unless given, as the dense
    oracle gives them.  Reading a particular that overflows float64 raises
    ValueError, though other members may fit.

    Only the kernel (:func:`edges_from_centers`) and the dense oracle
    (:func:`staggrid.exact.solve_dense`) make families; there is no public
    constructor.
    """

    grid: PeriodicStagger1D

    @cached_property
    def particular(self) -> EdgeField1D:
        return self.member(0)

    @cached_property
    def null_direction(self) -> np.ndarray:
        """(+1, -1, +1, ...) in the dtype of P (Python ints for object); the
        kernel negates alternate slots in place instead."""
        signs = np.ones(self.grid.n_unknowns, dtype=self._partial.dtype)
        signs[1::2] = -1
        return signs

    def member(self, t) -> EdgeField1D:
        """The family member at parameter value t."""
        return self._completed("t", t)

    def pinned(self, pin_index: int, pin_value) -> EdgeField1D:
        """The single member with e_{pin_index} = pin_value (1-based index), that
        edge exactly the value as :func:`_finite_number` takes it."""
        return self._completed("pin", pin_index, pin_value)

    def _completed(self, choice, *args) -> EdgeField1D:
        return _kernel_field(EdgeField1D, grid=self.grid,
                             values=_complete(self._partial, choice, *args, keep=True))


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
    rule: N=3 reduces to the single equation 2 e_1 = 2 c_1 (determinant 2,
    since e_2 is e_1 there, so both ones of the row fall on one entry), N=4
    gives the rank-1 matrix [[1,1],[1,1]].
    """
    grid = PeriodicStagger1D(n_edges)
    m = grid.n_unknowns
    if grid.is_odd:
        return SolvabilityReport(grid.n_edges, m, "odd", 2, m, OUTCOME_ALWAYS_UNIQUE)
    return SolvabilityReport(grid.n_edges, m, "even", 0, m - 1, OUTCOME_CONSISTENT_DEPENDENT)


# -- the line kernel: along the last axis, one line per leading index ---------


_OVERFLOW = "{} float64: the input is too large in magnitude"


def alternating_sums(c: np.ndarray):
    """S = sum_{i=1..M} (-1)^(M-i) c_i of every line of ``c``: c_1 (odd M) plus the
    differences c_{2j} - c_{2j-1} (even M) or c_{2j+1} - c_{2j} (odd M), summed
    pairwise as np.sum sums them for a line alone.  On the row path the sum is
    row adds in that order (:func:`_pair_total`): a line of an N-D field gets
    exactly the S it would get on its own, on either path, and where the sum
    overflows it is summed again alone on a prescale.
    """
    odd = c.shape[-1] % 2
    s = _pair_total(np.subtract, c[..., odd:])
    return c[..., 0] + s if odd else s


def _pair_total(op, x: np.ndarray, divisor: int = 1):
    """sum_j op(x_{2j+1}, x_{2j}) / ``divisor`` of every line of ``x``: the sum as
    :func:`_pair_sum` makes it, divided once.  A line whose quotient is not finite
    (never a Fraction line: a Fraction is always finite) is summed again alone on
    x / 2^k, k = ceil(log2 n) for lines of n values, where no sum of n/2 terms,
    each at most 2 max|x| / 2^k, overflows; it is divided there and scaled back
    by 2^k, so that it overflows only where the quotient does.  No other line is
    touched."""
    total = _pair_sum(op, x)
    if divisor != 1:   # an empty sum of Fractions is the int 0, which / makes a float
        total = total / divisor
    if not np.all(np.abs(total) < np.inf):
        total, bad = np.asarray(total), ~np.isfinite(total)
        scale = 2.0 ** (x.shape[-1] - 1).bit_length()
        total[bad] = _pair_sum(op, x[bad] / scale) / divisor * scale
    return total


def _pair_sum(op, x: np.ndarray):
    """sum_j op(x_{2j+1}, x_{2j}) of every line of ``x``, with the bits np.sum
    gives the C-order terms of the line alone, float or Fraction.
    :func:`_pairwise_rows` adds them on the row path, made one row at a time, and
    off it split as numpy splits them into runs of at most ``_LEAF``, each made in
    one scratch of min(n, ``_LEAF``) terms per line and reduced there by
    np.add.reduce, as np.sum reduces: no temporary holds half a line.  Either way
    0, where numpy's accumulator starts, is added last: an all -0.0 line sums to
    +0.0, and a Fraction stays exact."""
    n = x.shape[-1] // 2
    if n and _rowwise(x):
        total = _pairwise_rows(lambda j: op(x[..., 2 * j + 1], x[..., 2 * j]), n)
    else:
        scratch = np.empty(x.shape[:-1] + (min(n, _LEAF),), x.dtype)

        def run(lo, k):   # terms lo .. lo + k - 1, summed as np.sum sums them
            out = scratch[..., :k]
            op(x[..., 2 * lo + 1:2 * (lo + k):2], x[..., 2 * lo:2 * (lo + k):2], out=out)
            return np.add.reduce(out, axis=-1)
        total = _pairwise_rows(None, n, run)
    total += 0
    return total


#: The most terms of a long line that :func:`_pairwise_rows` hands to numpy's
#: reduction at once: the split above it is numpy's, so the bits are too.  At
#: least numpy's own block of 128; 8192 float64 terms (64 KiB a line) stay in L2.
_LEAF = 8192


def _pairwise_rows(term, n: int, run=None, lo: int = 0):
    """term(lo) + ... + term(lo + n - 1) for new rows term(j), added in the order of
    numpy's pairwise_sum (loops_utils.h.src), as np.sum adds a contiguous line:
    over 128 terms, the first n2 = n // 2, rounded down to a multiple of 8, and the
    rest are each summed so and then added; up to 128, under 8 in sequence, else
    into 8 accumulators r_{j mod 8}, combined as ((r0 + r1) + (r2 + r3)) +
    ((r4 + r5) + (r6 + r7)), then the rest in sequence.  Given ``run``, the split
    stops at ``_LEAF`` terms instead, and run(lo, k) sums terms lo .. lo + k - 1,
    as np.sum of them does, in this same order (``term`` is unused)."""
    if n > (128 if run is None else _LEAF):
        n2 = n // 2 - n // 2 % 8
        return _pairwise_rows(term, n2, run, lo) + _pairwise_rows(term, n - n2, run, lo + n2)
    if run is not None:
        return run(lo, n)
    head = n - n % 8 if n >= 8 else 1   # the terms added before the sequential rest
    r = [term(lo + j) for j in range(min(head, 8))]
    for j in range(8, head):
        r[j % 8] += term(lo + j)
    if n >= 8:
        for a, b in ((0, 1), (2, 3), (4, 5), (6, 7), (0, 2), (4, 6), (0, 4)):
            r[a] += r[b]
    for j in range(head, n):
        r[0] += term(lo + j)
    return r[0]


def _telescope(first, partial: np.ndarray, out=None) -> np.ndarray:
    """Edges e_k = (-1)^(k-1) 2 (e_1 / 2 - P_k) of every line from e_1 = ``first``
    and its partial sums P, written over P or into ``out`` (doubled, then the
    even-k slots negated, in place: no sign array).  A line whose e_1 / 2 rounds
    (|e_1| < 2^-1021, with a last bit at 2^-1074) takes (-1)^(k-1) (e_1 - 2 P_k)
    instead, where 2 P_k overflows only with the edge; either way each edge is
    rounded once.  A Fraction line takes the same test, and halving is exact
    there, so no line of it takes the other form.

    ValueError if an edge overflows float64, read from the FP flag, with no pass
    over the edges: where e_1 and P are finite, only overflow makes an edge
    infinite.  A non-finite e_1 or P shows in the last edge, checked once per
    line, as P from :func:`solve_lines` is finite exactly when P_M is.  Each odd
    P_k adds a finite pair difference onto the one before, so a non-finite one
    reaches the last odd P_k and P_M, which is it or it plus c_{M-1}.  An even
    P_k adds onto an odd one, and nothing adds onto it, so a line where one
    overflows, or a pair difference does, is built by the alternating scan,
    P_k = P_{k-1} +- c_{k-1}, where each P_k adds onto the one before.  The check
    is |e| < inf, which every Fraction passes."""
    first = np.asarray(first)[..., None]
    half = first / 2
    rounded = None
    if np.min(np.abs(first), initial=np.inf) < 2.0**-1021:
        rounded = (half * 2 != first)[..., 0]
    out = partial if out is None else out
    try:
        with np.errstate(over="raise", invalid="ignore"):   # a nan comes from an inf input
            if rounded is not None:   # made before P is overwritten
                unhalved = first[rounded] - 2 * partial[rounded]
            np.subtract(half, partial, out=out)
            out *= 2
            if rounded is not None:
                out[rounded] = unhalved
            np.negative(out[..., 1::2], out=out[..., 1::2])
    except FloatingPointError:
        raise ValueError(_OVERFLOW.format("edge values overflow")) from None
    if not np.all(np.abs(out[..., -1]) < np.inf):
        raise ValueError(_OVERFLOW.format("edge values overflow"))
    return out


def _complete(partial: np.ndarray, choice: str, *args, keep: bool = False) -> np.ndarray:
    """Edges of every line of an even-N completion from its partial sums P: e_1
    by ``choice``, then :func:`_telescope`, over P or, with ``keep``, into a new
    buffer, made only once e_1 exists:

    * "t", t: the member p + t (+1, -1, ...) of the particular p, e_1 = t;
    * "min-norm": the member orthogonal to (+1, -1, ...), e_1 = 2 mean(P), the
      pair sums P_{2j-1} + P_{2j} summed and divided once by M / 2, each line
      alone (:func:`_pair_total`), so that e_1 overflows only where it does;
    * "pin", k, v: the member with e_k = v, e_1 = 2 P_k + (-1)^(k-1) v, taken as
      2 (P_k + (-1)^(k-1) v / 2) where halving v is exact, so that 2 P_k
      cannot overflow on its own; e_k is then stored as v itself, which the
      telescope, 2 ((P_k + v / 2) - P_k), would miss by one rounding.
      ValueError unless k is an int in 1..M and v a finite number.

    An e_1 that overflows float64 is left for :func:`_telescope` to refuse."""
    exact = partial.dtype == object
    m = partial.shape[-1]
    if choice == "t":
        first = _finite_number(args[0], exact, "t")
    elif choice == "min-norm":
        with np.errstate(over="ignore", invalid="ignore"):  # the retry is finite if P is
            first = _pair_total(np.add, partial, m // 2)
    else:
        k = checked_int(args[0], "pin index")
        if not 1 <= k <= m:
            raise ValueError(f"pin index must be in 1..{m}, got {_shown(k)}")
        sign = 1 if k % 2 else -1
        v = _finite_number(args[1], exact, "pin value")
        with np.errstate(over="ignore"):
            first = (2 * (partial[..., k - 1] + sign * v / 2) if v / 2 * 2 == v
                     else 2 * partial[..., k - 1] + sign * v)
    edges = _telescope(first, partial, np.empty_like(partial) if keep else None)
    if choice == "pin":
        edges[..., k - 1] = v
    return edges


def _finite_number(value, exact: bool, name: str):
    """``value``, any finite real number but a bool, as a Fraction in exact mode,
    else as the float equal to it (an integer, a Fraction or a numpy float, a long
    double too, is taken whole and compared exactly, so one that float64 cannot
    hold is refused, not rounded).  Else ValueError: "{name} has no exact float64
    value" for a finite real number, "{name} must be a finite real number" for
    anything else."""
    fault = "must be a finite real number, got"
    if (isinstance(value, numbers.Real) and not isinstance(value, bool)
            and -math.inf < value < math.inf):
        num = int(value) if isinstance(value, numbers.Integral) else value
        if exact or isinstance(value, np.floating):
            from fractions import Fraction

            num = (Fraction(*value.as_integer_ratio()) if isinstance(value, np.floating)
                   else Fraction(num))
        if exact or abs(num) <= sys.float_info.max and float(num) == num:
            return num if exact else float(num)
        fault = "has no exact float64 value:"
    # a numpy scalar as str shows it: nan, not np.float64(nan)
    shown = _shown(value, str if isinstance(value, np.generic) else repr)
    raise ValueError(f"{name} {fault} {shown}")


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
    e_i + e_{i+1} = 2 c_i, and for even M the residual 2 S and the verdict
    |2 S| <= (tolerance + 2 M u) max|c|, u = 2^-53: within one rounding per center
    (S == 0 for Fractions); else None, None.  ValueError first unless
    ``tolerance`` is a finite real number (:func:`_finite_number`) >= 0.
    S is summed as :func:`_pair_total` sums it, again alone at 2^-k, k =
    ceil(log2 M), where the sum overflows, so 2 S is +-inf only where it does not
    fit.  A line whose 2 S is not finite, never a Fraction line, is decided alone
    at 2^-k, where S fits: there max|c| >= 1, so scaling both sides is exact,
    even where S, and with a tolerance over 2 the bound, are beyond float64.

    P is a new buffer, built pair-first: P_{2t+1} = P_{2t-1} + (c_{2t-1} - c_{2t})
    in sequence, and P_{2t+2} = P_{2t+1} + c_{2t+1}.  On the row path
    (:func:`_rowwise`) it is laid out position-outermost and built with one row
    subtract and one add onto two rows per pair of positions, and S is row adds
    in numpy's pairwise order; otherwise ``np.cumsum`` runs over the odd-indexed
    P_k of each line, and S is summed in runs of at most ``_LEAF`` terms.  The
    bits agree.  Where the FP overflow flag is raised, a line with some P_k not
    finite is built again by the alternating scan, P_k = P_{k-1} +- c_{k-1}, so
    that P is finite exactly when P_M is (see :func:`_telescope`).
    """
    tolerance = _finite_number(tolerance, False, "tolerance")
    if tolerance < 0.0:
        raise ValueError(f"tolerance must be >= 0, got {tolerance!r}")
    m = c.shape[-1]
    rowwise = _rowwise(c)
    if rowwise:
        partial = np.moveaxis(np.empty((m,) + c.shape[:-1], c.dtype), 0, -1)
    else:
        partial = np.empty_like(c)
    partial[..., 0] = 0
    partial[..., 1:] = c[..., :-1]
    if m % 2 == 0:   # P holds c_1 .. c_{M-1} until it is summed: no |c| temporary
        head = partial[..., 1:]
        max_abs = np.maximum(np.maximum(head.max(axis=-1), -head.min(axis=-1)),
                             np.abs(c[..., -1]))
    overflowed = []
    with np.errstate(over="call", invalid="ignore", call=lambda *_: overflowed.append(True)):
        if rowwise:   # row k holds P_{k+1}; rows k+1, k+2 hold c_{k+1}, c_{k+2} until then
            rows = np.moveaxis(partial, -1, 0)
            for k in range(0, m - 1, 2):
                if k + 2 < m:
                    np.subtract(rows[k + 1], rows[k + 2], out=rows[k + 2])
                if k:   # P_1 = 0 is not added: P_2 = c_1 and P_3 = c_1 - c_2 keep a -0.0
                    rows[k + 1:k + 3] += rows[k]
        else:
            n = (m - 1) // 2
            odd = partial[..., 2::2]   # P_3, P_5, ...: the pair differences, then their sums
            np.subtract(c[..., :2 * n:2], c[..., 1:2 * n:2], out=odd)
            np.cumsum(odd, axis=-1, out=odd)
            np.add(partial[..., 2:m - 1:2], partial[..., 3::2], out=partial[..., 3::2])
    with np.errstate(over="ignore", invalid="ignore"):  # _telescope and the test below report it
        if overflowed:   # the alternating scan for a line with some P_k not finite
            bad = ~((partial.max(axis=-1) < np.inf) & (partial.min(axis=-1) > -np.inf))
            redo = partial[bad]
            redo[..., 1:] = c[bad][..., :-1]
            np.negative(redo[..., 2::2], out=redo[..., 2::2])
            np.cumsum(redo[..., 1:], axis=-1, out=redo[..., 1:])
            partial[bad] = redo
        s = alternating_sums(c)
        if m % 2 == 1:
            return partial, s, None, None
        residual = 2 * s
        allowance = 0 if c.dtype == object else tolerance + 2 * m * 2.0**-53
        consistent = np.abs(residual) <= allowance * max_abs
        if not np.all(np.abs(residual) < np.inf):
            # there max|c| >= 1, and |S| <= allowance max|c| / 2 is decided exactly at
            # 2^-k, where S fits even if it overflows (with a tolerance over 2, so may the bound)
            consistent, bad = np.array(consistent), ~np.isfinite(residual)
            scale = 2.0 ** (m - 1).bit_length()
            consistent[bad] = (np.abs(alternating_sums(c[bad] / scale))
                               <= allowance * (np.asarray(max_abs)[bad] / (2 * scale)))
    return partial, s, residual, consistent


#: Completion strategies accepted by :func:`complete_lines`.
STRATEGIES = ("unique", "min-norm", "pin")


def complete_lines(c: np.ndarray, strategy: str, tolerance: float = DEFAULT_TOLERANCE,
                   pin_index=None, pin_value=None):
    """``(edges, residual)`` of every line of ``c``: edges completed by
    ``strategy``, and 2 S per line, or None for odd N = M + 2.

    The strategy gate for the 1-D and N-D APIs alike.  "unique" (odd N) takes
    e_1 = S and runs :func:`_telescope` over P; "min-norm" and "pin" (even N, and
    only "pin" takes pin_index = k and pin_value = v) are completed over P by
    :func:`_complete`; else ParityError.  The first line in C order that
    :func:`solve_lines` finds inconsistent raises InconsistentDataError, with its
    residual and its index in ``line_coords`` (a 1-D ``c`` is line (0,)), before
    any line is completed.  Edges that overflow float64, and only they, raise
    ValueError.
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

    partial, s, residual, consistent = solve_lines(c, tolerance)
    if odd:
        return _telescope(s, partial), residual
    del s   # one value per line, not held through the completion
    if not np.all(consistent):
        line = int(np.flatnonzero(np.logical_not(consistent))[0])
        coords = tuple(int(x) for x in np.unravel_index(line, np.shape(residual) or (1,)))
        bad = np.ravel(residual)[line:line + 1].tolist()[0]   # a float, or a Fraction
        # the tolerance as the float solve_lines took: before 3.12 a Fraction has no "g"
        raise InconsistentDataError(
            f"line {coords} admits no edge solution "
            f"(residual {_shown(bad)}, tolerance {float(tolerance):g})",
            residual=bad, line_coords=coords)
    return _complete(partial, strategy, pin_index, pin_value), residual


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
    and are halved in place.  Only where a sum overflows float64 (read from the
    FP flag, so no pass is made where none does: edges are finite) are the
    halves added instead, e_i / 2 + e_{i+1} / 2: there both are at least 2^970
    in magnitude, so halving is exact and the mean, always finite, is rounded
    once.  Each center depends on its two edges alone.
    """
    overflowed = []
    with np.errstate(over="call", call=lambda *_: overflowed.append(True)):
        c = _neighbour_sums(e)
    c /= 2   # an overflowed sum is inf, and only it: edges are finite
    return np.where(np.isinf(c), _neighbour_sums(e / 2), c) if overflowed else c


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
    alternating sum of the other centers).  S is a Python float, or a Fraction
    in exact mode.  ValueError only if S is not finite, so beyond float64, which
    a Fraction never is: where differences or partial sums overflow but S fits,
    it is summed again on a prescale (see :func:`_pair_total`).
    """
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        s = alternating_sums(centers.values)
    if not abs(s) < math.inf:
        raise ValueError(_OVERFLOW.format("the alternating sum overflows"))
    return np.asarray(s).item()


def edges_from_centers(centers: CenterField1D,
                       tolerance: float = DEFAULT_TOLERANCE) -> SolveOutcome:
    """Solve e_i + e_{i+1} = 2 c_i for the edges, classifying the outcome.

    Odd N: :func:`complete_lines` with "unique", always :class:`Unique`.  Even N:
    when the line is consistent (|2 S| <= (tolerance + 2 M u) max|c|, u = 2^-53:
    within one rounding per center; S == 0 in exact mode), a :class:`Family`
    holding the partial sums P, with no edge built yet; else
    :class:`Inconsistent` with the residual 2 S of :func:`solve_lines` (+-inf if it
    overflows), as :func:`complete_lines` raises it, a Python float or a Fraction.
    Raises ValueError when the edges overflow float64, on even N only when P
    does (P_M is not finite), so that no member fits; a Fraction line never does.
    """
    grid = centers.grid
    if grid.is_odd:
        edges, _ = complete_lines(centers.values, "unique", tolerance)
        return Unique(_kernel_field(EdgeField1D, grid=grid, values=edges))
    partial, _, residual, consistent = solve_lines(centers.values, tolerance)
    if not consistent:
        return Inconsistent(np.asarray(residual).item())
    if not abs(partial[-1]) < math.inf:
        raise ValueError(_OVERFLOW.format("edge values overflow"))
    return _kernel_field(Family, grid=grid, _partial=partial)


def complete_min_norm(outcome: SolveOutcome) -> EdgeField1D:
    """Pick the family member of minimal Euclidean norm.

    That member is orthogonal to the null direction, at t* = -<particular,
    null> / M; it is one telescope from the family's partial sums (see
    :func:`_complete`).  Raises unless the outcome actually has a free
    parameter, and ValueError only when that member overflows float64.
    """
    if isinstance(outcome, Unique):
        raise ParityError(
            "minimum-norm completion needs an even-N family; this solution is already unique"
        )
    if isinstance(outcome, Inconsistent):
        raise InconsistentDataError(
            f"minimum-norm completion impossible: no solution exists "
            f"(residual {_shown(outcome.residual)})",
            residual=outcome.residual, line_coords=(0,),
        )
    return outcome._completed("min-norm")


def complete_pinned(centers: CenterField1D, pin_index: int, pin_value,
                    tolerance: float = DEFAULT_TOLERANCE) -> EdgeField1D:
    """Solve an even-N system and pick the member with e_{pin_index} = pin_value.

    ``pin_index`` is 1-based, matching the e_1..e_M naming, and that edge is
    exactly ``pin_value``, as :func:`_finite_number` takes it.  Raises
    ParityError on odd N (there is nothing to pin: the solution is unique)
    and InconsistentDataError when no solution exists at all.
    """
    edges, _ = complete_lines(centers.values, "pin", tolerance, pin_index, pin_value)
    return _kernel_field(EdgeField1D, grid=centers.grid, values=edges)
