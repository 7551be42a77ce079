"""Exact dense linear-algebra oracle for the center-to-edge system.

Everything here works on explicit dense matrices over exact arithmetic
(Python ints for the matrix, ``fractions.Fraction`` for right-hand sides),
independent of the O(M) recurrence solver in :mod:`staggrid.grid`.  Its job
is to certify that solver the slow, obviously-correct way, for cross-checking
in tests and in the ``audit`` command.  One forward elimination,
:func:`row_echelon`, gives the determinant, the rank and the echelon form;
:func:`solve_dense` reads the outcome off that echelon form by
back-substitution, so a caller that already holds it (the audit) solves
without a second elimination.

Dense exact elimination is O(M^3) with coefficient growth, so system
construction is capped at ``MAX_ORACLE_UNKNOWNS`` unknowns.  The cap is fixed,
not an option: the oracle exists to validate small cases, not to be a
production solver.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

import numpy as np

from .grid import (
    CenterField1D,
    EdgeField1D,
    Family,
    Inconsistent,
    PeriodicStagger1D,
    SolveOutcome,
    Unique,
    _kernel_field,
    _shown,
)

#: Ceiling on system size for the dense oracle.
MAX_ORACLE_UNKNOWNS = 64
_CAPPED = f"dense oracle capped at {MAX_ORACLE_UNKNOWNS} unknowns; got m={{}}"

_Matrix = Tuple[Tuple[int, ...], ...]
_FracRow = Tuple[Fraction, ...]


def _cyclic_pattern(m: int) -> _Matrix:
    """The M x M coefficient pattern of e_i + e_{i+1} = 2 c_i with wrap.

    Row i adds a one in column i and one in column i+1; the last row wraps
    its second one back to column 1.  For M = 1 that wrapped column is column
    1 itself (e_2 is e_1), so the rule gives the single equation 2 e_1 = 2 c_1.
    """
    rows = []
    for i in range(m):
        row = [0] * m
        row[i] = 1
        row[(i + 1) % m] += 1
        rows.append(tuple(row))
    return tuple(rows)


@dataclass(frozen=True)
class DenseSystem:
    """Explicit matrix form A e = b of the center-to-edge equations.

    ``matrix`` is the integer coefficient pattern; ``rhs`` holds the exact
    values 2 c_i.  Construction validates that the matrix really is the
    cyclic pattern for its size, so a DenseSystem cannot describe any other
    linear system; it checks m against ``MAX_ORACLE_UNKNOWNS`` and the length
    of ``rhs`` first, so the M x M pattern it compares with is never large.
    """

    m: int
    matrix: _Matrix
    rhs: _FracRow

    def __post_init__(self) -> None:
        if self.m < 1:
            raise ValueError(f"system needs at least one unknown, got m={_shown(self.m)}")
        if self.m > MAX_ORACLE_UNKNOWNS:
            raise ValueError(_CAPPED.format(_shown(self.m)))
        if len(self.rhs) != self.m:
            raise ValueError(
                f"rhs length {len(self.rhs)} does not match m={self.m}"
            )
        if self.matrix != _cyclic_pattern(self.m):   # built only for a small m that rhs matches
            raise ValueError("matrix is not the cyclic center-to-edge pattern")
        if not all(isinstance(v, Fraction) for v in self.rhs):
            raise ValueError("rhs entries must be Fractions")


@dataclass(frozen=True)
class EchelonResult:
    """Row-echelon form of a DenseSystem, with the bookkeeping tests need.

    ``reduced_matrix`` and ``reduced_rhs`` are the matrix and right-hand
    side after forward elimination (no pivot scaling, rows swapped only to
    escape a zero pivot).  ``pivot_columns`` lists the column of each pivot
    in row order, and ``rank`` counts them.  ``determinant`` is the product
    of the pivots, negated once per row swap, or 0 below full rank.
    """

    reduced_matrix: Tuple[_FracRow, ...]
    reduced_rhs: _FracRow
    pivot_columns: Tuple[int, ...]
    determinant: int

    @property
    def rank(self) -> int:
        return len(self.pivot_columns)


def build_system(centers: CenterField1D) -> DenseSystem:
    """Materialize the dense system A e = 2 c for a center field."""
    m = centers.grid.n_unknowns
    if m > MAX_ORACLE_UNKNOWNS:   # before the M values of b are made
        raise ValueError(_CAPPED.format(m))
    rhs = tuple(2 * Fraction(v) for v in centers.values)
    return DenseSystem(m, _cyclic_pattern(m), rhs)


def determinant_exact(system: DenseSystem) -> int:
    """Exact determinant, as :func:`row_echelon` finds it.

    For the cyclic pattern this is 1 - (-1)^M: 2 when M is odd, 0 when M is
    even; M = 1 is odd too, its single entry 2 following from the pattern's
    rule (e_2 is e_1).  The elimination is general, though; it does not
    assume that answer.
    """
    return row_echelon(system).determinant


def row_echelon(system: DenseSystem) -> EchelonResult:
    """Forward elimination over Fractions, in natural row order.

    Pivots are never scaled to 1 and rows are swapped only when a pivot
    position is zero, so for the cyclic pattern the reduction is the
    literal sequence "subtract each row from the next, alternating sign".
    That makes the final row the parity witness: its diagonal entry is
    1 - (-1)^M and its right-hand side is (for even M) twice the
    alternating center sum.  The determinant is the signed product of the
    pivots, an integer for the integer matrix; a column with no pivot makes
    it 0.
    """
    m = system.m
    a = [[Fraction(v) for v in row] for row in system.matrix]
    b = [Fraction(v) for v in system.rhs]
    pivot_cols = []
    det = 1
    for col in range(m):
        row = len(pivot_cols)   # the next pivot's row
        if a[row][col] == 0:
            swap = next((r for r in range(row + 1, m) if a[r][col] != 0), None)
            if swap is None:
                det = 0
                continue
            a[row], a[swap] = a[swap], a[row]
            b[row], b[swap] = b[swap], b[row]
            det = -det
        pivot = a[row][col]
        det *= pivot
        for r in range(row + 1, m):
            if a[r][col] != 0:
                factor = a[r][col] / pivot
                for c in range(col, m):
                    a[r][c] -= factor * a[row][c]
                b[r] -= factor * b[row]
        pivot_cols.append(col)
    return EchelonResult(
        reduced_matrix=tuple(tuple(r) for r in a),
        reduced_rhs=tuple(b),
        pivot_columns=tuple(pivot_cols),
        determinant=int(det),
    )


def solve_dense(system: DenseSystem) -> SolveOutcome:
    """Classify and solve the dense system exactly: one :func:`row_echelon`,
    then :func:`_outcome` reads the outcome off its echelon form.

    Returns the same outcome types as the fast solver, always in exact
    mode: a full-rank system back-substitutes to :class:`Unique`; a
    rank-deficient one is :class:`Inconsistent` when the zero row keeps a
    nonzero right-hand side, otherwise :class:`Family` with the free
    variable set to zero and the null direction scaled to lead with +1.  The
    family keeps that particular and null direction, and its completions run
    the kernel's telescope from the partial sums of the particular.
    """
    return _outcome(row_echelon(system))


def _outcome(ech: EchelonResult) -> SolveOutcome:
    """The outcome of the system whose echelon form is ``ech``, as
    :func:`solve_dense` describes it; no elimination of its own."""
    b = ech.reduced_rhs
    m = len(b)
    grid = PeriodicStagger1D(m + 2)

    # A singular system has one dependent row for this pattern, the last; its
    # rhs is the obstruction to solvability.
    if ech.rank < m and b[m - 1] != 0:
        return Inconsistent(b[m - 1])
    # Every unknown without a pivot (the free one of a singular system) is set
    # to zero for the particular solution.
    sol = _back_substitute(ech, b)
    particular = EdgeField1D(grid, np.array(sol, dtype=object))
    if ech.rank == m:
        return Unique(particular)
    # The null direction solves the homogeneous system with the free unknown at 1.
    null = _back_substitute(ech, [Fraction(0)] * m, Fraction(1))
    null = [v / null[0] for v in null]   # leads with +1
    # the kernel's partial sums of this particular, P_k = -(-1)^(k-1) p_k / 2, exact
    partial = np.array([p / 2 if k % 2 else -p / 2 for k, p in enumerate(sol)], dtype=object)
    return _kernel_field(Family, grid=grid, _partial=partial, particular=particular,
                         null_direction=np.array(null, dtype=object))


def _back_substitute(ech: EchelonResult, b, free_value: Fraction = Fraction(0)) -> list:
    """Back-substitute the echelon form with right-hand side ``b``, each row
    for the unknown in its pivot column, and every unknown without a pivot
    fixed at ``free_value``."""
    a = ech.reduced_matrix
    m = len(a)
    sol: list = [free_value] * m
    for r, col in reversed(list(enumerate(ech.pivot_columns))):
        acc = b[r]
        for c in range(col + 1, m):
            acc -= a[r][c] * sol[c]
        sol[col] = acc / a[r][col]
    return sol
