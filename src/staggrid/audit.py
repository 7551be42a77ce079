"""Self-audit: parity theory versus the dense exact oracle, size by size.

For every N in a range this builds the center-to-edge system of a sample,
eliminates it once, reads determinant, rank, echelon structure and the dense
solve off that one echelon form, and compares the solve with the fast
recurrence solver's, by one rule (:func:`_agree`).  The forced-consistent
even sample is a second system, eliminated once in its own dense solve.
Each fact the parity classification asserts is checked against what the
oracle actually computes; any disagreement flips the record (and the
report) to FAIL.  A record keeps only what the oracle and the kernel gave;
what the theory asserts is its ``report``, read from
:func:`~staggrid.grid.solvability_report` by size.

Sample data is fixed, not random, so the rendered report is reproducible:
centers c_i = i for the generic sample, with the last center replaced by
the alternating sum of the others for the forced-consistent even sample.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

from .exact import MAX_ORACLE_UNKNOWNS, _outcome, build_system, row_echelon, solve_dense
from .grid import (
    CenterField1D,
    Family,
    Inconsistent,
    PeriodicStagger1D,
    SolvabilityReport,
    Unique,
    _shown,
    alternating_residual,
    centers_from_edges,
    checked_int,
    edges_from_centers,
    solvability_report,
)


@dataclass(frozen=True)
class AuditRecord:
    """All audited facts for one grid size.

    ``checks`` maps check name to pass/fail; ``passed`` is their
    conjunction.  ``bottom_row``/``bottom_rhs`` are the last row of the
    echelon form of the c_i = i sample, kept as strings so the record
    serializes without caring that they were exact rationals; the row ends in
    the bottom pivot.  ``report`` is what the theory asserts for the size
    (unknowns, parity, determinant, rank, outcome class), made on each read
    from ``n_edges`` and never stored.
    """

    n_edges: int
    determinant_oracle: int
    rank_oracle: int
    bottom_row: Tuple[str, ...]
    bottom_rhs: str
    zero_row: bool
    solve_summary: str
    checks: Dict[str, bool]

    @property
    def report(self) -> SolvabilityReport:
        return solvability_report(self.n_edges)

    @property
    def passed(self) -> bool:
        return all(self.checks.values())


@dataclass(frozen=True)
class AuditReport:
    """Audit records for every N in [n_min, n_max]."""

    n_min: int
    n_max: int
    records: Tuple[AuditRecord, ...]

    @property
    def n_failures(self) -> int:
        return sum(1 for r in self.records if not r.passed)

    @property
    def overall_pass(self) -> bool:
        return self.n_failures == 0


def _reproduces_centers(edges, centers: CenterField1D) -> bool:
    return list(centers_from_edges(edges).values) == list(centers.values)


def _agree(kind, fast, dense, centers: CenterField1D) -> bool:
    """Whether the kernel's outcome ``fast`` and the oracle's ``dense`` for
    ``centers`` are both a ``kind`` and the same answer.

    The tests run in order and stop at the first that fails, so a wrong kernel
    reads as a disagreement, not an exception: the types; then the edges, the
    residual (twice the alternating sum of ``centers``) or the null direction;
    then that the edges reproduce ``centers``; then, for a family, that the
    particulars differ by a multiple of the null direction.  Every comparison
    is of whole sequences, lengths included.
    """
    if not (isinstance(fast, kind) and isinstance(dense, kind)):
        return False
    if kind is Inconsistent:
        return fast.residual == dense.residual == 2 * alternating_residual(centers)
    if kind is Unique:
        return (list(fast.edges.values) == list(dense.edges.values)
                and _reproduces_centers(fast.edges, centers))
    null = list(dense.null_direction)
    if not (list(fast.null_direction) == null
            and _reproduces_centers(fast.particular, centers)
            and _reproduces_centers(dense.particular, centers)):
        return False
    diff = [a - b for a, b in zip(fast.particular.values, dense.particular.values)]
    t = diff[0] / null[0]   # the null directions agree, so null[0] is the oracle's +1
    return diff == [t * n for n in null]


def _audit_one(n_edges: int) -> AuditRecord:
    report = solvability_report(n_edges)
    grid = PeriodicStagger1D(n_edges)
    m = grid.n_unknowns
    vals = [Fraction(i) for i in range(1, m + 1)]   # the generic sample c_i = i, exact
    sample = CenterField1D(grid, vals)

    ech = row_echelon(build_system(sample))
    bottom = ech.reduced_matrix[m - 1]
    zero_row = all(v == 0 for v in bottom)

    checks: Dict[str, bool] = {
        "determinant": ech.determinant == report.determinant,
        "rank": ech.rank == report.rank,
        "bottom_pivot": bottom[m - 1] == report.determinant,
        "zero_row": zero_row == (report.parity == "even"),
    }

    fast = edges_from_centers(sample)
    dense = _outcome(ech)   # the dense solve, read off the elimination above

    if grid.is_odd:
        agree = _agree(Unique, fast, dense, sample)
        checks["solve_unique"] = agree
        # The eliminated last equation reads (bottom pivot) * e_M = rhs, so
        # the rhs must be twice the last edge of the unique solution.
        checks["bottom_rhs"] = (isinstance(fast, Unique)
                                and ech.reduced_rhs[m - 1] == 2 * fast.edges.values[m - 1])
        solve_summary = "unique:" + ("agree" if agree else "disagree")
    else:
        incons_agree = _agree(Inconsistent, fast, dense, sample)
        checks["solve_inconsistent"] = incons_agree
        checks["bottom_rhs"] = ech.reduced_rhs[m - 1] == 2 * alternating_residual(sample)

        # c_M forced to the alternating sum of the rest, written out here rather than
        # taken from the kernel it checks: the residual is then exactly zero
        forced = CenterField1D(grid, vals[:-1] + [
            sum(Fraction((-1) ** (m - 1 - i)) * vals[i - 1] for i in range(1, m))])
        family_agree = _agree(Family, edges_from_centers(forced),
                              solve_dense(build_system(forced)), forced)
        checks["solve_family"] = family_agree
        solve_summary = ("family:" + ("agree" if family_agree else "disagree")
                         + ",inconsistent:" + ("agree" if incons_agree else "disagree"))

    return AuditRecord(n_edges=n_edges, determinant_oracle=ech.determinant, rank_oracle=ech.rank,
                       bottom_row=tuple(str(v) for v in bottom),
                       bottom_rhs=str(ech.reduced_rhs[m - 1]), zero_row=zero_row,
                       solve_summary=solve_summary, checks=checks)


def build_audit_report(n_min: int, n_max: int) -> AuditReport:
    """Audit every grid size in [n_min, n_max], both ints of at least 3, else ValueError.

    The upper end is bounded by the dense-oracle cap: n_max may not exceed
    MAX_ORACLE_UNKNOWNS + 2 unknowns' worth of edges.
    """
    n_min, n_max = checked_int(n_min, "n_min"), checked_int(n_max, "n_max")
    if n_min < 3:
        raise ValueError(f"n_min must be at least 3, got {_shown(n_min)}")
    if n_max < n_min:
        raise ValueError(f"n_max must be >= n_min, got {_shown(n_min)}..{_shown(n_max)}")
    if n_max > MAX_ORACLE_UNKNOWNS + 2:
        raise ValueError(
            f"n_max must be at most {MAX_ORACLE_UNKNOWNS + 2} "
            f"(dense oracle cap), got {_shown(n_max)}"
        )
    records = tuple(_audit_one(n) for n in range(n_min, n_max + 1))
    return AuditReport(n_min, n_max, records)


def render_text(report: AuditReport) -> str:
    """One line per size, space-separated key=value tokens, stable forever."""
    lines = [f"solvability audit N={report.n_min}..{report.n_max}"]
    for r in report.records:
        lines.append(
            f"N={r.n_edges} M={r.report.n_unknowns} parity={r.report.parity} "
            f"det={r.determinant_oracle} rank={r.rank_oracle} "
            f"class={r.report.outcome_class} pivot={r.bottom_row[-1]} "
            f"zero_row={'yes' if r.zero_row else 'no'} "
            f"solve={r.solve_summary} "
            f"verdict={'PASS' if r.passed else 'FAIL'}"
        )
    lines.append(
        f"records={len(report.records)} failures={report.n_failures} "
        f"overall={'PASS' if report.overall_pass else 'FAIL'}"
    )
    return "\n".join(lines) + "\n"


def render_json(report: AuditReport) -> str:
    """The full report as stable JSON (sorted keys, two-space indent)."""
    payload = {
        "n_min": report.n_min,
        "n_max": report.n_max,
        "overall": "PASS" if report.overall_pass else "FAIL",
        "failures": report.n_failures,
        "records": [
            {
                "n_edges": r.n_edges,
                "n_unknowns": r.report.n_unknowns,
                "parity": r.report.parity,
                "outcome_class": r.report.outcome_class,
                "determinant": {"theory": r.report.determinant, "oracle": r.determinant_oracle},
                "rank": {"theory": r.report.rank, "oracle": r.rank_oracle},
                "bottom_row": list(r.bottom_row),
                "bottom_rhs": r.bottom_rhs,
                "zero_row": r.zero_row,
                "solve_summary": r.solve_summary,
                "checks": dict(r.checks),
                "verdict": "PASS" if r.passed else "FAIL",
            }
            for r in report.records
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"
