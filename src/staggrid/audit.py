"""Self-audit: parity theory versus the dense exact oracle, size by size.

For every N in a range this builds the center-to-edge system, recomputes
determinant, rank, and echelon structure with the exact dense routines, and
solves deterministic sample data with both the fast recurrence solver and
dense elimination.  Each fact the parity classification asserts is checked
against what the oracle actually computes; any disagreement flips the
record (and the report) to FAIL.

Sample data is fixed, not random, so the rendered report is reproducible:
centers c_i = i for the generic sample, with the last center replaced by
the alternating sum of the others for the forced-consistent even sample.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, Tuple

import numpy as np

from .exact import MAX_ORACLE_UNKNOWNS, build_system, determinant_exact, row_echelon, solve_dense
from .grid import (
    CenterField1D,
    Family,
    Inconsistent,
    PeriodicStagger1D,
    Unique,
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
    serializes without caring that they were exact rationals.
    """

    n_edges: int
    n_unknowns: int
    parity: str
    outcome_class: str
    determinant_theory: int
    determinant_oracle: int
    rank_theory: int
    rank_oracle: int
    bottom_pivot: str
    bottom_row: Tuple[str, ...]
    bottom_rhs: str
    zero_row: bool
    solve_summary: str
    checks: Dict[str, bool]

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


def _generic_sample(grid: PeriodicStagger1D) -> CenterField1D:
    """Integer centers c_i = i, exact."""
    m = grid.n_unknowns
    return CenterField1D(grid, np.array([Fraction(i) for i in range(1, m + 1)],
                                        dtype=object))


def _consistent_sample(grid: PeriodicStagger1D) -> CenterField1D:
    """The generic sample with c_M forced to the alternating sum of the rest.

    Only meaningful for even N, where it makes the residual exactly zero.
    """
    m = grid.n_unknowns
    vals = [Fraction(i) for i in range(1, m + 1)]
    vals[m - 1] = sum(
        Fraction((-1) ** (m - 1 - i)) * vals[i - 1] for i in range(1, m)
    )
    return CenterField1D(grid, np.array(vals, dtype=object))


def _reproduces_centers(edges, centers: CenterField1D) -> bool:
    back = centers_from_edges(edges)
    return all(a == b for a, b in zip(back.values, centers.values))


def _audit_one(n_edges: int) -> AuditRecord:
    report = solvability_report(n_edges)
    grid = PeriodicStagger1D(n_edges)
    m = grid.n_unknowns
    sample = _generic_sample(grid)

    system = build_system(sample)
    det = determinant_exact(system)
    ech = row_echelon(system)
    bottom = ech.reduced_matrix[m - 1]
    zero_row = all(v == 0 for v in bottom)

    checks: Dict[str, bool] = {
        "determinant": det == report.determinant,
        "rank": ech.rank == report.rank,
        "bottom_pivot": bottom[m - 1] == report.determinant,
        "zero_row": zero_row == (report.parity == "even"),
    }

    fast = edges_from_centers(sample)
    dense = solve_dense(system)

    if grid.is_odd:
        agree = (
            isinstance(fast, Unique)
            and isinstance(dense, Unique)
            and all(a == b for a, b in zip(fast.edges.values, dense.edges.values))
            and _reproduces_centers(fast.edges, sample)
        )
        checks["solve_unique"] = agree
        # The eliminated last equation reads (bottom pivot) * e_M = rhs, so
        # the rhs must be twice the last edge of the unique solution.
        checks["bottom_rhs"] = ech.reduced_rhs[m - 1] == 2 * fast.edges.values[m - 1]
        solve_summary = "unique:" + ("agree" if agree else "disagree")
    else:
        s = alternating_residual(sample)
        incons_agree = (
            isinstance(fast, Inconsistent)
            and isinstance(dense, Inconsistent)
            and fast.residual == dense.residual == 2 * s
        )
        checks["solve_inconsistent"] = incons_agree
        checks["bottom_rhs"] = ech.reduced_rhs[m - 1] == 2 * s

        forced = _consistent_sample(grid)
        fast_f = edges_from_centers(forced)
        dense_f = solve_dense(build_system(forced))
        family_agree = (
            isinstance(fast_f, Family)
            and isinstance(dense_f, Family)
            and all(a == b for a, b in zip(fast_f.null_direction, dense_f.null_direction))
            and _reproduces_centers(fast_f.particular, forced)
            and _reproduces_centers(dense_f.particular, forced)
            and _same_family(fast_f, dense_f)
        )
        checks["solve_family"] = family_agree
        solve_summary = ("family:" + ("agree" if family_agree else "disagree")
                         + ",inconsistent:" + ("agree" if incons_agree else "disagree"))

    return AuditRecord(
        n_edges=n_edges,
        n_unknowns=m,
        parity=report.parity,
        outcome_class=report.outcome_class,
        determinant_theory=report.determinant,
        determinant_oracle=det,
        rank_theory=report.rank,
        rank_oracle=ech.rank,
        bottom_pivot=str(bottom[m - 1]),
        bottom_row=tuple(str(v) for v in bottom),
        bottom_rhs=str(ech.reduced_rhs[m - 1]),
        zero_row=zero_row,
        solve_summary=solve_summary,
        checks=checks,
    )


def _same_family(a: Family, b: Family) -> bool:
    """True when two families describe the same affine solution line."""
    diff = [pa - pb for pa, pb in zip(a.particular.values, b.particular.values)]
    t = diff[0] / a.null_direction[0]
    return all(d == t * n for d, n in zip(diff, a.null_direction))


def build_audit_report(n_min: int, n_max: int) -> AuditReport:
    """Audit every grid size in [n_min, n_max], both ints of at least 3, else ValueError.

    The upper end is bounded by the dense-oracle cap: n_max may not exceed
    MAX_ORACLE_UNKNOWNS + 2 unknowns' worth of edges.
    """
    n_min, n_max = checked_int(n_min, "n_min"), checked_int(n_max, "n_max")
    if n_min < 3:
        raise ValueError(f"n_min must be at least 3, got {n_min}")
    if n_max < n_min:
        raise ValueError(f"n_max must be >= n_min, got {n_min}..{n_max}")
    if n_max > MAX_ORACLE_UNKNOWNS + 2:
        raise ValueError(
            f"n_max must be at most {MAX_ORACLE_UNKNOWNS + 2} "
            f"(dense oracle cap), got {n_max}"
        )
    records = tuple(_audit_one(n) for n in range(n_min, n_max + 1))
    return AuditReport(n_min, n_max, records)


def render_text(report: AuditReport) -> str:
    """One line per size, space-separated key=value tokens, stable forever."""
    lines = [f"solvability audit N={report.n_min}..{report.n_max}"]
    for r in report.records:
        lines.append(
            f"N={r.n_edges} M={r.n_unknowns} parity={r.parity} "
            f"det={r.determinant_oracle} rank={r.rank_oracle} "
            f"class={r.outcome_class} pivot={r.bottom_pivot} "
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
                "n_unknowns": r.n_unknowns,
                "parity": r.parity,
                "outcome_class": r.outcome_class,
                "determinant": {"theory": r.determinant_theory,
                                "oracle": r.determinant_oracle},
                "rank": {"theory": r.rank_theory, "oracle": r.rank_oracle},
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
