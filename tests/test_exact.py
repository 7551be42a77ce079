"""Tests for the dense exact oracle and its agreement with the fast solver."""

import tracemalloc
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import staggrid.audit as audit
import staggrid.exact as exact
from staggrid import (
    CenterField1D,
    DenseSystem,
    EdgeField1D,
    Family,
    Inconsistent,
    PeriodicStagger1D,
    Unique,
    alternating_residual,
    build_system,
    centers_from_edges,
    determinant_exact,
    edges_from_centers,
    row_echelon,
    solve_dense,
)


def exact_centers(n_edges, ints):
    grid = PeriodicStagger1D(n_edges)
    return CenterField1D(grid, np.array([Fraction(v) for v in ints], dtype=object))


class TestBuildSystem:
    def test_pattern_m3(self):
        sys3 = build_system(exact_centers(5, [1, 2, 3]))
        assert sys3.matrix == ((1, 1, 0), (0, 1, 1), (1, 0, 1))
        assert sys3.rhs == (Fraction(2), Fraction(4), Fraction(6))

    def test_pattern_m4_wraps_last_row(self):
        sys4 = build_system(exact_centers(6, [1, 2, 3, 4]))
        assert sys4.matrix[3] == (1, 0, 0, 1)

    def test_pattern_m1_convention(self):
        # single unknown: both stencil ones land on the same entry
        sys1 = build_system(exact_centers(3, [5]))
        assert sys1.matrix == ((2,),)
        assert sys1.rhs == (Fraction(10),)

    def test_float_centers_convert_exactly(self):
        grid = PeriodicStagger1D(5)
        sys_f = build_system(CenterField1D(grid, [0.5, 0.25, 2.0]))
        assert sys_f.rhs == (Fraction(1), Fraction(1, 2), Fraction(4))

    def test_size_cap(self):
        grid = PeriodicStagger1D(67)  # M = 65
        c = CenterField1D(grid, np.zeros(65))
        with pytest.raises(ValueError):
            build_system(c)

    def test_validation_rejects_foreign_matrix(self):
        with pytest.raises(ValueError):
            DenseSystem(2, ((1, 0), (0, 1)), (Fraction(1), Fraction(1)))
        with pytest.raises(ValueError):
            DenseSystem(1, ((2,),), (Fraction(1), Fraction(1)))
        with pytest.raises(ValueError):
            DenseSystem(1, ((2,),), (1,))

    def test_validation_rejects_an_empty_system(self):
        with pytest.raises(ValueError, match="^system needs at least one unknown, got m=0$"):
            DenseSystem(0, (), ())

    @pytest.mark.parametrize("m, message", [
        (10**5, "^dense oracle capped at 64 unknowns; got m=100000$"),
        (1000, "^dense oracle capped at 64 unknowns; got m=1000$"),
        (64, "^rhs length 0 does not match m=64$"),
    ])
    def test_size_and_rhs_are_checked_before_the_pattern_is_built(self, m, message):
        """The M x M pattern is built only for a system within the cap whose rhs
        has M values: m = 1000 alone peaked at 8.07 MB traced before."""
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=message):
                DenseSystem(m, (), ())
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestDeterminant:
    @pytest.mark.parametrize("m", range(1, 15))
    def test_parity(self, m):
        c = exact_centers(m + 2, list(range(1, m + 1)))
        det = determinant_exact(build_system(c))
        assert det == (2 if m % 2 == 1 else 0)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_matches_float_determinant(self, m):
        sys_m = build_system(exact_centers(m + 2, [0] * m))
        ref = np.linalg.det(np.array(sys_m.matrix, dtype=np.float64))
        assert determinant_exact(sys_m) == pytest.approx(ref, abs=1e-9)


class TestRowEchelon:
    def test_odd_structure(self):
        # M=3, c=(1,2,3): bottom row pivots to 2, rhs is twice the last edge
        ech = row_echelon(build_system(exact_centers(5, [1, 2, 3])))
        assert ech.rank == 3
        assert ech.pivot_columns == (0, 1, 2)
        assert ech.reduced_matrix[2] == (0, 0, 2)
        assert ech.reduced_rhs[2] == 8  # unique solution ends e_3 = 4

    def test_even_structure(self):
        # M=4: bottom row eliminates to zero; its rhs is the obstruction 2S
        ech = row_echelon(build_system(exact_centers(6, [1, 2, 3, 5])))
        assert ech.rank == 3
        assert ech.pivot_columns == (0, 1, 2)
        assert ech.reduced_matrix[3] == (0, 0, 0, 0)
        assert ech.reduced_rhs[3] == 6

    def test_even_consistent_rhs_vanishes(self):
        ech = row_echelon(build_system(exact_centers(6, [1, 2, 3, 2])))
        assert ech.reduced_rhs[3] == 0

    def test_m2_rank_one(self):
        ech = row_echelon(build_system(exact_centers(4, [7, 7])))
        assert ech.rank == 1
        assert ech.pivot_columns == (0,)
        assert ech.reduced_matrix[1] == (0, 0)
        assert ech.reduced_rhs[1] == 0

    def test_m1(self):
        ech = row_echelon(build_system(exact_centers(3, [5])))
        assert ech.rank == 1
        assert ech.reduced_matrix == ((2,),)
        assert ech.reduced_rhs == (10,)

    @pytest.mark.parametrize("m", range(1, 13))
    def test_bottom_pivot_follows_parity(self, m):
        ech = row_echelon(build_system(exact_centers(m + 2, [1] * m)))
        assert ech.reduced_matrix[m - 1][m - 1] == (2 if m % 2 == 1 else 0)


class TestSolveDense:
    def test_unique_example(self):
        out = solve_dense(build_system(exact_centers(5, [1, 2, 3])))
        assert isinstance(out, Unique)
        assert list(out.edges.values) == [2, 0, 4]

    def test_family_example(self):
        out = solve_dense(build_system(exact_centers(6, [1, 2, 3, 2])))
        assert isinstance(out, Family)
        assert list(out.null_direction) == [1, -1, 1, -1]
        back = centers_from_edges(out.particular)
        assert list(back.values) == [1, 2, 3, 2]

    def test_inconsistent_example(self):
        out = solve_dense(build_system(exact_centers(6, [1, 2, 3, 5])))
        assert isinstance(out, Inconsistent)
        assert out.residual == 6

    def test_m2_consistent(self):
        out = solve_dense(build_system(exact_centers(4, [7, 7])))
        assert isinstance(out, Family)
        assert list(out.null_direction) == [1, -1]


def assert_same_outcome(fast, dense):
    assert type(fast) is type(dense)
    if isinstance(fast, Unique):
        assert list(fast.edges.values) == list(dense.edges.values)
    elif isinstance(fast, Family):
        assert list(fast.null_direction) == list(dense.null_direction)
        diff = [a - b for a, b in zip(fast.particular.values, dense.particular.values)]
        t = diff[0] / fast.null_direction[0]
        assert all(d == t * n for d, n in zip(diff, fast.null_direction))
    else:
        assert fast.residual == dense.residual


@given(st.integers(min_value=3, max_value=16),
       st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=10),
                min_size=1, max_size=14),
       st.booleans())
@settings(max_examples=120, deadline=None)
def test_oracle_agrees_with_recurrence(n, fracs, force_consistent):
    grid = PeriodicStagger1D(n)
    m = grid.n_unknowns
    vals = [fracs[i % len(fracs)] for i in range(m)]
    if force_consistent and not grid.is_odd and m >= 2:
        vals[m - 1] = sum(Fraction((-1) ** (m - 2 - i)) * vals[i] for i in range(m - 1))
    c = CenterField1D(grid, np.array(vals, dtype=object))
    assert_same_outcome(edges_from_centers(c), solve_dense(build_system(c)))


@given(st.integers(min_value=1, max_value=12),
       st.lists(st.fractions(min_value=-5, max_value=5, max_denominator=8),
                min_size=1, max_size=12))
@settings(max_examples=80, deadline=None)
def test_echelon_bottom_rhs_identity(m, fracs):
    """The eliminated last equation carries 2*e_M (odd M) or 2*S (even M)."""
    grid = PeriodicStagger1D(m + 2)
    vals = [fracs[i % len(fracs)] for i in range(m)]
    c = CenterField1D(grid, np.array(vals, dtype=object))
    ech = row_echelon(build_system(c))
    s = alternating_residual(c)
    if m % 2 == 1:
        out = edges_from_centers(c)
        assert ech.reduced_rhs[m - 1] == 2 * out.edges.values[m - 1]
    else:
        assert ech.reduced_rhs[m - 1] == 2 * s


class TestAudit:
    """The audit, in process: the kernel against the oracle, size by size."""

    def test_goldens_up_to_the_oracle_cap(self):
        # one report, both renderings, byte for byte (the CLI writes them as they are)
        report = audit.build_audit_report(3, 66)
        goldens = Path(__file__).parent / "goldens"
        assert audit.render_text(report).encode() == (goldens / "audit_3_66.txt").read_bytes()
        assert audit.render_json(report).encode() == (goldens / "audit_3_66.json").read_bytes()

    def test_each_audited_system_is_eliminated_once(self, monkeypatch):
        sizes = []
        real = exact.row_echelon

        def counted(system):
            sizes.append(system.m)
            return real(system)

        # the audit imports row_echelon by name, and solve_dense looks it up in exact
        monkeypatch.setattr(exact, "row_echelon", counted)
        monkeypatch.setattr(audit, "row_echelon", counted)
        audit.build_audit_report(3, 10)
        # one per size, and one more per even size for its forced-consistent sample
        assert sorted(sizes) == sorted([*range(1, 9), 2, 4, 6, 8])

    @pytest.mark.parametrize("mutant", ["one edge too many", "inconsistent"])
    def test_a_wrong_kernel_fails_its_sizes(self, monkeypatch, mutant):
        real = audit.edges_from_centers

        def wrong(centers):   # its unique edges with e_1 appended, or no solution at all
            out = real(centers)
            if not isinstance(out, Unique):
                return out
            if mutant == "inconsistent":
                return Inconsistent(Fraction(0))
            values = list(out.edges.values)
            grid = PeriodicStagger1D(centers.grid.n_edges + 1)
            return Unique(EdgeField1D(grid, np.array(values + values[:1], dtype=object)))

        monkeypatch.setattr(audit, "edges_from_centers", wrong)
        report = audit.build_audit_report(3, 15)   # a disagreement, never an exception
        assert not report.overall_pass
        failed = [r for r in report.records if not r.passed]
        assert [r.n_edges for r in failed] == [3, 5, 7, 9, 11, 13, 15]
        assert all(r.solve_summary == "unique:disagree" for r in failed)
        assert not any(r.checks["solve_unique"] for r in failed)

    @pytest.mark.parametrize("mutant, check", [("family off at one edge", "solve_family"),
                                               ("residual off by one", "solve_inconsistent")])
    def test_a_wrong_even_kernel_fails_the_even_sizes(self, monkeypatch, mutant, check):
        # the even verdicts can fail too: _agree rejects a family or a residual
        real = audit.edges_from_centers

        def wrong(centers):   # its particular one off at the last edge, or its residual
            out = real(centers)
            if mutant == "family off at one edge" and isinstance(out, Family):
                out.particular.values[-1] += 1
            if mutant == "residual off by one" and isinstance(out, Inconsistent):
                return Inconsistent(out.residual + 1)
            return out

        monkeypatch.setattr(audit, "edges_from_centers", wrong)
        report = audit.build_audit_report(3, 15)   # a disagreement, never an exception
        assert not report.overall_pass
        failed = [r for r in report.records if not r.passed]
        assert [r.n_edges for r in failed] == [4, 6, 8, 10, 12, 14]
        for r in failed:
            assert [name for name, ok in r.checks.items() if not ok] == [check]

    @pytest.mark.parametrize("n_min, n_max, message", [
        (2, 5, "^n_min must be at least 3, got 2$"),
        (5, 4, r"^n_max must be >= n_min, got 5\.\.4$"),
    ])
    def test_a_range_out_of_bounds_is_refused(self, n_min, n_max, message):
        with pytest.raises(ValueError, match=message):
            audit.build_audit_report(n_min, n_max)
