"""Unit and property tests for the 1-D grid types and transforms."""

import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from staggrid import grid as kernel
from staggrid.exact import build_system, solve_dense
from staggrid import (
    CenterField1D,
    EdgeField1D,
    Family,
    FieldND,
    Inconsistent,
    InconsistentDataError,
    ParityError,
    PeriodicStagger1D,
    Unique,
    alternating_residual,
    centers_from_edges,
    complete_min_norm,
    complete_pinned,
    edges_from_centers,
    solvability_report,
    to_edges_along,
)


def exact_centers(grid, ints):
    return CenterField1D(grid, np.array([Fraction(v) for v in ints], dtype=object))


class TestPeriodicStagger1D:
    def test_counts_and_parity(self):
        g = PeriodicStagger1D(7)
        assert g.n_unknowns == 5
        assert g.n_centers == 5
        assert g.is_odd
        assert g.parity == "odd"
        assert not PeriodicStagger1D(8).is_odd

    def test_minimum_size(self):
        assert PeriodicStagger1D(3).n_unknowns == 1
        with pytest.raises(ValueError):
            PeriodicStagger1D(2)
        with pytest.raises(ValueError):
            PeriodicStagger1D(-5)

    def test_rejects_non_int(self):
        with pytest.raises(ValueError):
            PeriodicStagger1D(5.0)
        with pytest.raises(ValueError):
            PeriodicStagger1D(True)
        with pytest.raises(ValueError):
            PeriodicStagger1D(np.True_)

    def test_accepts_numpy_integers(self):
        g = PeriodicStagger1D(np.int64(5))
        assert g.n_edges == 5 and type(g.n_edges) is int
        assert g.is_odd


class TestSolvabilityReport:
    @pytest.mark.parametrize("n,det,rank,cls", [
        (3, 2, 1, "always-unique"),
        (4, 0, 1, "consistent-dependent"),
        (5, 2, 3, "always-unique"),
        (6, 0, 3, "consistent-dependent"),
        (11, 2, 9, "always-unique"),
        (12, 0, 9, "consistent-dependent"),
    ])
    def test_parity_table(self, n, det, rank, cls):
        r = solvability_report(n)
        assert (r.n_edges, r.n_unknowns) == (n, n - 2)
        assert r.determinant == det
        assert r.rank == rank
        assert r.outcome_class == cls


class TestFields:
    def test_length_validation(self):
        g = PeriodicStagger1D(5)
        with pytest.raises(ValueError):
            CenterField1D(g, [1.0, 2.0])
        with pytest.raises(ValueError):
            EdgeField1D(g, [1.0, 2.0, 3.0, 4.0])

    def test_rejects_non_finite(self):
        g = PeriodicStagger1D(5)
        with pytest.raises(ValueError):
            CenterField1D(g, [1.0, np.nan, 3.0])
        with pytest.raises(ValueError):
            EdgeField1D(g, [1.0, np.inf, 3.0])

    def test_rejects_complex(self):
        g = PeriodicStagger1D(5)
        with pytest.raises(ValueError, match="real"):
            CenterField1D(g, np.array([1 + 2j, 3, 2]))
        with pytest.raises(ValueError, match="real"):
            EdgeField1D(g, np.array([1.0, 2.0, 3.0], dtype=np.complex128))

    @pytest.mark.parametrize("values", [["1", "2", "3"], [True, False, True],
                                        np.array([b"1", b"2", b"3"])])
    def test_rejects_strings_and_bools(self, values):
        g = PeriodicStagger1D(5)
        with pytest.raises(ValueError, match="real numbers"):
            CenterField1D(g, values)
        with pytest.raises(ValueError, match="real numbers"):
            EdgeField1D(g, values)

    def test_field_types_share_one_body(self):
        g = PeriodicStagger1D(5)
        c, e = CenterField1D(g, [1, 2, 3]), EdgeField1D(g, [1, 2, 3])
        assert CenterField1D.__post_init__ is EdgeField1D.__post_init__
        # each type keeps an __init__ of its own, for wrappers that time it
        assert "__init__" in vars(CenterField1D) and "__init__" in vars(EdgeField1D)
        assert not isinstance(c, EdgeField1D) and not isinstance(e, CenterField1D)
        assert repr(c).startswith("CenterField1D(") and repr(e).startswith("EdgeField1D(")
        assert np.array_equal(c.values, e.values) and not c.exact

    def test_rejects_multidimensional(self):
        with pytest.raises(ValueError):
            CenterField1D(PeriodicStagger1D(4), np.zeros((2, 1)))

    def test_exact_mode_detection(self):
        g = PeriodicStagger1D(5)
        cf = CenterField1D(g, [1.0, 2.0, 3.0])
        assert not cf.exact
        cx = exact_centers(g, [1, 2, 3])
        assert cx.exact
        assert all(isinstance(v, Fraction) for v in cx.values)

    def test_exact_mode_coerces_ints_and_floats(self):
        g = PeriodicStagger1D(5)
        mixed = np.array([Fraction(1, 3), np.int64(2), 0.5], dtype=object)
        cf = CenterField1D(g, mixed)
        assert cf.values[1] == Fraction(2)
        assert cf.values[2] == Fraction(1, 2)

    def test_rejects_integers_float64_cannot_hold(self):
        g = PeriodicStagger1D(4)
        for cls in (CenterField1D, EdgeField1D):
            with pytest.raises(ValueError, match="no exact float64 value: 9007199254740993"):
                cls(g, np.array([2**53 + 1, 1]))
        held = CenterField1D(g, np.array([2**53, -2**63])).values
        assert [int(v) for v in held] == [2**53, -2**63]

    def test_exact_mode_rejects_bools(self):
        g = PeriodicStagger1D(5)
        must = "must be a finite real number, got"
        with pytest.raises(ValueError, match=f"^value at index 1 {must} True"):
            CenterField1D(g, np.array([Fraction(1), True, False], dtype=object))
        with pytest.raises(ValueError, match=f"^value at index 2 {must} '3'"):
            EdgeField1D(g, np.array([Fraction(1), 2, "3"], dtype=object))

    def test_object_ints_without_a_fraction_are_float_mode(self):
        # numpy makes an object array of a list holding 2**64; only a Fraction
        # selects exact mode, so these entries follow the float-mode number rule
        g = PeriodicStagger1D(5)
        cf = CenterField1D(g, [2**64, 0, 0])
        assert not cf.exact and cf.values.dtype == np.float64
        assert cf.values.tolist() == [2.0**64, 0.0, 0.0]
        with pytest.raises(ValueError, match="^value at index 0 must be a finite real number"):
            CenterField1D(g, [2**64 + 1, 0, 0])

    def test_exact_mode_holds_large_integers_exactly(self):
        cf = CenterField1D(PeriodicStagger1D(5), np.array([Fraction(1), 2**53 + 1, np.int64(-3)],
                                                          dtype=object))
        assert list(cf.values) == [1, 2**53 + 1, -3]
        assert all(type(v) is Fraction and type(v.numerator) is int for v in cf.values)

    def test_periodic_images(self):
        g = PeriodicStagger1D(6)
        e = EdgeField1D(g, [1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(e.with_periodic_images(), [1, 2, 3, 4, 1, 2])

    def test_periodic_images_single_unknown(self):
        # M=1 wraps both images onto the one stored value.
        e = EdgeField1D(PeriodicStagger1D(3), [7.0])
        assert np.array_equal(e.with_periodic_images(), [7, 7, 7])


class TestCentersFromEdges:
    def test_averaging_with_wrap(self):
        g = PeriodicStagger1D(6)
        e = EdgeField1D(g, [1.0, 3.0, 5.0, 7.0])
        c = centers_from_edges(e)
        assert np.allclose(c.values, [2.0, 4.0, 6.0, 4.0])

    def test_n5_example(self):
        e = EdgeField1D(PeriodicStagger1D(5), [2.0, 0.0, 4.0])
        assert np.array_equal(centers_from_edges(e).values, [1.0, 2.0, 3.0])

    def test_constants_are_preserved(self):
        e = EdgeField1D(PeriodicStagger1D(7), [4.5] * 5)
        assert np.array_equal(centers_from_edges(e).values, [4.5] * 5)

    def test_checkerboard_shift_is_invisible(self):
        # (2,0,2,0) = (1,1,1,1) + 1*(+1,-1,+1,-1): same centers
        g = PeriodicStagger1D(6)
        c_flat = centers_from_edges(EdgeField1D(g, [1.0, 1.0, 1.0, 1.0]))
        c_wavy = centers_from_edges(EdgeField1D(g, [2.0, 0.0, 2.0, 0.0]))
        assert np.array_equal(c_flat.values, [1.0, 1.0, 1.0, 1.0])
        assert np.array_equal(c_wavy.values, c_flat.values)

    def test_exact(self):
        g = PeriodicStagger1D(5)
        e = EdgeField1D(g, np.array([Fraction(1, 2), Fraction(3, 2), Fraction(2)],
                                    dtype=object))
        c = centers_from_edges(e)
        assert list(c.values) == [Fraction(1), Fraction(7, 4), Fraction(5, 4)]


class TestAlternatingResidual:
    def test_odd_example(self):
        c = CenterField1D(PeriodicStagger1D(5), [1.0, 2.0, 3.0])
        assert alternating_residual(c) == 2.0  # 1 - 2 + 3

    def test_even_example(self):
        c = CenterField1D(PeriodicStagger1D(6), [1.0, 2.0, 3.0, 5.0])
        assert alternating_residual(c) == 3.0  # -1 + 2 - 3 + 5

    def test_zero_input(self):
        c = CenterField1D(PeriodicStagger1D(6), [0.0, 0.0, 0.0, 0.0])
        assert alternating_residual(c) == 0.0

    def test_exact(self):
        c = exact_centers(PeriodicStagger1D(6), [1, 2, 3, 2])
        s = alternating_residual(c)
        assert isinstance(s, Fraction)
        assert s == 0

    def test_overflow_is_reported_as_such(self):
        c = CenterField1D(PeriodicStagger1D(6), [1.7e308, -1.7e308, 1.7e308, -1.7e308])
        with warnings.catch_warnings():
            warnings.simplefilter("error")   # no numpy warning on the way
            with pytest.raises(ValueError, match="alternating sum overflow float64"):
                alternating_residual(c)


class TestOddSolve:
    def test_n5_closed_form(self):
        c = CenterField1D(PeriodicStagger1D(5), [1.0, 2.0, 3.0])
        out = edges_from_centers(c)
        assert isinstance(out, Unique)
        assert np.allclose(out.edges.values, [2.0, 0.0, 4.0])

    def test_n5_exact(self):
        out = edges_from_centers(exact_centers(PeriodicStagger1D(5), [1, 2, 3]))
        assert list(out.edges.values) == [Fraction(2), Fraction(0), Fraction(4)]

    def test_n3_single_equation(self):
        out = edges_from_centers(CenterField1D(PeriodicStagger1D(3), [7.0]))
        assert isinstance(out, Unique)
        assert out.edges.values[0] == 7.0

    def test_constants_are_a_fixed_point(self):
        for n in (3, 5, 9, 101):
            grid = PeriodicStagger1D(n)
            out = edges_from_centers(CenterField1D(grid, [2.5] * grid.n_centers))
            assert isinstance(out, Unique)
            assert np.array_equal(out.edges.values, [2.5] * grid.n_unknowns)


class TestEvenSolve:
    def test_consistent_family(self):
        out = edges_from_centers(exact_centers(PeriodicStagger1D(6), [1, 2, 3, 2]))
        assert isinstance(out, Family)
        assert list(out.particular.values) == [0, 2, 2, 4]
        assert list(out.null_direction) == [1, -1, 1, -1]

    def test_family_member(self):
        out = edges_from_centers(exact_centers(PeriodicStagger1D(6), [1, 2, 3, 2]))
        assert list(out.member(Fraction(1)).values) == [1, 1, 3, 3]
        assert list(out.member(0).values) == list(out.particular.values)

    def test_inconsistent_residual(self):
        out = edges_from_centers(exact_centers(PeriodicStagger1D(6), [1, 2, 3, 5]))
        assert isinstance(out, Inconsistent)
        assert out.residual == 6  # 2 * (-1 + 2 - 3 + 5)

    def test_n4_degenerate(self):
        # M=2 is consistent exactly when c_2 = c_1
        out = edges_from_centers(CenterField1D(PeriodicStagger1D(4), [3.0, 3.0]))
        assert isinstance(out, Family)
        assert np.allclose(out.particular.values, [0.0, 6.0])
        bad = edges_from_centers(CenterField1D(PeriodicStagger1D(4), [1.0, 2.0]))
        assert isinstance(bad, Inconsistent)
        assert bad.residual == 2.0

    def test_float_tolerance_boundary(self):
        g = PeriodicStagger1D(6)
        # residual 2e-11 on O(1) data: inside the default 1e-10 gate
        c_in = CenterField1D(g, [1.0, 2.0, 3.0, 2.0 + 1e-11])
        assert isinstance(edges_from_centers(c_in), Family)
        # residual 2e-9: outside it
        c_out = CenterField1D(g, [1.0, 2.0, 3.0, 2.0 + 1e-9])
        assert isinstance(edges_from_centers(c_out), Inconsistent)
        # a tighter tolerance flips the first case
        assert isinstance(edges_from_centers(c_in, tolerance=1e-13), Inconsistent)

    def test_tolerance_scales_with_data(self):
        g = PeriodicStagger1D(6)
        # same absolute perturbation rides on 1e8-sized centers: relative test passes
        big = CenterField1D(g, [1e8, 2e8, 3e8, 2e8 + 1e-4])
        assert isinstance(edges_from_centers(big), Family)

    def test_consistency_test_is_relative_at_every_scale(self):
        g = PeriodicStagger1D(6)
        # |2 S| = 2 max|c|: exactly inconsistent, however small the data
        assert isinstance(edges_from_centers(CenterField1D(g, [1e-11, 0.0, 0.0, 0.0])),
                          Inconsistent)
        # an all-zero line has threshold 0 and S = 0: still consistent
        assert isinstance(edges_from_centers(CenterField1D(g, [0.0] * 4)), Family)

    def test_exact_mode_ignores_tolerance(self):
        g = PeriodicStagger1D(6)
        c = CenterField1D(g, np.array([Fraction(1), Fraction(2), Fraction(3),
                                       Fraction(2) + Fraction(1, 10**15)], dtype=object))
        out = edges_from_centers(c, tolerance=1.0)
        assert isinstance(out, Inconsistent)
        assert out.residual == Fraction(2, 10**15)

    def test_tolerance_validation(self):
        c = CenterField1D(PeriodicStagger1D(6), [1.0, 2.0, 3.0, 2.0])
        with pytest.raises(ValueError):
            edges_from_centers(c, tolerance=-1.0)
        with pytest.raises(ValueError):
            edges_from_centers(c, tolerance=np.nan)
        # a tolerance that is not a number at all, on both parities and the pin path
        odd = CenterField1D(PeriodicStagger1D(5), [1.0, 2.0, 3.0])
        for tolerance in (None, "tight", [1e-10], 1j):
            for centers in (odd, c):
                with pytest.raises(ValueError, match="^tolerance must be a finite"):
                    edges_from_centers(centers, tolerance=tolerance)
            with pytest.raises(ValueError, match="^tolerance must be a finite"):
                complete_pinned(c, 1, 0.0, tolerance=tolerance)


class TestLazyNullDirection:
    """Family builds its null direction when it is first read, not when solved."""

    def test_first_read_is_the_checkerboard(self):
        g = PeriodicStagger1D(8)
        family = edges_from_centers(CenterField1D(g, [1.0, 2.0, 3.0, 2.0, 1.0, 1.0]))
        n = family.null_direction
        assert n.dtype == np.float64
        assert n.tolist() == [1.0, -1.0] * 3
        exact = edges_from_centers(exact_centers(g, [1, 2, 3, 2, 1, 1])).null_direction
        assert [(type(v), v) for v in exact] == [(int, 1), (int, -1)] * 3

    def test_two_reads_return_the_same_array(self):
        family = edges_from_centers(CenterField1D(PeriodicStagger1D(6), [1.0, 2.0, 3.0, 2.0]))
        assert family.null_direction is family.null_direction

    def test_a_given_null_direction_is_kept(self):
        dense = solve_dense(build_system(exact_centers(PeriodicStagger1D(6), [1, 2, 3, 2])))
        assert isinstance(dense, Family)
        assert [(type(v), v) for v in dense.null_direction] == [(Fraction, 1), (Fraction, -1)] * 2
        given = np.array([2.0, -2.0, 2.0, -2.0])
        family = Family(dense.particular, given)
        assert family.null_direction is given

    def test_reading_leaves_the_particular_untouched(self):
        family = edges_from_centers(CenterField1D(PeriodicStagger1D(6), [1.0, 2.0, 3.0, 2.0]))
        values = family.particular.values
        before = values.tobytes()
        family.null_direction
        assert family.particular.values is values
        assert values.tobytes() == before


class TestCompletions:
    def test_min_norm_example(self):
        out = edges_from_centers(exact_centers(PeriodicStagger1D(6), [1, 2, 3, 2]))
        best = complete_min_norm(out)
        assert list(best.values) == [1, 1, 3, 3]

    def test_min_norm_orthogonal_particular_unchanged(self):
        # (1,1,3,3) . (1,-1,1,-1) = 0: already the min-norm member
        g = PeriodicStagger1D(6)
        out = edges_from_centers(centers_from_edges(EdgeField1D(
            g, np.array([Fraction(1), Fraction(1), Fraction(3), Fraction(3)],
                        dtype=object))))
        assert isinstance(out, Family)
        best = complete_min_norm(out)
        back = centers_from_edges(best)
        assert list(back.values) == list(centers_from_edges(
            EdgeField1D(g, np.array([Fraction(1), Fraction(1), Fraction(3),
                                     Fraction(3)], dtype=object))).values)
        assert float(np.array(best.values, dtype=float) @ [1, -1, 1, -1]) == 0.0

    def test_min_norm_of_pure_checkerboard_is_zero(self):
        # centers identically zero: particular is s*null, projection removes it all
        g = PeriodicStagger1D(6)
        out = edges_from_centers(exact_centers(g, [0, 0, 0, 0]))
        assert isinstance(out, Family)
        shifted = Family(out.member(Fraction(5)), out.null_direction)
        best = complete_min_norm(shifted)
        assert list(best.values) == [0, 0, 0, 0]

    def test_min_norm_rejects_unique(self):
        out = edges_from_centers(CenterField1D(PeriodicStagger1D(5), [1.0, 2.0, 3.0]))
        with pytest.raises(ParityError):
            complete_min_norm(out)

    def test_min_norm_rejects_inconsistent(self):
        out = edges_from_centers(exact_centers(PeriodicStagger1D(6), [1, 2, 3, 5]))
        with pytest.raises(InconsistentDataError) as info:
            complete_min_norm(out)
        assert info.value.residual == 6

    def test_pinned_examples(self):
        c = exact_centers(PeriodicStagger1D(6), [1, 2, 3, 2])
        assert list(complete_pinned(c, 1, 1).values) == [1, 1, 3, 3]
        assert list(complete_pinned(c, 2, 2).values) == [0, 2, 2, 4]

    def test_pinned_to_particular_value_is_identity(self):
        c = exact_centers(PeriodicStagger1D(6), [1, 2, 3, 2])
        out = edges_from_centers(c)
        pinned = complete_pinned(c, 3, out.particular.values[2])
        assert list(pinned.values) == list(out.particular.values)

    def test_pinned_rejects_odd(self):
        c = CenterField1D(PeriodicStagger1D(5), [1.0, 2.0, 3.0])
        with pytest.raises(ParityError):
            complete_pinned(c, 1, 0.0)

    def test_pinned_rejects_inconsistent(self):
        c = exact_centers(PeriodicStagger1D(6), [1, 2, 3, 5])
        with pytest.raises(InconsistentDataError):
            complete_pinned(c, 1, 0.0)

    def test_pinned_index_range(self):
        c = exact_centers(PeriodicStagger1D(6), [1, 2, 3, 2])
        with pytest.raises(ValueError):
            complete_pinned(c, 0, 0.0)
        with pytest.raises(ValueError):
            complete_pinned(c, 5, 0.0)

    def test_family_pinned_index_range(self):
        out = edges_from_centers(exact_centers(PeriodicStagger1D(6), [1, 2, 3, 2]))
        with pytest.raises(ValueError):
            out.pinned(0, 1)

    def test_pin_index_must_be_an_int(self):
        c = CenterField1D(PeriodicStagger1D(6), [1.0, 2.0, 3.0, 2.0])
        family = edges_from_centers(c)
        for bad in (2.5, "2"):
            with pytest.raises(ValueError, match="pin index"):
                family.pinned(bad, 1.0)
            with pytest.raises(ValueError, match="pin index"):
                complete_pinned(c, bad, 1.0)
        assert list(family.pinned(np.int64(2), 2.0).values) == [0.0, 2.0, 2.0, 4.0]

    @pytest.mark.parametrize("exact", [False, True])
    def test_family_parameters_must_be_finite(self, exact):
        ints = [1, 2, 3, 2]
        c = (exact_centers(PeriodicStagger1D(6), ints) if exact
             else CenterField1D(PeriodicStagger1D(6), [float(v) for v in ints]))
        family = edges_from_centers(c)
        for bad in (float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ValueError, match="^t must be a finite"):
                family.member(bad)
            with pytest.raises(ValueError, match="^pin value must be a finite"):
                family.pinned(1, bad)
            with pytest.raises(ValueError, match="^pin value must be a finite"):
                complete_pinned(c, 1, bad)

    def test_parameters_must_be_numbers_float64_holds(self):
        c = CenterField1D(PeriodicStagger1D(6), [1.0, 2.0, 3.0, 2.0])
        with pytest.raises(ValueError, match="^tolerance must be a finite real number, got '1e-3"):
            edges_from_centers(c, tolerance="1e-3")
        family = edges_from_centers(c)
        for bad in ("1.5", b"1", True, np.True_, 2**53 + 1, np.int64(2**53 + 1)):
            with pytest.raises(ValueError, match="^t must be a finite real number"):
                family.member(bad)
            with pytest.raises(ValueError, match="^pin value must be a finite real number"):
                family.pinned(1, bad)
            with pytest.raises(ValueError, match="^pin value must be a finite real number"):
                complete_pinned(c, 1, bad)
        assert family.member(2**53).values[0] == 2.0**53

    @pytest.mark.parametrize("exact", [False, True])
    def test_family_parameters_may_be_numpy_floats(self, exact):
        ints = [1, 2, 3, 2]
        c = (exact_centers(PeriodicStagger1D(6), ints) if exact
             else CenterField1D(PeriodicStagger1D(6), [float(v) for v in ints]))
        family = edges_from_centers(c)
        for t in (np.float32(1.5), np.float16(1.5), np.float64(1.5), np.longdouble(1.5)):
            assert list(family.member(t).values) == [1.5, 0.5, 3.5, 2.5]
            assert list(family.pinned(1, t).values) == [1.5, 0.5, 3.5, 2.5]
            assert list(complete_pinned(c, 1, t).values) == [1.5, 0.5, 3.5, 2.5]
        if exact:
            assert all(isinstance(v, Fraction) for v in family.member(np.float32(1.5)).values)


class TestLargeData:
    EPS = float(np.finfo(np.float64).eps)

    def offset_edges(self, m, seed):
        rng = np.random.default_rng(seed)
        return EdgeField1D(PeriodicStagger1D(m + 2), 1e6 + rng.standard_normal(m))

    def test_even_offset_data_is_a_family(self):
        # Centers averaged from edges of mean 1e6 are consistent by
        # construction; a plain signed dot product for S rejected 4 of these 5.
        for seed in range(5):
            edges = self.offset_edges(10**6, seed)
            assert isinstance(edges_from_centers(centers_from_edges(edges)), Family)

    def test_odd_offset_solve_recovers_planted_edges(self):
        m = 10**6 - 1  # N = 10^6 + 1
        for seed in range(5):
            edges = self.offset_edges(m, seed)
            out = edges_from_centers(centers_from_edges(edges))
            assert isinstance(out, Unique)
            err = np.max(np.abs(out.edges.values - edges.values))
            assert err <= 16 * m * self.EPS * np.max(np.abs(edges.values))

    def test_overflow_is_reported_as_such(self):
        with pytest.raises(ValueError, match="overflow float64"):
            edges_from_centers(CenterField1D(PeriodicStagger1D(5),
                                             [1.7e308, -1.7e308, 1.7e308]))
        # consistent even data whose particular solution overflows
        with pytest.raises(ValueError, match="overflow float64"):
            edges_from_centers(CenterField1D(PeriodicStagger1D(4), [1.7e308, 1.7e308]))

    def test_odd_solve_near_the_float64_limit(self):
        # 2 P_k = 3.4e308 would overflow, yet every edge is representable
        out = edges_from_centers(CenterField1D(PeriodicStagger1D(5), [1.7e308] * 3))
        assert isinstance(out, Unique)
        assert out.edges.values.tolist() == [1.7e308] * 3
        g = PeriodicStagger1D(7)
        big = centers_from_edges(EdgeField1D(g, [1.7e308, 1.5e308, 1.6e308, 1.2e308, 1.7e308]))
        out = edges_from_centers(big)
        exact = edges_from_centers(CenterField1D(g, np.array([Fraction(v) for v in big.values],
                                                             dtype=object)))
        assert np.allclose(out.edges.values, [float(v) for v in exact.edges.values],
                           rtol=4 * self.EPS, atol=0.0)

    def test_completions_near_the_float64_limit_raise_no_warning(self):
        # the particular (0, 1.7e308, -1.7e308, 1.7e308) is finite, but its
        # alternating sum and the pin shift overflow: ValueError, not a numpy warning
        c = CenterField1D(PeriodicStagger1D(6), [0.85e308, 0.0, 0.0, 0.85e308])
        family = edges_from_centers(c)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for complete in (lambda: family.pinned(2, -1.7e308),
                             lambda: complete_pinned(c, 2, -1.7e308)):
                with pytest.raises(ValueError, match="overflow float64"):
                    complete()
            # the min-norm edges fit, so the alternating sum is taken on a prescale
            best = complete_min_norm(family).values
        exact = complete_min_norm(edges_from_centers(exact_centers(c.grid, c.values))).values
        want = np.array([float(v) for v in exact])
        assert np.all(np.abs(best - want) <= 4 * np.spacing(np.abs(want)))

    @pytest.mark.parametrize("m", [7 * 10**5, 10**6])
    def test_averages_of_edges_are_consistent_at_every_size(self, m):
        # distinct exact edges near 1.5 whose neighbour sums are all float ties,
        # rounding down and up in turn: the centers' errors add up in S, to
        # |2 S| = m 2^-52, which outgrew the bare tolerance * max|c| from m = 7e5
        k = np.arange(m)
        e = 1.5 + np.where(k % 2 == 0, k, 2 - k) * 2.0**-52
        c = CenterField1D(PeriodicStagger1D(m + 2), (e + np.roll(e, -1)) / 2)
        checkerboard = np.where(k % 2 == 0, 1.0, -1.0)
        family = edges_from_centers(c)
        assert isinstance(family, Family)
        assert isinstance(edges_from_centers(c, tolerance=0.0), Family)
        for got in (family.particular.values, family.pinned(1, e[0]).values,
                    complete_min_norm(family).values, complete_pinned(c, 1, e[0]).values,
                    to_edges_along(FieldND(c.values), 0, m + 2, "min-norm")[0].values):
            planted = e + (got[0] - e[0]) * checkerboard
            assert np.max(np.abs(got - planted)) <= 16 * m * self.EPS * np.max(np.abs(e))

    @pytest.mark.parametrize("m", [4, 10**6])
    @pytest.mark.parametrize("tolerance", [0.0, 1e-10])
    def test_just_above_the_rounding_allowance_raises(self, m, tolerance):
        # ones but for a last pair (0, d): |2 S| = 2 d exactly and max|c| = 1
        allowance = tolerance + 2 * m * 2.0**-53
        grid = PeriodicStagger1D(m + 2)
        for factor, want in ((1 - 1e-6, Family), (1 + 1e-6, Inconsistent)):
            c = np.ones(m)
            c[-2:] = 0.0, allowance / 2 * factor
            assert isinstance(edges_from_centers(CenterField1D(grid, c), tolerance), want)
            if want is Inconsistent:
                with pytest.raises(InconsistentDataError):
                    to_edges_along(FieldND(c), 0, m + 2, "min-norm", tolerance)
                with pytest.raises(InconsistentDataError):
                    complete_pinned(CenterField1D(grid, c), 1, 0.0, tolerance)
        # exact mode has no rounding to allow for: S == 0
        if m == 4:
            assert isinstance(edges_from_centers(exact_centers(grid, c), tolerance), Inconsistent)

    def test_averaging_near_the_float64_limit(self):
        # e_i + e_{i+1} overflows, yet the mean of finite values is finite
        e = [1.7e308, 1.7e308, -1.7e308, 1e308]
        c = centers_from_edges(EdgeField1D(PeriodicStagger1D(6), e))
        exact = [float((Fraction(e[i]) + Fraction(e[(i + 1) % 4])) / 2) for i in range(4)]
        assert np.array_equal(c.values, exact)

    def test_overflowing_residual_is_inconsistent(self):
        # 2 S = -1.6e309 overflows; at 2^-3, S' = -1e308 fits, but 2^3 2 S' does not
        c = CenterField1D(PeriodicStagger1D(10), [1e308, -1e308] * 4)
        out = edges_from_centers(c)
        assert isinstance(out, Inconsistent)
        assert out.residual == -np.inf
        with pytest.raises(InconsistentDataError) as info:
            to_edges_along(FieldND(np.array([[1.0] * 8, c.values])), 1, 10, "min-norm")
        assert info.value.line_coords == (1,)
        assert info.value.residual == -np.inf

    def test_residual_is_finite_where_it_fits(self):
        # the differences overflow to -inf and +inf, so 2 S is nan; at 2^-2 it
        # is about -2e307, within a few roundings of sum |c| of the exact 2 S
        values = [1e308, -1e308, -1e308, 0.9e308]
        out = edges_from_centers(CenterField1D(PeriodicStagger1D(6), values))
        assert isinstance(out, Inconsistent)
        f = [Fraction(v) for v in values]
        exact = 2 * (f[1] - f[0] + f[3] - f[2])
        assert abs(Fraction(out.residual) - exact) <= 8 * Fraction(2.0**-53) * sum(map(abs, f))

    def test_consistent_line_whose_residual_overflows_raises_for_its_edges(self):
        # exactly S = 0, though 2 S is inf - inf; the edges then overflow
        c = CenterField1D(PeriodicStagger1D(6), [1e308, -1e308, -1e308, 1e308])
        for solve in (lambda: edges_from_centers(c), lambda: complete_pinned(c, 2, 0.0),
                      lambda: to_edges_along(FieldND(c.values), 0, 6, "min-norm")):
            with pytest.raises(ValueError, match="^edge values overflow float64"):
                solve()

    def test_only_lines_whose_residual_overflows_are_rescaled(self):
        # at 2^-3 the subnormal line would flush to S = 0 and pass; alone it fails first
        tiny = [2.0**-1074] + [0.0] * 7
        with pytest.raises(InconsistentDataError) as info:
            to_edges_along(FieldND(np.array([tiny, [1e308, -1e308] * 4])), 1, 10, "min-norm")
        assert info.value.line_coords == (0,)
        assert info.value.residual == -(2.0**-1073)


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestOverflowFromTheFlag:
    """Where every input is finite, overflow is read from the FP flag: the
    same ValueError as a scan of the output, and no numpy warning."""

    def test_pin_shift_that_overflows(self):
        # the particular is (0, 1.7e308, -1.7e308, 1.7e308): v - p_2 = -inf
        family = edges_from_centers(CenterField1D(PeriodicStagger1D(6),
                                                  [0.85e308, 0.0, 0.0, 0.85e308]))
        with pytest.raises(ValueError, match="^edge values overflow float64: the input is too"):
            family.pinned(2, -1.7e308)

    def test_member_that_overflows(self):
        family = edges_from_centers(CenterField1D(PeriodicStagger1D(6),
                                                  [0.85e308, 0.0, 0.0, 0.85e308]))
        want = family.particular.values + 1e308 * np.array([1.0, -1.0, 1.0, -1.0])
        assert family.member(1e308).values.tobytes() == want.tobytes()
        with pytest.raises(ValueError, match="^edge values overflow float64: the input is too"):
            family.member(-1e308)   # p_2 - t = 2.7e308

    @pytest.mark.parametrize("e", [
        np.array([1.7e308, 1.7e308, -1.7e308, 1e308, 3.0]),          # a contiguous line
        np.moveaxis(np.array([[1.7e308, 1.0], [1.7e308, 2.0], [-1.0, 3.0]]), 0, -1),   # axis 0
        np.array([1.7e308, -1.0, 1.0, 1.7e308]),                     # only x_M + x_1 overflows
    ])
    def test_averaging_where_sums_overflow_takes_the_halves(self, e):
        want = e / 2 + np.roll(e / 2, -1, axis=-1)
        assert np.all(np.isfinite(want))
        assert kernel.average_lines(e).tobytes() == want.tobytes()


@pytest.mark.parametrize("n", [3, 4, 5, 6, 9])
def test_exact_outputs_hold_only_fractions(n):
    grid = PeriodicStagger1D(n)
    m = grid.n_unknowns
    edges = EdgeField1D(grid, np.array([Fraction(k * k, 3) for k in range(m)], dtype=object))
    centers = centers_from_edges(edges)
    out = edges_from_centers(centers)
    if grid.is_odd:
        results = [centers, out.edges]
    else:
        results = [centers, out.particular, out.member(Fraction(1, 2)),
                   complete_min_norm(out), out.pinned(1, 2)]
    for field in results:
        assert all(type(v) is Fraction for v in field.values)


# -- properties --------------------------------------------------------------

def random_centers(grid, seed):
    rng = np.random.default_rng(seed)
    return CenterField1D(grid, rng.normal(scale=3.0, size=grid.n_centers))


@given(st.integers(min_value=1, max_value=500), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_round_trip_odd(half, seed):
    """Odd N: solving then averaging reproduces the centers."""
    grid = PeriodicStagger1D(2 * half + 1)
    c = random_centers(grid, seed)
    out = edges_from_centers(c)
    assert isinstance(out, Unique)
    back = centers_from_edges(out.edges)
    scale = max(1.0, float(np.max(np.abs(c.values))))
    assert np.max(np.abs(back.values - c.values)) <= 1e-12 * scale


@given(st.integers(min_value=2, max_value=40), st.integers(0, 2**31 - 1))
@settings(max_examples=60, deadline=None)
def test_even_forced_consistent_family_reproduces(half, seed):
    """Even N with the residual forced to zero: every family member averages
    back to the input centers."""
    grid = PeriodicStagger1D(2 * half)
    m = grid.n_unknowns
    rng = np.random.default_rng(seed)
    vals = rng.normal(scale=2.0, size=m)
    signs = np.where((m - 2 - np.arange(m - 1)) % 2 == 0, 1.0, -1.0)
    vals[m - 1] = signs @ vals[:m - 1]
    c = CenterField1D(grid, vals)
    out = edges_from_centers(c)
    assert isinstance(out, Family)
    scale = max(1.0, float(np.max(np.abs(vals))))
    for t in (0.0, 1.0, -2.5):
        back = centers_from_edges(out.member(t))
        assert np.max(np.abs(back.values - c.values)) <= 1e-11 * scale


@given(st.integers(min_value=3, max_value=40),
       st.lists(st.fractions(min_value=-10, max_value=10, max_denominator=12),
                min_size=1, max_size=38))
@settings(max_examples=100, deadline=None)
def test_outcome_dichotomy_exact(n, fracs):
    """Exact mode: odd N is always Unique; even N splits on the residual."""
    grid = PeriodicStagger1D(n)
    m = grid.n_unknowns
    vals = [fracs[i % len(fracs)] for i in range(m)]
    c = CenterField1D(grid, np.array(vals, dtype=object))
    s = alternating_residual(c)
    out = edges_from_centers(c)
    if grid.is_odd:
        assert isinstance(out, Unique)
        assert out.edges.values[0] == s
        back = centers_from_edges(out.edges)
        assert list(back.values) == vals
    elif s == 0:
        assert isinstance(out, Family)
        back = centers_from_edges(out.particular)
        assert list(back.values) == vals
        # the null direction averages to zero everywhere
        null_c = centers_from_edges(EdgeField1D(grid, out.null_direction))
        assert all(v == 0 for v in null_c.values)
    else:
        assert isinstance(out, Inconsistent)
        assert out.residual == 2 * s


@given(st.integers(min_value=1, max_value=100), st.integers(0, 2**31 - 1),
       st.integers(min_value=-8, max_value=8))
@settings(max_examples=50, deadline=None)
def test_scale_equivariance_powers_of_two(half, seed, p):
    """Scaling centers by 2^p scales the unique solution by 2^p exactly."""
    grid = PeriodicStagger1D(2 * half + 1)
    c = random_centers(grid, seed)
    scaled = CenterField1D(grid, c.values * 2.0 ** p)
    e1 = edges_from_centers(c).edges.values
    e2 = edges_from_centers(scaled).edges.values
    assert np.array_equal(e2, e1 * 2.0 ** p)


@given(st.integers(min_value=2, max_value=20),
       st.fractions(min_value=-6, max_value=6, max_denominator=10),
       st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=10),
                min_size=1, max_size=10))
@settings(max_examples=60, deadline=None)
def test_scale_equivariance_family_exact(half, alpha, fracs):
    """Scaling consistent even-N centers scales the particular and leaves the
    null direction alone."""
    grid = PeriodicStagger1D(2 * half)
    m = grid.n_unknowns
    vals = [fracs[i % len(fracs)] for i in range(m)]
    vals[m - 1] = sum(Fraction((-1) ** (m - 2 - i)) * vals[i] for i in range(m - 1))
    c = CenterField1D(grid, np.array(vals, dtype=object))
    scaled = CenterField1D(grid, np.array([alpha * v for v in vals], dtype=object))
    out = edges_from_centers(c)
    out_scaled = edges_from_centers(scaled)
    assert isinstance(out, Family) and isinstance(out_scaled, Family)
    assert list(out_scaled.particular.values) == [alpha * v for v in out.particular.values]
    assert list(out_scaled.null_direction) == list(out.null_direction)


@given(st.integers(min_value=2, max_value=30), st.integers(0, 2**31 - 1))
@settings(max_examples=50, deadline=None)
def test_min_norm_is_orthogonal_projection(half, seed):
    grid = PeriodicStagger1D(2 * half)
    m = grid.n_unknowns
    rng = np.random.default_rng(seed)
    vals = rng.normal(size=m)
    signs = np.where((m - 2 - np.arange(m - 1)) % 2 == 0, 1.0, -1.0)
    vals[m - 1] = signs @ vals[:m - 1]
    out = edges_from_centers(CenterField1D(grid, vals))
    assert isinstance(out, Family)
    best = complete_min_norm(out)
    null = out.null_direction
    ip = abs(float(best.values @ null))
    assert ip <= 1e-12 * max(1.0, float(np.linalg.norm(best.values))) * np.sqrt(m)
    for t in rng.uniform(-5.0, 5.0, size=20):
        other = out.member(t)
        assert np.linalg.norm(other.values) >= np.linalg.norm(best.values) * (1 - 1e-12)


@st.composite
def scalable_lines(draw):
    """Even-M centers with every nonzero |c| in [2^-41, 2^40]: random, or the
    averages of random edges (consistent up to rounding)."""
    m = 2 * draw(st.integers(1, 10))
    entries = st.builds(lambda k, e: k * 2.0**e, st.integers(-2**12, 2**12), st.integers(-40, 28))
    values = np.array(draw(st.lists(entries, min_size=m, max_size=m)))
    if draw(st.booleans()):
        values = (values + np.roll(values, -1)) / 2
    return values


@given(scalable_lines(), st.integers(-900, 900))
@settings(max_examples=200, deadline=None)
def test_classification_is_scale_invariant(c, k):
    """c and 2^k c classify alike: every nonzero |c| 2^k stays in [2^-960, 2^960],
    so the scaling is exact, and the consistency test has no absolute floor."""
    grid = PeriodicStagger1D(c.size + 2)
    plain = edges_from_centers(CenterField1D(grid, c))
    scaled = edges_from_centers(CenterField1D(grid, c * 2.0**k))
    assert type(plain) is type(scaled)
    if isinstance(plain, Inconsistent):
        assert scaled.residual == plain.residual * 2.0**k


NUMBER_PROBES = [True, False, np.True_, np.False_, 0, 1, -7, 2**53, -2**53, 2**53 + 1,
                 -(2**53 + 1), 2**63 - 1, -2**63, np.int64(2**53 + 1), np.int32(5),
                 np.uint64(2**64 - 1), 1.5, float("nan"), float("inf"), float("-inf"), -0.0,
                 np.float64(3.25), np.float32(1.1), np.float16(2.5), np.longdouble("1e400"),
                 "1.5", "7", b"1"]


@pytest.mark.parametrize("x", NUMBER_PROBES, ids=repr)
def test_one_number_rule_for_scalars_and_arrays(x):
    """A float-mode family parameter is taken exactly when a field entry is."""
    family = edges_from_centers(CenterField1D(PeriodicStagger1D(4), [0.0, 0.0]))
    results = []
    for build in (lambda: family.member(x).values[0], lambda: FieldND(np.array([x])).values[0]):
        try:
            results.append(float(build()))
        except ValueError:
            results.append(None)
    assert results[0] == results[1]
    if results[0] is not None:   # compared exactly: an int as an int, not as a float
        assert int(results[0]) == x if isinstance(x, (int, np.integer)) else results[0] == x


# -- the kernel against its checkerboard formulas ------------------------------
# The kernel applies every sign by negating alternate slots in place.  These
# are the formulas it replaced, with explicit multiplies by the checkerboard;
# negation and doubling are exact, so the two must agree bit for bit.


def checkerboard_signs(m):
    signs = np.ones(m, dtype=np.int64)
    signs[1::2] = -1
    return signs


def reference_partial(c):
    partial = np.zeros_like(c)
    np.multiply(checkerboard_signs(c.shape[-1])[:-1], c[..., :-1], out=partial[..., 1:])
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(partial[..., 1:], axis=-1, out=partial[..., 1:])
    return partial


def reference_alternating_sums(c):
    if c.shape[-1] % 2 == 0:
        return np.sum(np.subtract(c[..., 1::2], c[..., 0::2], order="C"), axis=-1)
    return c[..., 0] + np.sum(np.subtract(c[..., 2::2], c[..., 1::2], order="C"), axis=-1)


def reference_solve(c, tolerance):
    partial = reference_partial(c)
    with np.errstate(over="ignore", invalid="ignore"):
        s = reference_alternating_sums(c)
        if c.shape[-1] % 2 == 1:
            return partial, s, None, None
        residual = 2 * s
        if c.dtype == object:
            return partial, s, residual, residual == 0
        # the tolerance on top of one rounding, 2^-53 relative, of each of the M centers
        allowance = tolerance + 2 * c.shape[-1] * 2.0**-53
        consistent = np.abs(residual) <= allowance * np.max(np.abs(c), axis=-1)
        if np.all(np.isfinite(residual)):
            return partial, s, residual, consistent
        # a line whose 2 S overflows is decided on its own at 2^-ceil(log2 M),
        # where S fits, and reports 2 S at that scale scaled back: maybe +-inf
        residual, consistent = np.array(residual), np.array(consistent)
        scale = 2.0 ** math.ceil(math.log2(c.shape[-1]))
        for i in np.ndindex(residual.shape):
            if not np.isfinite(residual[i]):
                s_scaled = reference_alternating_sums(c[i] / scale)
                residual[i] = s_scaled * 2 * scale
                consistent[i] = abs(s_scaled) <= allowance * (np.max(np.abs(c[i])) / (2 * scale))
        return partial, s, residual, consistent


def reference_telescope(first, partial):
    with np.errstate(over="ignore", invalid="ignore"):
        np.subtract(np.asarray(first)[..., None] / 2, partial, out=partial)
        partial *= 2 * checkerboard_signs(partial.shape[-1])
    return kernel.check_finite(partial, "edge values")


def reference_shift(particular, t):
    with np.errstate(over="ignore", invalid="ignore"):
        e = t * checkerboard_signs(particular.shape[-1])
        e += particular
    return kernel.check_finite(e, "edge values")


def reference_average(e):
    c = np.roll(e, -1, axis=-1)
    with np.errstate(over="ignore"):
        c += e
    c /= 2
    if c.dtype.kind == "f" and not np.all(np.isfinite(c)):
        c = np.roll(e, -1, axis=-1) / 2 + e / 2
    return c


def bits(x):
    """Comparable bits of a result: the raw bytes of a numeric array, the type
    and value of every entry of an object array."""
    if x is None:
        return None
    x = np.asarray(x)
    if x.dtype == object:
        return x.shape, [(type(v), v) for v in x.flat]
    return x.dtype, x.shape, x.tobytes()


def outcome(call):
    """The bits of every output of ``call``, or the type and message it raised."""
    try:
        result = call()
    except ValueError as exc:
        return type(exc), str(exc)
    return [bits(x) for x in (result if isinstance(result, tuple) else (result,))]


@st.composite
def kernel_lines(draw):
    """The lines of a 1-D to 3-D array along a drawn axis, as the kernel sees
    them through ``np.moveaxis``: floats up to a drawn bound (from the
    subnormals, where halving rounds, to the float64 limit, where sums
    overflow), or averages of such floats, or the same as Fractions."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6))
    axis = draw(st.integers(0, len(shape) - 1))
    bound = draw(st.sampled_from([2.0**-1022, 1.0, 1e10, 1e300, 8.9e307,
                                  float(np.finfo(np.float64).max)]))
    near_bound = st.floats(-1.0, 1.0).map(lambda x: x * bound)   # where sums overflow
    values = draw(hnp.arrays(np.float64, shape,
                             elements=st.one_of(st.floats(-bound, bound), near_bound)))
    if draw(st.booleans()):   # consistent even lines, up to rounding
        averaged = reference_average(np.moveaxis(values, axis, -1))
        values = np.ascontiguousarray(np.moveaxis(averaged, -1, axis))
    if draw(st.booleans()):
        values = np.array([Fraction(v) for v in values.flat], dtype=object).reshape(shape)
    return np.moveaxis(values, axis, -1), bound


@given(kernel_lines(), st.sampled_from([0.0, 1e-10, 1.0]), st.data())
@settings(max_examples=300, deadline=None)
def test_kernel_bits_match_the_checkerboard_formulas(lines, tolerance, data):
    """P and S from solve_lines, _telescope, _shift and average_lines give bit
    for bit what the checkerboard multiplies gave, and raise the same errors."""
    c, bound = lines
    exact = c.dtype == object
    assert outcome(lambda: kernel.solve_lines(c, tolerance)) == outcome(
        lambda: reference_solve(c, tolerance))
    assert outcome(lambda: kernel.average_lines(c)) == outcome(lambda: reference_average(c))
    with np.errstate(over="ignore", invalid="ignore"):
        s = reference_alternating_sums(c)
    for first in (s, c[..., -1], c[..., 0] * 0):
        assert outcome(lambda: kernel._telescope(first, reference_partial(c))) == outcome(
            lambda: reference_telescope(first, reference_partial(c)))
    line = c[(0,) * (c.ndim - 1)]
    t = data.draw(st.floats(-1.0, 1.0)) * bound
    t = Fraction(t) if exact else t
    edges = EdgeField1D(PeriodicStagger1D(line.size + 2), line)
    assert outcome(lambda: kernel._shift(edges, t).values) == outcome(
        lambda: reference_shift(line, t))


# -- numpy's pairwise order -------------------------------------------------


@pytest.mark.parametrize("n", range(1, 129))
def test_row_sums_follow_numpys_pairwise_order(n):
    """_pairwise_rows, from +0.0 as np.sum's accumulator starts, gives the bits
    of np.sum(..., axis=-1) on batches of lines: random, offset by 1e6, of
    mixed signs over 40 decades, subnormal, and all -0.0.  The row path's S
    and min-norm mean rest on this: if a numpy release changes the order of
    its pairwise_sum, this test names the cause."""
    rng = np.random.default_rng(n)
    batches = rng.standard_normal((5, 40, n))
    batches[1] += 1e6
    batches[2] *= 10.0 ** rng.integers(-20, 20, (40, n))
    batches[3] *= 2.0**-1060
    batches[4] = -0.0
    for x in batches:
        rows = 0.0 + kernel._pairwise_rows(lambda j: x[:, j].copy(), n)
        assert rows.tobytes() == np.sum(x, axis=-1).tobytes()


# -- memory ------------------------------------------------------------------


class TestMemoryBudget:
    """Peak bytes a call allocates (numpy reports its buffers to tracemalloc),
    per byte of one float64 line of about 10^5 values: the output, the S
    differences and one bool mask, but no sign array and no |c| or roll copy."""

    M = 10**5 + 1   # odd; even lines get one value more

    @classmethod
    def setup_class(cls):
        rng = np.random.default_rng(0)
        m = cls.M
        cls.odd = CenterField1D(PeriodicStagger1D(m + 2), rng.standard_normal(m))
        cls.edges = EdgeField1D(PeriodicStagger1D(m + 3), rng.standard_normal(m + 1))
        cls.even = centers_from_edges(cls.edges)
        cls.family = edges_from_centers(cls.even)
        assert isinstance(cls.family, Family)
        lines = 4096   # P summed row-wise
        assert lines >= kernel._ROWWISE_MIN_LINES
        cls.odd_lines = FieldND(rng.standard_normal((lines, 7)))
        cls.even_lines = FieldND(kernel.average_lines(rng.standard_normal((lines, 8))))

    @staticmethod
    def peak_per_line_byte(call, m):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = call()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert result is not None
        return peak / (8 * m)

    @pytest.mark.parametrize("name, limit", [
        ("odd edges_from_centers", 1.6),
        ("even edges_from_centers", 2.1),
        ("complete_min_norm", 1.2),
        ("Family.pinned", 1.2),
        ("centers_from_edges", 1.2),
    ])
    def test_peak_traced_bytes(self, name, limit):
        assert self.peak_of(name) <= limit

    @pytest.mark.parametrize("name, limit", [
        ("even edges_from_centers", 1.6),
        ("complete_min_norm", 1.05),
        ("Family.pinned", 1.05),
        ("centers_from_edges", 1.05),
    ])
    def test_calls_build_only_what_they_return(self, name, limit):
        """No checkerboard beside the even solve's P and S differences (1.50
        measured, 2.00 with it), and no copy of the particular or isfinite mask
        beside a member or the centers (1.00 measured, 1.13 with the mask)."""
        assert self.peak_of(name) <= limit

    def peak_of(self, name):
        calls = {
            "odd edges_from_centers": (lambda: edges_from_centers(self.odd), self.M),
            "even edges_from_centers": (lambda: edges_from_centers(self.even), self.M + 1),
            "complete_min_norm": (lambda: complete_min_norm(self.family), self.M + 1),
            "Family.pinned": (lambda: self.family.pinned(3, 0.5), self.M + 1),
            "centers_from_edges": (lambda: centers_from_edges(self.edges), self.M + 1),
        }
        return self.peak_per_line_byte(*calls[name])

    @pytest.mark.parametrize("strategy, limit", [
        ("unique", 2.05),
        ("pin", 1.8),
        ("min-norm", 2.6),   # the budget while _line_mean summed a C-order copy of P
    ])
    def test_peak_traced_bytes_of_many_lines(self, strategy, limit):
        """The same per byte of a field of 4096 short lines through to_edges_along,
        at the budgets of np.sum on C-order temporaries, when odd M also took a
        fixed 128 KiB iterator buffer to subtract the strided slices for S;
        the row sums are held to their own, lower peaks below."""
        assert self.peak_of_many_lines(strategy) <= limit

    def test_min_norm_of_many_lines_copies_no_partial_sums(self):
        # the min-norm mean sums the pair sums of P where it lies: a C-order
        # copy of P would add about 0.5 to the 1.65 it takes
        assert self.peak_of_many_lines("min-norm") <= 2.3

    @pytest.mark.parametrize("strategy, limit", [("unique", 1.6), ("pin", 1.7), ("min-norm", 1.7)])
    def test_row_sums_of_many_lines_hold_a_few_rows(self, strategy, limit):
        """S and the min-norm mean are row adds holding at most nine rows of one
        value per line: no C-order differences or pair sums (0.5 for M = 8)
        and no iterator buffer (0.56 for M = 7).  Measured: 1.586, 1.653, 1.651."""
        assert self.peak_of_many_lines(strategy) <= limit

    def peak_of_many_lines(self, strategy):
        field = self.odd_lines if strategy == "unique" else self.even_lines
        pin = (3, 0.5) if strategy == "pin" else (None, None)
        m = field.shape[1]
        return self.peak_per_line_byte(
            lambda: to_edges_along(field, 1, m + 2, strategy, 1e-10, *pin),
            field.values.size)
