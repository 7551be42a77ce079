"""Unit and property tests for the 1-D grid types and transforms."""

import hashlib
import itertools
import math
import numbers
import tracemalloc
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from staggrid import grid as kernel
from staggrid.audit import build_audit_report
from staggrid.exact import DenseSystem, build_system, solve_dense
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
    to_centers_along,
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

    @pytest.mark.parametrize("int_type", [np.int8, np.int64])
    def test_n_edges_is_a_python_int(self, int_type):
        report = solvability_report(int_type(6))
        assert type(report.n_edges) is int and report.n_edges == 6


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

    @pytest.mark.parametrize("bad,shown", [(np.nan, "nan"), (np.inf, "inf"), (-np.inf, "-inf")])
    def test_non_finite_values_are_named_plainly(self, bad, shown):
        message = f"^non-finite value at flat index 1: {shown}$"
        with pytest.raises(ValueError, match=message):
            CenterField1D(PeriodicStagger1D(5), np.array([1.0, bad, 3.0]))
        with pytest.raises(ValueError, match=message):
            FieldND(np.array([[1.0, bad], [3.0, 4.0]]))

    @pytest.mark.parametrize("call, shown", [
        (lambda c: complete_pinned(c, 1, np.float64("nan")), "pin value ... got nan"),
        (lambda c: edges_from_centers(c).member(np.float32("inf")), "t ... got inf"),
        (lambda c: edges_from_centers(c, np.float64("-inf")), "tolerance ... got -inf"),
        (lambda c: edges_from_centers(c).member(np.longdouble("1e400")),
         "t has no exact float64 value: 1e+400"),
    ])
    def test_numpy_scalars_are_named_plainly(self, call, shown):
        c = CenterField1D(PeriodicStagger1D(4), [0.0, 0.0])
        with pytest.raises(ValueError) as info:
            call(c)
        assert str(info.value) == shown.replace("...", "must be a finite real number,")

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52, reason="long double is float64")
    def test_long_doubles_are_named_plainly(self):
        values = np.array([0.5, np.longdouble("0.1")])
        message = "^value at flat index 1 has no exact float64 value: 0.1$"
        with pytest.raises(ValueError, match=message):
            CenterField1D(PeriodicStagger1D(4), values)
        with pytest.raises(ValueError, match=message):
            FieldND(values)

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52, reason="long double is float64")
    def test_long_doubles_beyond_float64_are_not_called_non_finite(self):
        values = np.array([0.5, np.longdouble(1e300) * np.longdouble(1e100)])
        message = "value at flat index 1 has no exact float64 value: 1.0000000000000000684e+400"
        with pytest.raises(ValueError) as info:
            FieldND(values)
        assert str(info.value) == message
        with pytest.raises(ValueError, match="^non-finite value at flat index 1: inf$"):
            FieldND(np.array([0.5, np.longdouble("inf")]))

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

    @pytest.mark.parametrize("values,k", [([True, 2.0, 3.0], 0), ((1, 2, np.bool_(False)), 2),
                                          ([1.5, np.float64(2.0), False], 2),
                                          ([np.array(False), 2.0, 3.0], 0),
                                          ([1.0, np.array(2.0), np.array(True)], 2)])
    def test_rejects_a_bool_among_numbers(self, values, k):
        # numpy would hold it as 0 or 1, also in a 0-d array; the list is checked
        # before it is converted
        g = PeriodicStagger1D(5)
        message = f"^value at flat index {k} must be a finite real number, got {values[k]}$"
        for cls in (CenterField1D, EdgeField1D):
            with pytest.raises(ValueError, match=message):
                cls(g, values)

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
        with pytest.raises(ValueError,
                           match="^value at index 0 has no exact float64 value: 18446744073709551617$"):
            CenterField1D(g, [2**64 + 1, 0, 0])

    def test_exact_mode_holds_large_integers_exactly(self):
        cf = CenterField1D(PeriodicStagger1D(5), np.array([Fraction(1), 2**53 + 1, np.int64(-3)],
                                                          dtype=object))
        assert list(cf.values) == [1, 2**53 + 1, -3]
        assert all(type(v) is Fraction and type(v.numerator) is int for v in cf.values)

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= 52, reason="long double is float64")
    def test_long_doubles_are_held_exactly_or_refused(self):
        x = np.longdouble(1) + np.finfo(np.longdouble).eps   # between two float64 values
        with pytest.raises(ValueError, match="flat index 3 has no exact float64 value"):
            FieldND(np.array([[0.5, 1.5], [2.0, x]]))
        with pytest.raises(ValueError, match="flat index 1 has no exact float64 value"):
            CenterField1D(PeriodicStagger1D(4), np.array([0.5, x]))
        with pytest.raises(ValueError, match="value at index 1 has no exact float64 value"):
            CenterField1D(PeriodicStagger1D(4), np.array([0.5, x], dtype=object))
        family = edges_from_centers(CenterField1D(PeriodicStagger1D(4), [0.0, 0.0]))
        with pytest.raises(ValueError, match="t has no exact float64 value"):
            family.member(x)
        # exact mode takes the long double's own ratio, not its float64 rounding
        exact = Fraction(*x.as_integer_ratio())
        assert exact != 1 and kernel._finite_number(x, True, "x") == exact
        cf = CenterField1D(PeriodicStagger1D(4), np.array([Fraction(1), x], dtype=object))
        assert cf.values[1] == exact
        # values float64 holds pass in either mode
        held = np.array([0.5, -2.0**-1074, 2.0**1023], dtype=np.longdouble)
        assert FieldND(held).values.tolist() == [0.5, -2.0**-1074, 2.0**1023]
        assert kernel._finite_number(held[1], False, "x") == -2.0**-1074

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
            with pytest.raises(ValueError, match="alternating sum overflows float64"):
                alternating_residual(c)

    def test_differences_that_overflow_where_the_sum_fits(self):
        # c_2 - c_1 and c_4 - c_3 overflow to +inf and -inf, yet S = 0 exactly
        big = float(np.finfo(np.float64).max)
        c = CenterField1D(PeriodicStagger1D(6), [-big, big, big, -big])
        assert alternating_residual(c) == 0.0


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

    @pytest.mark.parametrize("tolerance, message", [
        (-1.0, "tolerance must be >= 0, got -1.0"),
        (np.nan, "tolerance must be a finite real number, got nan"),
        (-np.inf, "tolerance must be a finite real number, got -inf"),
        (True, "tolerance must be a finite real number, got True"),
        ("1e-3", "tolerance must be a finite real number, got '1e-3'"),
    ])
    @pytest.mark.parametrize("c", [np.ones(3), np.ones(4), np.array([Fraction(1)] * 4)])
    def test_solve_lines_checks_its_tolerance(self, tolerance, message, c):
        with pytest.raises(ValueError) as info:
            kernel.solve_lines(c, tolerance)
        assert str(info.value) == message

    def test_a_fraction_tolerance_is_shown_as_the_float_it_is(self):
        # format(Fraction(1, 4), "g") raises TypeError before Python 3.12
        with pytest.raises(InconsistentDataError) as info:
            kernel.complete_lines(np.array([1.0, 2.0]), "min-norm", Fraction(1, 4))
        assert str(info.value) == "line (0,) admits no edge solution (residual 2.0, tolerance 0.25)"

    @pytest.mark.parametrize("values, kind", [
        ([1.0, 2.0, 3.0, 5.0], float),
        ([Fraction(1), Fraction(2), Fraction(3), Fraction(5, 3)], Fraction),
        ([1e308, -1e308] * 4, float),    # 2 S = -inf
        ([-1e308, 1e308] * 4, float),    # 2 S = +inf
    ])
    def test_the_outcome_holds_the_residual_the_gate_raises(self, values, kind):
        centers = CenterField1D(PeriodicStagger1D(len(values) + 2), values)
        with pytest.raises(InconsistentDataError) as info:
            kernel.complete_lines(centers.values, "min-norm")
        raised, returned = info.value.residual, edges_from_centers(centers).residual
        assert type(raised) is type(returned) is kind
        assert repr(raised) == repr(returned)


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

    def test_the_particular_is_built_once_on_first_read(self, monkeypatch):
        family = edges_from_centers(CenterField1D(PeriodicStagger1D(6), [1.0, 2.0, 3.0, 2.0]))
        assert "particular" not in vars(family)   # solved, but no edge built
        calls = []
        telescope = kernel._telescope
        monkeypatch.setattr(kernel, "_telescope", lambda *a: calls.append(a) or telescope(*a))
        first = family.particular
        assert family.particular is first and len(calls) == 1
        assert first.values.tolist() == [0.0, 2.0, 2.0, 4.0]
        # built into its own buffer: the partial sums stay for the next member
        assert family.member(1.0).values.tolist() == [1.0, 1.0, 3.0, 3.0]
        assert not np.shares_memory(first.values, family._partial)

    def test_a_given_particular_is_kept(self):
        # the dense oracle's family keeps the particular it solved for (e_M = 0)
        dense = solve_dense(build_system(exact_centers(PeriodicStagger1D(6), [1, 2, 3, 2])))
        particular = vars(dense)["particular"]
        assert dense.particular is particular
        assert list(particular.values) == [4, -2, 6, 0]
        want = [p + 3 * n for p, n in zip(particular.values, dense.null_direction)]
        assert list(dense.member(3).values) == want
        # only the kernel and the oracle make families
        with pytest.raises(TypeError):
            Family(particular)

    def test_a_given_null_direction_is_kept(self):
        dense = solve_dense(build_system(exact_centers(PeriodicStagger1D(6), [1, 2, 3, 2])))
        assert isinstance(dense, Family)
        assert dense.null_direction is vars(dense)["null_direction"]
        assert [(type(v), v) for v in dense.null_direction] == [(Fraction, 1), (Fraction, -1)] * 2

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
        # the oracle's particular (e_M = 0) is the kernel's (e_1 = 0) plus a multiple
        # of the checkerboard, and the projection removes all of it
        g = PeriodicStagger1D(6)
        for values, want in (([0, 0, 0, 0], [0, 0, 0, 0]), ([1, 2, 3, 2], [1, 1, 3, 3])):
            out = edges_from_centers(exact_centers(g, values))
            dense = solve_dense(build_system(exact_centers(g, values)))
            shift = dense.particular.values - out.particular.values
            assert list(shift) == [shift[0] * v for v in out.null_direction]
            assert list(complete_min_norm(dense).values) == want
            assert list(complete_min_norm(out).values) == want

    def test_min_norm_rejects_unique(self):
        out = edges_from_centers(CenterField1D(PeriodicStagger1D(5), [1.0, 2.0, 3.0]))
        with pytest.raises(ParityError):
            complete_min_norm(out)

    def test_min_norm_rejects_inconsistent(self):
        out = edges_from_centers(exact_centers(PeriodicStagger1D(6), [1, 2, 3, 5]))
        with pytest.raises(InconsistentDataError) as info:
            complete_min_norm(out)
        assert info.value.residual == 6
        # the residual shows as str shows it, and the line is (0,), as complete_pinned says
        for values, shown in (([Fraction(v) for v in (1, 2, 3, 5)], "6"), ([1.0, 2.0, 3.0, 5.0], "6.0")):
            out = edges_from_centers(CenterField1D(PeriodicStagger1D(6), values))
            with pytest.raises(InconsistentDataError) as info:
                complete_min_norm(out)
            assert str(info.value) == ("minimum-norm completion impossible: no solution exists "
                                       f"(residual {shown})")
            assert info.value.line_coords == (0,) and str(info.value.residual) == shown
            assert type(info.value.residual) is type(values[0])

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
            # a number float64 does not hold is named as such; anything else is no number
            fault = ("has no exact float64 value: 9007199254740993" if type(bad) in (int, np.int64)
                     else "must be a finite real number")
            with pytest.raises(ValueError, match=f"^t {fault}"):
                family.member(bad)
            with pytest.raises(ValueError, match=f"^pin value {fault}"):
                family.pinned(1, bad)
            with pytest.raises(ValueError, match=f"^pin value {fault}"):
                complete_pinned(c, 1, bad)
        assert family.member(2**53).values[0] == 2.0**53

    def test_fractions_are_taken_only_where_float64_holds_them(self):
        c = CenterField1D(PeriodicStagger1D(4), [0.0, 0.0])
        family = edges_from_centers(c)
        for name, complete in (("t", family.member), ("pin value", lambda x: family.pinned(1, x)),
                               ("pin value", lambda x: complete_pinned(c, 1, x))):
            with pytest.raises(ValueError, match=rf"^{name} has no exact float64 value: "
                                                 r"Fraction\(1, 3\)$"):
                complete(Fraction(1, 3))
            assert complete(Fraction(1, 2)).values.tolist() == [0.5, -0.5]

    def test_a_pin_whose_half_rounds_is_kept(self):
        # 5e-324 / 2 rounds to 0: a completion halving it gave (0.0, -0.0)
        c = CenterField1D(PeriodicStagger1D(4), [0.0, 0.0])
        family = edges_from_centers(c)
        for complete in (lambda: complete_pinned(c, 1, 5e-324), lambda: family.pinned(1, 5e-324),
                         lambda: family.member(5e-324),
                         lambda: to_edges_along(FieldND(c.values), 0, 4, "pin",
                                                pin_index=1, pin_value=5e-324)[0]):
            assert complete().values.tolist() == [5e-324, -5e-324]

    def test_a_pin_value_is_taken_once_per_completion(self, monkeypatch):
        # picked with e_1 and stored at e_k from that one check, on every path
        c = CenterField1D(PeriodicStagger1D(6), [1.0, 2.0, 3.0, 2.0])
        family, field = edges_from_centers(c), FieldND(np.stack([c.values] * 3))
        names, real = [], kernel._finite_number

        def counted(value, exact, name):
            names.append(name)
            return real(value, exact, name)

        monkeypatch.setattr(kernel, "_finite_number", counted)
        for complete, checked in (
                (lambda: family.pinned(2, 2.0), ["pin value"]),
                (lambda: complete_pinned(c, 2, 2.0), ["tolerance", "pin value"]),
                (lambda: to_edges_along(field, 1, 6, "pin", pin_index=2, pin_value=2.0)[0],
                 ["tolerance", "pin value"])):
            names.clear()
            assert complete().values.reshape(-1, 4)[0].tolist() == [0.0, 2.0, 2.0, 4.0]
            assert names == checked

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
        # consistent even data whose e_1 = 0 particular overflows: it raises when
        # read, and the members that fit are still there
        family = edges_from_centers(CenterField1D(PeriodicStagger1D(4), [1.7e308, 1.7e308]))
        with pytest.raises(ValueError, match="overflow float64"):
            family.particular
        assert complete_min_norm(family).values.tolist() == [1.7e308, 1.7e308]

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


class TestEachLineAlone:
    """A line's result depends on that line alone: where a sum of another line
    in the batch overflows, this one is not rescaled with it."""

    def test_min_norm_of_a_tiny_line_stacked_under_a_huge_one(self):
        # the mean of the huge line's P overflows; the tiny line's subnormal P
        # lost a bit at every edge when the whole batch was summed at 2^-3
        rng = np.random.default_rng(5)
        tiny = kernel.average_lines(rng.standard_normal(8) * 1e-308)
        stacked = np.stack([np.full(8, 1.7e308), tiny])
        alone = kernel.complete_lines(tiny, "min-norm")[0]
        assert kernel.complete_lines(stacked, "min-norm")[0][1].tobytes() == alone.tobytes()
        assert kernel.complete_lines(stacked, "min-norm")[0][0].tolist() == [1.7e308] * 8

    def test_averages_of_a_subnormal_line_beside_an_overflowing_one(self):
        # 1.7e308 + 1.7e308 overflows; d / 2 rounds to 0, so halving the whole
        # batch made the second line d (1, 1, 1, 1)
        d = 5e-324
        e = np.array([[1.7e308, 1.7e308, 1.0, 1.0], [d, 2 * d, d, 2 * d]])
        centers = to_centers_along(FieldND(e, staggered_axis=1), 1)[0].values
        assert centers[1].tolist() == [2 * d] * 4
        assert centers[1].tobytes() == kernel.average_lines(e[1]).tobytes()
        assert centers[0].tolist() == [1.7e308, 0.85e308 + 0.5, 1.0, 0.85e308 + 0.5]

    def test_odd_line_whose_pairwise_sum_overflows_where_the_edges_fit(self):
        # one of numpy's eight pairwise accumulators adds 0.9e308 twice; the
        # edges, and S = e_1, fit
        e = np.zeros(33)
        e[[1, 17]], e[[3, 19]] = -0.9e308, 0.9e308
        out = edges_from_centers(centers_from_edges(EdgeField1D(PeriodicStagger1D(35), e)))
        assert out.edges.values.tolist() == e.tolist()

    @pytest.mark.parametrize("c, consistent", [
        ([-0.9e308, 0.9e308] * 2, False),          # |S| = 3.6e308 > 4 max|c| / 2
        ([-0.9e308, 0.9e308, 0.0, 0.0], True),     # |S| = 1.8e308 <= 4 max|c| / 2
    ])
    def test_sum_and_bound_both_beyond_float64(self, c, consistent):
        # a rescued S of inf cannot be told from a bound of inf: the line is
        # decided at 2^-2, where both fit
        _, s, residual, ok = kernel.solve_lines(np.array(c), 4.0)
        assert s == np.inf and residual == np.inf and bool(ok) is consistent
        centers = CenterField1D(PeriodicStagger1D(6), c)
        if consistent:   # but P_3 = c_1 - c_2 overflows: no member fits
            with pytest.raises(ValueError, match="^edge values overflow float64"):
                edges_from_centers(centers, 4.0)
        else:
            assert edges_from_centers(centers, 4.0).residual == np.inf


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


@pytest.mark.parametrize("scale", [Fraction(1, 2**1100), Fraction(10**400)],
                         ids=["2^-1100", "10^400"])
@pytest.mark.parametrize("m", [5, 6])
def test_exact_lines_beyond_either_end_of_float64(m, scale):
    """Fraction lines below float64's least subnormal and beyond its largest
    value meet every finiteness test of the kernel and the 1-D API as finite
    (the odd line's e_1 = S, below 2^-1021, takes the halving check too), and
    give exactly the dense oracle's Fractions, alone or in a batch of three."""
    grid = PeriodicStagger1D(m + 2)
    planted = [Fraction(k * k - 3 * k + 1, 7) * scale for k in range(m)]
    # averages of planted edges: an even line is consistent, S == 0 exactly
    batch = [[(a + b) / 2 * f for a, b in zip(planted, planted[1:] + planted[:1])]
             for f in (1, -3, Fraction(1, 5))]
    t, pin_index, pin_value = Fraction(-2, 9) * scale, 2, Fraction(5, 3) * scale

    def oracle(line, strategy):
        dense = solve_dense(build_system(CenterField1D(grid, np.array(line, dtype=object))))
        if strategy == "unique":
            return list(dense.edges.values)
        p, n = list(dense.particular.values), list(dense.null_direction)
        if strategy == "min-norm":
            at = -sum(a * b for a, b in zip(p, n)) / m
        else:   # the member at t is the one with e_1 = t
            k, v = (1, t) if strategy == "t" else (pin_index, pin_value)
            at = (v - p[k - 1]) / n[k - 1]
        return [a + at * b for a, b in zip(p, n)]

    centers = CenterField1D(grid, np.array(batch[0], dtype=object))
    s = alternating_residual(centers)
    assert type(s) is Fraction
    assert s == sum((-1) ** (m - i) * c for i, c in enumerate(batch[0], 1))
    outcome = edges_from_centers(centers)
    if m % 2:
        assert s == planted[0] and (scale > 1 or abs(s) < 2.0**-1021)
        fields = {"unique": outcome.edges}
    else:
        assert s == 0
        fields = {"t": outcome.member(t), "min-norm": complete_min_norm(outcome),
                  "pin": complete_pinned(centers, pin_index, pin_value)}
    for strategy, field in fields.items():
        got = field.values.tolist()
        assert got == oracle(batch[0], strategy) and all(type(v) is Fraction for v in got)

    for strategy in ["unique"] if m % 2 else ["min-norm", "pin"]:
        pin = (pin_index, pin_value) if strategy == "pin" else ()
        edges, residual = kernel.complete_lines(np.array(batch, dtype=object), strategy,
                                                kernel.DEFAULT_TOLERANCE, *pin)
        assert edges.tolist() == [oracle(line, strategy) for line in batch]
        assert all(type(v) is Fraction for v in edges.flat)
        assert residual is None if m % 2 else residual.tolist() == [0, 0, 0]


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


@given(st.integers(min_value=2, max_value=30), st.integers(0, 2**31 - 1), st.data())
@settings(max_examples=100, deadline=None)
def test_a_pinned_edge_is_its_value_bit_for_bit(half, seed, data):
    """Family.pinned, complete_pinned and to_edges_along(..., "pin"), on enough
    lines for the row path, give e_k = v itself, not 2 ((P_k + v/2) - P_k),
    which rounds at the scale of P_k."""
    grid = PeriodicStagger1D(2 * half)
    m = grid.n_unknowns
    rng = np.random.default_rng(seed)
    edges = rng.normal(scale=3.0, size=(kernel._ROWWISE_MIN_LINES, m)) + rng.choice([0.0, 1e6])
    lines = (edges + np.roll(edges, -1, axis=-1)) / 2   # consistent up to rounding
    k = data.draw(st.integers(1, m))
    v = data.draw(st.floats(-1e6, 1e6))
    c = CenterField1D(grid, lines[0])
    for pinned in (edges_from_centers(c).pinned(k, v), complete_pinned(c, k, v)):
        assert bits(pinned.values[k - 1]) == bits(v)
    out, _ = to_edges_along(FieldND(lines.T), 0, m + 2, "pin", pin_index=k, pin_value=v)
    assert bits(out.values[k - 1]) == bits(np.full(kernel._ROWWISE_MIN_LINES, v))


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
    results, faults = [], []
    for build in (lambda: family.member(x).values[0], lambda: FieldND(np.array([x])).values[0]):
        try:
            results.append(float(build()))
        except ValueError as exc:
            results.append(None)
            faults.append(str(exc))
    assert results[0] == results[1]
    if results[0] is not None:   # compared exactly: an int as an int, not as a float
        assert int(results[0]) == x if isinstance(x, (int, np.integer)) else results[0] == x
    elif isinstance(x, numbers.Real) and not isinstance(x, bool) and -math.inf < x < math.inf:
        # a finite number that both refuse is refused in the same words
        assert faults[0].removeprefix("t ") == faults[1].removeprefix("value at flat index 0 ")


#: An integer with more digits than str() makes of one, by default (4300).
HUGE = 10**5000


def huge_inconsistent_line():
    """An exact even line whose residual, -2 * 10^5000, is too long for str()."""
    return CenterField1D(PeriodicStagger1D(4), [Fraction(HUGE), Fraction(0)])


def zero_line():
    return CenterField1D(PeriodicStagger1D(4), [0.0, 0.0])


@pytest.mark.parametrize("call, error, message", [
    (lambda: complete_pinned(huge_inconsistent_line(), 1, 0), InconsistentDataError,
     r"^line \(0,\) admits no edge solution \(residual .*, tolerance 1e-10\)$"),
    (lambda: complete_min_norm(edges_from_centers(huge_inconsistent_line())),
     InconsistentDataError,
     r"^minimum-norm completion impossible: no solution exists \(residual .*\)$"),
    (lambda: edges_from_centers(zero_line(), HUGE), ValueError,
     "^tolerance has no exact float64 value: "),
    (lambda: edges_from_centers(zero_line()).member(HUGE), ValueError,
     "^t has no exact float64 value: "),
    (lambda: CenterField1D(PeriodicStagger1D(5), [HUGE, 0, 0]), ValueError,
     "^value at index 0 has no exact float64 value: "),
    (lambda: PeriodicStagger1D(-HUGE), ValueError, "^n_edges must be at least 3, got "),
    (lambda: PeriodicStagger1D([HUGE]), ValueError, "^n_edges must be an int, got "),
    (lambda: complete_pinned(zero_line(), HUGE, 0.0), ValueError,
     r"^pin index must be in 1\.\.2, got "),
    (lambda: FieldND([1.0, 2.0], staggered_axis=HUGE), ValueError,
     "^staggered_axis .* out of range for 1-dimensional field$"),
    (lambda: to_edges_along(FieldND([1.0, 2.0]), 0, HUGE, "unique"), ValueError,
     "^axis 0 has extent 2 but n_edges=.* implies .* centers$"),
    (lambda: build_audit_report(-HUGE, 5), ValueError, "^n_min must be at least 3, got "),
    (lambda: build_audit_report(3, HUGE), ValueError,
     r"^n_max must be at most 66 \(dense oracle cap\), got "),
    (lambda: DenseSystem(-HUGE, (), ()), ValueError,
     "^system needs at least one unknown, got m="),
], ids=["complete_pinned residual", "complete_min_norm residual", "tolerance", "t",
        "field entry", "n_edges", "n_edges not an int", "pin index", "staggered_axis",
        "to_edges_along n_edges", "audit n_min", "audit n_max", "dense system size"])
def test_numbers_too_long_for_str_are_shown_in_the_librarys_words(call, error, message):
    """A message shows an integer with more digits than str() makes, or a Fraction
    of one, by its size: the documented error, not Python's refusal to print it."""
    with pytest.raises(error, match=message) as info:
        call()
    assert "Exceeds the limit" not in str(info.value)


@st.composite
def stacked_lines(draw):
    """A batch of lines of one length, each at its own scale (subnormal, unit or
    near the float64 limit, where sums overflow), some the averages of edges
    (consistent up to rounding); a few lines, or repeated past
    ``_ROWWISE_MIN_LINES`` so that short lines take the row path."""
    m = draw(st.integers(1, 12))
    scales = st.sampled_from([2.0**-1060, 2.0**-1030, 1.0, 1e300, 8.9e307,
                              float(np.finfo(np.float64).max)])
    lines = []
    for _ in range(draw(st.integers(2, 4))):
        line = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=m, max_size=m)))
        line *= draw(scales)
        lines.append(kernel.average_lines(line) if draw(st.booleans()) else line)
    batch = np.stack(lines)
    if draw(st.booleans()):
        batch = np.tile(batch, (-(-kernel._ROWWISE_MIN_LINES // len(lines)), 1))
    return batch


def raised_or_returned(call):
    """("ok", what ``call`` returns), or the type of what it raised and the error."""
    try:
        return "ok", call()
    except ValueError as exc:
        return type(exc), exc


@given(stacked_lines(), st.sampled_from([1e-10, 4.0]))
@settings(max_examples=100, deadline=None)
def test_each_line_gets_its_bits_alone(batch, tolerance):
    """Every line of a batch gets the bits it gets alone from solve_lines,
    average_lines and complete_lines with each strategy; where the batch raises,
    it is the error of its first failing line alone (its index in line_coords)."""
    m = batch.shape[-1]
    assert kernel._rowwise(batch) == (len(batch) >= kernel._ROWWISE_MIN_LINES)
    solved = kernel.solve_lines(batch, tolerance)
    averaged = kernel.average_lines(batch)
    for i, line in enumerate(batch):
        alone = kernel.solve_lines(line, tolerance)
        assert [bits(x) for x in alone] == [None if x is None else bits(x[i]) for x in solved]
        assert bits(averaged[i]) == bits(kernel.average_lines(line))
    strategies = [("unique",)] if m % 2 else [("min-norm",), ("pin", 1, 0.0), ("pin", m, -2.5)]
    for args in strategies:
        def complete(c):
            return kernel.complete_lines(c, args[0], tolerance, *args[1:])
        got = raised_or_returned(lambda: complete(batch))
        alone = [raised_or_returned(lambda: complete(line)) for line in batch]
        inconsistent = [i for i, (kind, _) in enumerate(alone) if kind is InconsistentDataError]
        failed = [i for i, (kind, _) in enumerate(alone) if kind != "ok"]
        if inconsistent:
            i, exc = inconsistent[0], alone[inconsistent[0]][1]
            assert got[0] is InconsistentDataError and got[1].line_coords == (i,)
            assert str(got[1]) == str(exc).replace("line (0,)", f"line ({i},)")
            assert bits(got[1].residual) == bits(exc.residual)
        elif failed:
            assert (got[0], str(got[1])) == (alone[failed[0]][0], str(alone[failed[0]][1]))
        else:
            assert got[0] == "ok"
            for i, (_, (edges, residual)) in enumerate(alone):
                assert bits(got[1][0][i]) == bits(edges)
                assert bits(None if residual is None else got[1][1][i]) == bits(residual)


# -- the kernel against its checkerboard formulas ------------------------------
# The kernel applies every sign by negating alternate slots in place.  These
# are the formulas it replaced, with explicit multiplies by the checkerboard;
# negation and doubling are exact, so the two must agree bit for bit.


def checkerboard_signs(m):
    signs = np.ones(m, dtype=np.int64)
    signs[1::2] = -1
    return signs


def reference_scan_partial(c):
    """P_k = P_{k-1} + (-1)^(k-2) c_{k-1} in sequence: the alternating scan."""
    partial = np.zeros_like(c)
    np.multiply(checkerboard_signs(c.shape[-1])[:-1], c[..., :-1], out=partial[..., 1:])
    with np.errstate(over="ignore", invalid="ignore"):
        np.cumsum(partial[..., 1:], axis=-1, out=partial[..., 1:])
    return partial


def reference_partial(c):
    """P pair-first, 0-based: P_{2t} = sum_{i<t} (c_{2i} - c_{2i+1}) in sequence and
    P_{2t+1} = P_{2t} + c_{2t}, but P_1 = c_0 as it is; a line where that leaves
    some P_k not finite takes the alternating scan."""
    m = c.shape[-1]
    partial = np.zeros_like(c)
    partial[..., 1:2] = c[..., :1]
    with np.errstate(over="ignore", invalid="ignore"):
        pairs = [c[..., 2 * i] - c[..., 2 * i + 1] for i in range((m - 1) // 2)]
        for t, total in enumerate(itertools.accumulate(pairs), start=1):
            partial[..., 2 * t] = total
            if 2 * t + 1 < m:
                partial[..., 2 * t + 1] = total + c[..., 2 * t]
    if c.dtype != object:
        bad = ~np.all(np.isfinite(partial), axis=-1)
        partial[bad] = reference_scan_partial(c[bad])
    return partial


def reference_pair_total(x):
    """np.sum of the differences x_{2j+1} - x_{2j} of every line; a float line whose
    sum is not finite is summed again on its own at x / 2^ceil(log2 n), n values a
    line, where it fits, and scaled back: maybe +-inf."""
    def total(y):
        return np.sum(np.subtract(y[..., 1::2], y[..., 0::2], order="C"), axis=-1)
    with np.errstate(over="ignore", invalid="ignore"):
        out = total(x)
        if x.dtype != object and not np.all(np.isfinite(out)):
            out = np.array(out)
            scale = 2.0 ** math.ceil(math.log2(x.shape[-1]))
            for i in np.ndindex(out.shape):
                if not np.isfinite(out[i]):
                    out[i] = total(x[i] / scale) * scale
    return out


def reference_alternating_sums(c):
    if c.shape[-1] % 2 == 0:
        return reference_pair_total(c)
    return c[..., 0] + reference_pair_total(c[..., 1:])


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
        # where 2 S overflows, max|c| >= 1 and the test is taken halved, exactly; where
        # S overflows too, on the line alone at 2^-ceil(log2 M), where S fits
        consistent = np.array(consistent)
        scale = 2.0 ** math.ceil(math.log2(c.shape[-1]))
        for i in np.ndindex(consistent.shape):
            if not np.isfinite(residual[i]):
                half_bound = allowance * (np.max(np.abs(c[i])) / 2)
                if np.isfinite(s[i]):
                    consistent[i] = abs(s[i]) <= half_bound
                else:
                    s_scaled = reference_alternating_sums(c[i] / scale)
                    bound = allowance * (np.max(np.abs(c[i])) / (2 * scale))
                    consistent[i] = abs(s_scaled) <= bound
        return partial, s, residual, consistent


def reference_telescope(first, partial):
    """(-1)^(k-1) 2 (e_1 / 2 - P_k), or (-1)^(k-1) (e_1 - 2 P_k) on a line whose
    e_1 / 2 rounds: both round once, and the halved form overflows only with the edge."""
    first = np.asarray(first)[..., None]
    with np.errstate(over="ignore", invalid="ignore"):
        e = np.where(first / 2 * 2 == first, 2 * (first / 2 - partial), first - 2 * partial)
        e *= checkerboard_signs(partial.shape[-1])
    if e.dtype != object and not np.all(np.isfinite(e)):
        raise ValueError("edge values overflow float64: the input is too large in magnitude")
    return e


def reference_average(e):
    """(e_i + e_{i+1}) / 2, or e_i / 2 + e_{i+1} / 2 where the sum overflows."""
    c = np.roll(e, -1, axis=-1)
    with np.errstate(over="ignore"):
        c += e
    c /= 2
    if c.dtype.kind == "f":
        c = np.where(np.isfinite(c), c, np.roll(e, -1, axis=-1) / 2 + e / 2)
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
    overflow), or averages of such floats, or the same as Fractions; or lines of
    3 to 6 values of alternating sign, each zero or from a quarter of the float64
    limit to it, where S is beyond float64 and, at tolerance 4, so is the bound,
    on lines either side of it."""
    shape = draw(hnp.array_shapes(min_dims=1, max_dims=3, min_side=1, max_side=6))
    axis = draw(st.integers(0, len(shape) - 1))
    if draw(st.integers(0, 2)) == 0:
        limit = float(np.finfo(np.float64).max)
        shape = shape[:axis] + (draw(st.integers(3, 6)),) + shape[axis + 1:]
        magnitude = st.one_of(st.just(0.0), st.floats(0.25, 1.0).map(lambda x: x * limit))
        values = draw(hnp.arrays(np.float64, shape, elements=magnitude, fill=st.nothing()))
        lines = np.moveaxis(values, axis, -1)
        np.negative(lines[..., 1::2], out=lines[..., 1::2])
        return lines, limit
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


@given(kernel_lines(), st.sampled_from([0.0, 1e-10, 1.0, 4.0]), st.data())
@settings(max_examples=300, deadline=None)
def test_kernel_bits_match_the_checkerboard_formulas(lines, tolerance, data):
    """P and S from solve_lines, _telescope, Family.member and average_lines give
    bit for bit what the checkerboard multiplies gave, and raise the same errors;
    a member is p + t (+1, -1, ...) but for the sign of an exact zero, and leaves
    the family's P intact."""
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
    partial = reference_partial(line)
    family = kernel._kernel_field(Family, grid=PeriodicStagger1D(line.size + 2),
                                  _partial=partial.copy())
    member = outcome(lambda: family.member(t).values)
    assert member == outcome(lambda: reference_telescope(t, partial.copy()))
    assert bits(family._partial) == bits(partial)
    particular = outcome(lambda: family.particular.values)
    assert particular == outcome(lambda: reference_telescope(Fraction(0) if exact else 0.0,
                                                             partial.copy()))
    if not isinstance(member, tuple) and not isinstance(particular, tuple):
        p = family.particular.values
        assert np.array_equal(family.member(t).values, p + t * checkerboard_signs(p.size))


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


def pairwise_batches(n, lines):
    """The batches of the order test above at ``lines`` lines of n terms."""
    rng = np.random.default_rng(n)
    batches = rng.standard_normal((5, lines, n))
    batches[1] += 1e6
    batches[2] *= 10.0 ** rng.integers(-20, 20, (lines, n))
    batches[3] *= 2.0**-1060
    batches[4] = -0.0
    return batches


LONG_SUMS = [129, 136, 255, 1000, 4097, 3 * kernel._LEAF + 5]


@pytest.mark.parametrize("n", LONG_SUMS)
def test_long_row_sums_follow_numpys_pairwise_split(n):
    """Over 128 terms _pairwise_rows splits as numpy's pairwise_sum does, at
    n // 2 rounded down to a multiple of 8, and gives np.sum's bits."""
    for x in pairwise_batches(n, 4):
        rows = 0.0 + kernel._pairwise_rows(lambda j: x[:, j].copy(), n)
        assert rows.tobytes() == np.sum(x, axis=-1).tobytes()


@pytest.mark.parametrize("leaf", [128, 136, kernel._LEAF])
@pytest.mark.parametrize("n", LONG_SUMS)
def test_long_line_sums_follow_numpys_pairwise_split(n, leaf, monkeypatch):
    """Off the row path, a line of more than _LEAF terms is summed in runs of at
    most _LEAF, each made in one scratch and reduced there, split as numpy
    splits: the bits of np.sum of the whole line, for any run length from
    numpy's own block of 128 up, on 1-D and N-D lines; on Fractions, the exact
    sum, still a Fraction."""
    monkeypatch.setattr(kernel, "_LEAF", leaf)
    batches = pairwise_batches(n, 3)
    for x in batches:
        y = np.zeros((3, 2 * n))
        y[:, 1::2] = x   # x_j - 0.0 is x_j, -0.0 too
        assert not kernel._rowwise(y)
        assert kernel._pair_total(np.subtract, y).tobytes() == np.sum(x, axis=-1).tobytes()
        assert kernel._pair_total(np.subtract, y[1]).tobytes() == np.sum(x[1]).tobytes()
    if n == 1000 and leaf == 128:
        terms = [Fraction(v) for v in batches[1, 1]]
        y = np.array([Fraction(0), None] * n, dtype=object)
        y[1::2] = terms
        total = kernel._pair_total(np.subtract, y)
        assert type(total) is Fraction and total == sum(terms)


def leaf_layouts(m, scale, poison):
    """Lines of m centers as the kernel sees them: one 1-D line, and an N-D field
    along each of its three axes, C-ordered and Fortran-ordered, and with the
    line axis or a non-line axis strided.  The values are standard normal times
    ``scale``, offset by 1e6 on some lines at scale 1; even lines are averages
    of edges, consistent up to rounding, but for one poisoned line if ``poison``."""
    rng = np.random.default_rng(m)
    e = rng.standard_normal((3, 4, m)) * scale
    if scale == 1.0:
        e[1::2] += 1e6
    c = reference_average(e) if m % 2 == 0 else e
    if poison:
        c[2, 1, m // 3] += scale
    views = [c[2, 1].copy()]
    for axis in range(3):
        for order in "CF":
            views.append(np.moveaxis(np.array(np.moveaxis(c, -1, axis), order=order), axis, -1))
    views.append(np.repeat(c, 2, axis=-1)[..., ::2])
    views.append(np.repeat(c, 2, axis=0)[::2])
    return views


def result_or_error(call):
    """The bits of what ``call`` returns, or its error: the type and message, and
    the residual and line_coords an InconsistentDataError carries."""
    try:
        result = call()
    except InconsistentDataError as exc:
        return type(exc), str(exc), bits(exc.residual), exc.line_coords
    except ValueError as exc:
        return type(exc), str(exc)
    return [bits(x) for x in (result if isinstance(result, tuple) else (result,))]


def solved(outcome):
    """The kind and the values of a solve outcome."""
    if isinstance(outcome, Inconsistent):
        return type(outcome).__name__, outcome.residual
    field = outcome.edges if isinstance(outcome, Unique) else outcome.particular
    return type(outcome).__name__, field.values


def completions(c):
    """What every strategy gives on the lines ``c``; for a 1-D line also what the
    1-D API gives."""
    m = c.shape[-1]
    strategies = [("unique",)] if m % 2 else [("min-norm",), ("pin", 1, 0.0), ("pin", m, -2.5)]
    calls = [lambda args=args: kernel.complete_lines(c, args[0], 1e-10, *args[1:])
             for args in strategies]
    if c.ndim == 1:
        centers = CenterField1D(PeriodicStagger1D(m + 2), c)
        calls += [lambda: alternating_residual(centers),
                  lambda: solved(edges_from_centers(centers)),
                  lambda: complete_min_norm(edges_from_centers(centers)).values,
                  lambda: complete_pinned(centers, 2, 1.0).values]
    return [result_or_error(call) for call in calls]


@pytest.mark.parametrize("leaf", [128, 136])
@pytest.mark.parametrize("m", [257, 258, 513, 1001, 4098])
def test_leaf_runs_change_no_bit(m, leaf, monkeypatch):
    """Sums split into runs of 128 or 136 terms give what unsplit sums give:
    P, S, 2 S and the consistency test as the reference formulas give them, and
    the edges, residuals, errors and line_coords of every strategy and of the
    1-D API as the default _LEAF gives them (it still sums these lines whole,
    in one run), from subnormal scale to overflow."""
    assert m // 2 <= kernel._LEAF
    for scale in (1.0, 2.0**-1060, 1e307):
        for poison in (False, True):
            for c in leaf_layouts(m, scale, poison):
                unsplit = completions(c)
                with monkeypatch.context() as patch:
                    patch.setattr(kernel, "_LEAF", leaf)
                    assert outcome(lambda: kernel.solve_lines(c, 1e-10)) == outcome(
                        lambda: reference_solve(c, 1e-10))
                    with np.errstate(over="ignore", invalid="ignore"):
                        assert bits(kernel.alternating_sums(c)) == bits(
                            reference_alternating_sums(c))
                    assert completions(c) == unsplit


# -- P pair-first, against exact prefix sums and the alternating scan ----------


def partial_errors(c, partial):
    """P_k - sum_{j<k} (-1)^j c_j (0-based) of a float line, exactly: every term
    lies on the grid 2^-q of the finest one, and so does every float sum of them,
    so both sides are Python ints there."""
    terms = c[:-1] * checkerboard_signs(c.shape[-1])[:-1]
    q = 53 - int(np.frexp(terms[terms != 0])[1].min())

    def on_grid(x):   # a shift right drops only zero bits
        mantissa, exponent = np.frexp(x)
        return [int(v) << e if e >= 0 else int(v) >> -e for v, e in
                zip((mantissa * 2.0**53).tolist(), (exponent + q - 53).tolist())]
    exact = [0, *itertools.accumulate(on_grid(terms))]
    return np.array([(p - e) / 2**q for p, e in zip(on_grid(partial), exact)])


@pytest.mark.parametrize("m", [131_073, 131_072])
def test_pair_first_partial_sums_against_exact_prefix_sums(m):
    """With an offset, P built pair-first is no farther from the exact prefix sums
    than the alternating scan's P: the offset cancels in each pair difference
    before anything accumulates (at 1e3: 1.1e-13 against 1.3e-11 and 5.7e-13,
    at 1e6 both exact).  At zero mean neither is nearer on every draw (here:
    2.5e-12 against 1.8e-12, and 6.4e-12 against 4.8e-12); there the rounding a
    step of two slots adds, the variance of the error between even slots, is
    halved (0.49 to 0.51 of the scan's on 20 seeds)."""
    z = np.random.default_rng([0, m]).standard_normal(m)
    for offset in (0.0, 1e3, 1e6):
        c = offset + z
        scan = partial_errors(c, reference_scan_partial(c))
        pair_first = partial_errors(c, kernel.solve_lines(c)[0])
        assert bits(kernel.solve_lines(c)[0]) == bits(reference_partial(c))
        if offset:
            assert np.max(np.abs(pair_first)) <= np.max(np.abs(scan))
        else:
            steps = [np.sum(np.diff(err[::2]) ** 2) for err in (pair_first, scan)]
            assert steps[0] <= 0.6 * steps[1]


#: Odd and even lines where the pair difference c_2 - c_3 (0-based) overflows but
#: every P_k fits: P_3 = 1.5e308 - 1e308, P_4 = P_3 - 1e308.  No edge solution
#: fits there, as e_2 - e_4 = 2 (c_2 - c_3); the even line is consistent, S = 0.
PAIR_OVERFLOWS = {"odd": [1.5e308, 0.0, -1e308, 1e308, 0.0],
                  "even": [1.5e308, 0.0, -1e308, 1e308, 0.0, -0.5e308]}


@pytest.mark.parametrize("parity", ["odd", "even"])
@pytest.mark.parametrize("lines", [1, 3, 600])
def test_a_pair_difference_that_overflows_takes_the_scan(parity, lines):
    """That line's P is the alternating scan's, bit for bit, on the line path and
    on the row path, and every other line keeps its pair-first bits; its class is
    the scan's (the even line a Family whose members overflow, not a ValueError
    from its solve), its edges raise ValueError, and numpy warns of nothing."""
    line = np.array(PAIR_OVERFLOWS[parity])
    batch = kernel.average_lines(np.random.default_rng(3).standard_normal((lines, line.size)))
    batch[lines // 2] = line
    assert kernel._rowwise(batch) == (lines >= kernel._ROWWISE_MIN_LINES)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        partial = kernel.solve_lines(batch)[0]
        strategy = "unique" if parity == "odd" else "min-norm"
        with pytest.raises(ValueError, match="^edge values overflow float64"):
            kernel.complete_lines(batch, strategy)
        centers = CenterField1D(PeriodicStagger1D(line.size + 2), line)
        if parity == "odd":
            with pytest.raises(ValueError, match="^edge values overflow float64"):
                edges_from_centers(centers)
        else:
            family = edges_from_centers(centers)
            assert isinstance(family, Family)
            for member in (lambda: family.particular, lambda: complete_min_norm(family)):
                with pytest.raises(ValueError, match="^edge values overflow float64"):
                    member()
    scan = reference_scan_partial(line)
    assert np.all(np.isfinite(scan)) and bits(partial[lines // 2]) == bits(scan)
    with np.errstate(over="ignore"):
        assert not np.isfinite(line[2] - line[3])
    for i in range(lines):
        assert bits(partial[i]) == bits(reference_partial(batch[i]))
        assert bits(partial[i]) == bits(kernel.solve_lines(batch[i])[0])


@pytest.mark.parametrize("lines", [1, 600])
def test_an_odd_slot_that_overflows_where_the_last_fits_takes_the_scan(lines):
    """P_3 = P_2 + c_2 overflows, yet P_4 = P_2 + (c_2 - c_3) fits, and no later
    slot adds onto P_3: a line is redone by the scan wherever some P_k is not
    finite, not only P_M, so its edges raise and none comes back infinite."""
    line = np.array([1e308, 0.0, 1e308, 1e308, 0.0])
    batch = np.tile(line, (lines, 1))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        partial = kernel.solve_lines(batch)[0]
        with pytest.raises(ValueError, match="^edge values overflow float64"):
            kernel.complete_lines(batch, "unique")
    assert bits(partial[-1]) == bits(reference_scan_partial(line))
    assert np.isinf(partial[-1, 3]) and np.isinf(partial[-1, 4])


# -- the outcome digest ------------------------------------------------------
# A SHA-256 over the class and residual of every line of a fixed sample, and
# over the class of every completion of it, pinned in tests/goldens: a change to
# how P is built may change edge bits, but never a class, S or a residual.

OUTCOME_DIGEST = Path(__file__).parent / "goldens" / "outcome_digest.sha256"
DIGEST_LENGTHS = list(range(1, 41)) + [63, 64, 65, 128, 129, 300]


def digest_batches():
    """(name, c) of the sample: float lines of every length in DIGEST_LENGTHS,
    alone, three at a time and 600 at a time (the row path up to 64 values), at
    subnormal, unit, offset 1e6 and near-limit scales, as averages of edges
    (consistent up to rounding) or with every line poisoned by a relative step
    from 1e-15 to 1; and Fraction lines, exact averages, poisoned or not, alone,
    three at a time and on the row path."""
    limit = float(np.finfo(np.float64).max)
    for m in DIGEST_LENGTHS:
        for lines in (1, 3, 600):
            for k, (scale, offset) in enumerate(((2.0**-1070, 0.0), (1.0, 0.0), (1.0, 1e6),
                                                 (1e300, 0.0), (limit / 2, 0.0), (limit, 0.0))):
                rng = np.random.default_rng([m, lines, k])
                edges = offset + rng.uniform(-1.0, 1.0, (lines, m)) * scale
                c = kernel.average_lines(edges)
                steps = np.array([1e-15, 1e-12, 1e-10, 1e-8, 1e-4, 1.0])
                poisoned = c.copy()
                with np.errstate(over="ignore"):
                    poisoned[:, m // 3] += steps[np.arange(lines) % 6] * (scale + offset)
                poisoned[~np.isfinite(poisoned)] = limit
                yield f"float m={m} lines={lines} k={k}", c
                yield f"float poisoned m={m} lines={lines} k={k}", poisoned
    for m in list(range(1, 11)) + [63, 64, 65]:
        for lines in (1, 3, 512) if m in (7, 8) else (1, 3):
            rng = np.random.default_rng([m, lines, 99])
            edges = np.array([Fraction(int(v), 1 + int(d)) for v, d in
                              zip(rng.integers(-10**6, 10**6, lines * m),
                                  rng.integers(0, 1000, lines * m))],
                             dtype=object).reshape(lines, m)
            c = (edges + np.roll(edges, -1, axis=-1)) / 2
            poisoned = c.copy()
            poisoned[::2, m // 3] += Fraction(1, 10**9)
            yield f"exact m={m} lines={lines}", c
            yield f"exact poisoned m={m} lines={lines}", poisoned


def outcome_digest():
    """(hex SHA-256, count) over the class, S and residual of every line of
    every digest batch at tolerances 0, 1e-10 and 4 by solve_lines, and the
    class of every strategy of complete_lines on it (ok, or the error, its
    message, residual and line_coords), and of the 1-D API on each of its
    first three lines (the outcome type and residual, or the error)."""
    digest, count = hashlib.sha256(), 0

    def feed(*parts):
        for part in parts:
            digest.update(repr(bits(part) if isinstance(part, np.ndarray) else part).encode())

    def classed(call):
        try:
            call()
        except InconsistentDataError as exc:
            return type(exc).__name__, str(exc), bits(exc.residual), exc.line_coords
        except ValueError as exc:
            return type(exc).__name__, str(exc)
        return "ok"

    for name, c in digest_batches():
        m, lines = c.shape[-1], c.shape[0]
        feed(name)
        with np.errstate(over="ignore", invalid="ignore"):
            for tolerance in (0.0, 1e-10, 4.0):
                _, s, residual, consistent = kernel.solve_lines(c, tolerance)
                feed(tolerance, np.asarray(s), None if residual is None else np.asarray(residual),
                     None if consistent is None else np.asarray(consistent))
                count += lines
        strategies = [("unique",)] if m % 2 else [("min-norm",), ("pin", 1, 0.0),
                                                  ("pin", m, -2.5)]
        for args in strategies:
            feed(args, classed(lambda: kernel.complete_lines(c, args[0], 1e-10, *args[1:])))
            count += 1
        for line in c[:3]:
            centers = CenterField1D(PeriodicStagger1D(m + 2), line)
            try:
                out = edges_from_centers(centers)
            except ValueError as exc:
                feed(type(exc).__name__, str(exc))
            else:
                feed(type(out).__name__, getattr(out, "residual", None))
                if isinstance(out, Family):
                    feed(classed(lambda: complete_min_norm(out)))
            count += 1
    return digest.hexdigest(), count


def test_outcome_digest_matches_the_golden():
    """Every class, S and residual of the digest sample is what it was when P was
    built by the alternating scan."""
    hexdigest, count = outcome_digest()
    assert count >= 60_000
    assert hexdigest == OUTCOME_DIGEST.read_text().split()[0]


# -- memory ------------------------------------------------------------------


class TestMemoryBudget:
    """Peak bytes a call allocates (numpy reports its buffers to tracemalloc),
    per byte of one float64 line of about 10^5 values: the output and the S
    scratch, but no sign array, no |c| or roll copy and no isfinite mask."""

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
        ("Family.member", 1.05),
        ("centers_from_edges", 1.05),
    ])
    def test_calls_build_only_what_they_return(self, name, limit):
        """The even solve keeps P and builds no edge and no checkerboard (1.09
        measured, 2.00 with the checkerboard; the mask is held to 1.15 below),
        and a member or the centers is one new buffer, with no copy of the
        particular or isfinite mask beside it (1.00 measured, 1.13 with the
        mask)."""
        assert self.peak_of(name) <= limit

    @pytest.mark.parametrize("name", ["odd edges_from_centers", "even edges_from_centers"])
    def test_long_sums_hold_no_half_line(self, name):
        """S sums runs of _LEAF differences in one scratch, not M / 2 of them in a
        C-order temporary (0.50), and the odd telescope reads overflow from the
        FP flag: 1.09 measured for both, 1.21 with an isfinite mask, 1.59 with
        the temporary too."""
        assert self.peak_of(name) <= 1.15

    def peak_of(self, name):
        calls = {
            "odd edges_from_centers": (lambda: edges_from_centers(self.odd), self.M),
            "even edges_from_centers": (lambda: edges_from_centers(self.even), self.M + 1),
            "complete_min_norm": (lambda: complete_min_norm(self.family), self.M + 1),
            "Family.pinned": (lambda: self.family.pinned(3, 0.5), self.M + 1),
            "Family.member": (lambda: self.family.member(0.5), self.M + 1),
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

    def test_a_line_whose_residual_overflows_is_decided_alone(self):
        """Where one line's 2 S overflows, that line alone is decided again at
        2^-k: no scaled copy of the batch beside it, which added 1.0 to the
        1.64 of 10^5 values in lines of 8."""
        consistent = kernel.average_lines(np.random.default_rng(1).standard_normal((12500, 8)))
        one_overflows = consistent.copy()
        one_overflows[-1] = [1e308, -1e308] * 4
        peaks = [self.peak_per_line_byte(lambda: kernel.solve_lines(c), c.size)
                 for c in (consistent, one_overflows)]
        assert peaks[1] <= peaks[0] + 0.05

    def test_an_inconsistent_line_is_reported_alone(self):
        """The line that complete_lines reports is read out of the residuals on
        its own: no list of every line's residual beside them, which took 10^5
        values in lines of 8 from 1.64 to 1.77."""
        consistent = kernel.average_lines(np.random.default_rng(1).standard_normal((12500, 8)))
        last_inconsistent = consistent.copy()
        last_inconsistent[-1, 0] += 1.0

        def report(c):
            try:
                return kernel.complete_lines(c, "min-norm")
            except InconsistentDataError as exc:
                assert exc.line_coords == (12499,) and isinstance(exc.residual, float)
                return exc

        peaks = [self.peak_per_line_byte(lambda: report(c), c.size)
                 for c in (consistent, last_inconsistent)]
        assert peaks[1] <= peaks[0] + 0.05

    def peak_of_many_lines(self, strategy):
        field = self.odd_lines if strategy == "unique" else self.even_lines
        pin = (3, 0.5) if strategy == "pin" else (None, None)
        m = field.shape[1]
        return self.peak_per_line_byte(
            lambda: to_edges_along(field, 1, m + 2, strategy, 1e-10, *pin),
            field.values.size)
