"""Tests for axis-wise transforms on N-dimensional fields."""

import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from staggrid import grid as kernel
from staggrid import (
    DEFAULT_TOLERANCE,
    MAX_ORACLE_UNKNOWNS,
    CenterField1D,
    Family,
    FieldND,
    InconsistentDataError,
    ParityError,
    PeriodicStagger1D,
    Unique,
    alternating_residual,
    build_system,
    complete_min_norm,
    complete_pinned,
    edges_from_centers,
    solve_dense,
    to_centers_along,
    to_edges_along,
)

EPS = float(np.finfo(np.float64).eps)


def exact_min_norm(centers):
    """The min-norm edges of float ``centers``, solved exactly and then rounded."""
    exact = CenterField1D(PeriodicStagger1D(len(centers) + 2),
                          np.array([Fraction(v) for v in centers], dtype=object))
    return np.array([float(v) for v in complete_min_norm(edges_from_centers(exact)).values])


def assert_within_ulps(got, want, ulps):
    assert np.all(np.isfinite(got))
    assert np.all(np.abs(got - want) <= ulps * np.spacing(np.abs(want))), (got, want)


class TestFieldND:
    def test_basic(self):
        f = FieldND(np.zeros((3, 4)))
        assert f.shape == (3, 4)
        assert f.staggered_axis is None
        assert f.values.dtype == np.float64

    def test_staggered_axis_validation(self):
        FieldND(np.zeros((3, 4)), staggered_axis=1)
        with pytest.raises(ValueError):
            FieldND(np.zeros((3, 4)), staggered_axis=2)
        with pytest.raises(ValueError):
            FieldND(np.zeros((3, 4)), staggered_axis=-1)
        with pytest.raises(ValueError):
            FieldND(np.zeros((3, 4)), staggered_axis=True)
        with pytest.raises(ValueError):
            FieldND(np.zeros((3, 4)), staggered_axis=np.True_)

    def test_staggered_axis_needs_a_value(self):
        # an edge axis holds M = N - 2 >= 1 values; other axes may be empty
        for shape, axis in (((5, 0), 1), ((0,), 0), ((3, 0, 2), 1)):
            with pytest.raises(ValueError, match=f"staggered axis {axis} has extent 0"):
                FieldND(np.zeros(shape), staggered_axis=axis)
        assert FieldND(np.zeros((0, 8)), staggered_axis=1).shape == (0, 8)

    def test_numpy_integer_staggered_axis(self):
        f = FieldND(np.zeros((3, 4)), staggered_axis=np.int64(1))
        assert f.staggered_axis == 1 and type(f.staggered_axis) is int

    def test_rejects_complex(self):
        with pytest.raises(ValueError, match="real"):
            FieldND(np.array([[1 + 2j, 3 + 0j, 2 + 1j]]))
        with pytest.raises(ValueError, match="real"):
            FieldND(np.array([1.0, 2.0], dtype=np.complex128))

    @pytest.mark.parametrize("values", [np.array(["1.5", "2"]), [True, False, True],
                                        np.array([Fraction(1, 3), Fraction(2)], dtype=object),
                                        np.array([1.0, 2.0], dtype=object)])
    def test_rejects_strings_bools_and_objects(self, values):
        with pytest.raises(ValueError, match="real numbers"):
            FieldND(values)

    @pytest.mark.parametrize("values,k,shown", [([[True, 2.0]], 0, "True"),
                                                ([[1.0, 2.0], [3.0, False]], 3, "False"),
                                                ([(1, 2), np.array([True, False])], 2, "True"),
                                                ([[[1.0], [np.bool_(True)]]], 1, "True"),
                                                ([np.array(True), 2.0], 0, "True"),
                                                ([[1.0, np.array(2.0)], [3.0, np.array(False)]],
                                                 3, "False")])
    def test_rejects_a_bool_among_numbers(self, values, k, shown):
        # numpy would hold it as 0 or 1; the nested list is checked in C order before
        # it is converted
        message = f"^value at flat index {k} must be a finite real number, got {shown}$"
        with pytest.raises(ValueError, match=message):
            FieldND(values)

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            FieldND(np.array([1.0, np.nan]))

    def test_rejects_scalar(self):
        with pytest.raises(ValueError):
            FieldND(np.float64(3.0))

    def test_copies_input(self):
        raw = np.ones((2, 2))
        f = FieldND(raw)
        raw[0, 0] = 99.0
        assert f.values[0, 0] == 1.0


class TestToEdges:
    def test_unique_columns(self):
        # every column is (1,2,3): N=5 unique solution (2,0,4)
        f = FieldND(np.tile(np.array([[1.0], [2.0], [3.0]]), (1, 3)))
        out, summary = to_edges_along(f, 0, 5, "unique")
        assert out.staggered_axis == 0
        assert out.shape == (3, 3)
        assert np.allclose(out.values, np.tile(np.array([[2.0], [0.0], [4.0]]), (1, 3)))
        assert summary.n_lines == 3
        assert summary.unique_lines == 3
        assert summary.family_lines == 0
        assert summary.max_residual == 0.0

    def test_unique_along_axis_one(self):
        f = FieldND(np.tile(np.array([[1.0, 2.0, 3.0]]), (4, 1)))
        out, summary = to_edges_along(f, 1, 5, "unique")
        assert out.staggered_axis == 1
        assert np.allclose(out.values, np.tile(np.array([[2.0, 0.0, 4.0]]), (4, 1)))
        assert summary.n_lines == 4

    def test_min_norm_columns(self):
        f = FieldND(np.tile(np.array([[1.0], [2.0], [3.0], [2.0]]), (1, 2)))
        out, summary = to_edges_along(f, 0, 6, "min-norm")
        assert np.allclose(out.values[:, 0], [1.0, 1.0, 3.0, 3.0])
        assert summary.family_lines == 2
        assert summary.unique_lines == 0
        assert summary.max_residual <= 1e-12

    def test_pin_columns(self):
        f = FieldND(np.tile(np.array([[1.0], [2.0], [3.0], [2.0]]), (1, 2)))
        out, _ = to_edges_along(f, 0, 6, "pin", pin_index=2, pin_value=2.0)
        assert np.allclose(out.values[:, 0], [0.0, 2.0, 2.0, 4.0])

    def test_constant_field_stays_constant(self):
        # odd N: a constant along the axis solves to the same constant
        f = FieldND(np.full((5, 3), 2.5))
        out, _ = to_edges_along(f, 0, 7, "unique")
        assert np.array_equal(out.values, np.full((5, 3), 2.5))

    def test_lines_are_independent(self):
        rng = np.random.default_rng(7)
        f = FieldND(rng.normal(size=(5, 4)))
        out, _ = to_edges_along(f, 0, 7, "unique")
        for j in range(4):
            col = FieldND(f.values[:, j:j + 1])
            ref, _ = to_edges_along(col, 0, 7, "unique")
            assert np.array_equal(out.values[:, j], ref.values[:, 0])

    def test_1d_field(self):
        f = FieldND(np.array([1.0, 2.0, 3.0]))
        out, summary = to_edges_along(f, 0, 5, "unique")
        assert np.allclose(out.values, [2.0, 0.0, 4.0])
        assert summary.n_lines == 1

    def test_3d_round_trip(self):
        rng = np.random.default_rng(11)
        edges = rng.normal(size=(4, 5, 3))
        staggered = FieldND(edges, staggered_axis=1)
        centered, _ = to_centers_along(staggered, 1)
        assert centered.staggered_axis is None
        back, summary = to_edges_along(centered, 1, 7, "unique")
        assert summary.unique_lines == 12
        assert np.max(np.abs(back.values - edges)) <= 1e-12

    def test_inconsistent_line_coordinates(self):
        vals = np.tile(np.array([[1.0], [2.0], [3.0], [2.0]]), (1, 3))
        vals[3, 2] = 5.0  # break only the last column
        f = FieldND(vals)
        with pytest.raises(InconsistentDataError) as info:
            to_edges_along(f, 0, 6, "min-norm")
        assert info.value.line_coords == (2,)
        assert info.value.residual == pytest.approx(6.0)

    def test_inconsistent_line_coordinates_3d(self):
        vals = np.zeros((2, 4, 3))
        vals[:, :, :] = np.array([1.0, 2.0, 3.0, 2.0])[None, :, None]
        vals[1, 3, 2] = 5.0
        with pytest.raises(InconsistentDataError) as info:
            to_edges_along(FieldND(vals), 1, 6, "min-norm")
        assert info.value.line_coords == (1, 2)

    def test_rejects_staggered_input(self):
        f = FieldND(np.zeros((3, 3)), staggered_axis=0)
        with pytest.raises(ParityError):
            to_edges_along(f, 1, 5, "unique")

    def test_strategy_parity_gate(self):
        f5 = FieldND(np.zeros((3, 2)))
        with pytest.raises(ParityError):
            to_edges_along(f5, 0, 5, "min-norm")
        with pytest.raises(ParityError):
            to_edges_along(f5, 0, 5, "pin", pin_index=1, pin_value=0.0)
        f6 = FieldND(np.zeros((4, 2)))
        with pytest.raises(ParityError):
            to_edges_along(f6, 0, 6, "unique")

    def test_extent_must_match(self):
        f = FieldND(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            to_edges_along(f, 0, 7, "unique")

    def test_axis_validation(self):
        f = FieldND(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            to_edges_along(f, 2, 5, "unique")
        with pytest.raises(ValueError):
            to_edges_along(f, -1, 5, "unique")
        with pytest.raises(ValueError):
            to_edges_along(f, np.True_, 5, "unique")

    def test_numpy_integer_axis_and_size(self):
        f = FieldND(np.tile(np.array([[1.0], [2.0], [3.0]]), (1, 2)))
        out, summary = to_edges_along(f, np.int64(0), np.int64(5), "unique")
        assert out.staggered_axis == 0 and type(out.staggered_axis) is int
        assert np.allclose(out.values[:, 0], [2.0, 0.0, 4.0])
        back, _ = to_centers_along(out, np.int64(0))
        assert np.allclose(back.values, f.values)

    def test_overflow_is_reported_as_such(self):
        f = FieldND(np.array([[1.7e308, -1.7e308, 1.7e308]] * 2))
        with pytest.raises(ValueError, match="overflow float64"):
            to_edges_along(f, 1, 5, "unique")
        # the min-norm edges of these consistent centers fit: (1.7e308, ...)
        out, _ = to_edges_along(FieldND(np.full((2, 4), 1.7e308)), 1, 6, "min-norm")
        for line in out.values:
            assert_within_ulps(line, exact_min_norm([1.7e308] * 4), 4)
        big = FieldND(np.full((2, 3), 1.7e308), staggered_axis=0)
        assert np.array_equal(to_centers_along(big, 0)[0].values, big.values)

    @pytest.mark.parametrize("strategy, pin", [("min-norm", {}),
                                               ("pin", {"pin_index": 2, "pin_value": -1.7e308})])
    def test_overflow_raises_no_warning(self, strategy, pin):
        # edges that overflow must raise ValueError without a numpy warning
        for centers in ([1e308, 1e308, -1e308, -1e308], [0.85e308, 0.0, 0.0, 0.85e308]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                if strategy == "min-norm" and centers[1] == 0.0:
                    # (1.275e308, 0.425e308, -0.425e308, 0.425e308) fits: no overflow
                    out, _ = to_edges_along(FieldND(np.array(centers)), 0, 6, strategy)
                    assert_within_ulps(out.values, exact_min_norm(centers), 4)
                    continue
                with pytest.raises(ValueError, match="overflow float64"):
                    to_edges_along(FieldND(np.array(centers)), 0, 6, strategy, **pin)

    def test_unknown_strategy(self):
        f = FieldND(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            to_edges_along(f, 0, 5, "least-squares")

    def test_pin_flag_rules(self):
        f = FieldND(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            to_edges_along(f, 0, 6, "pin")
        with pytest.raises(ValueError):
            to_edges_along(f, 0, 6, "pin", pin_index=9, pin_value=0.0)
        with pytest.raises(ValueError):
            to_edges_along(f, 0, 6, "min-norm", pin_index=1, pin_value=0.0)
        f5 = FieldND(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            to_edges_along(f5, 0, 5, "unique", pin_index=1)

    def test_pin_index_must_be_an_int(self):
        f = FieldND(np.tile(np.array([[1.0], [2.0], [3.0], [2.0]]), (1, 2)))
        for bad in (2.5, "2"):
            with pytest.raises(ValueError, match="pin index"):
                to_edges_along(f, 0, 6, "pin", pin_index=bad, pin_value=1.0)
        out, _ = to_edges_along(f, 0, 6, "pin", pin_index=np.int64(2), pin_value=2.0)
        assert np.array_equal(out.values[:, 1], [0.0, 2.0, 2.0, 4.0])

    @pytest.mark.parametrize("tolerance", [None, "tight"])
    def test_tolerance_must_be_a_number(self, tolerance):
        for n_edges, strategy in ((5, "unique"), (6, "min-norm")):
            f = FieldND(np.ones((n_edges - 2, 2)))
            with pytest.raises(ValueError, match="^tolerance must be a finite"):
                to_edges_along(f, 0, n_edges, strategy, tolerance=tolerance)

    def test_unique_near_the_float64_limit(self):
        # 2 P_k = 3.4e308 would overflow, yet every edge is representable
        out, _ = to_edges_along(FieldND(np.full((2, 3), 1.7e308)), 1, 5, "unique")
        assert out.values.tolist() == [[1.7e308] * 3] * 2

    def test_even_completions_near_the_float64_limit(self):
        # the e_1 = 0 particular (0, 2e308, 0, 2e308) overflows; min-norm and pin do not
        centers = [1e308] * 4
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out, _ = to_edges_along(FieldND(np.array(centers)), 0, 6, "min-norm")
            pinned = complete_pinned(CenterField1D(PeriodicStagger1D(6), centers), 1, 1e308)
        assert out.values.tolist() == pinned.values.tolist() == [1e308] * 4

    @pytest.mark.parametrize("strategy, pin", [("min-norm", {}),
                                               ("pin", {"pin_index": 3, "pin_value": 0.25})])
    def test_even_lines_are_independent(self, strategy, pin):
        # each line of an N-D field gets the bits it gets alone, on any axis
        rng = np.random.default_rng(5)
        for shape, axis in (((6, 4, 3), 0), ((3, 6, 4), 1), ((3, 4, 6), 2)):
            planted = FieldND(1e3 + rng.normal(size=shape), staggered_axis=axis)
            centers, _ = to_centers_along(planted, axis)
            out, _ = to_edges_along(centers, axis, 8, strategy, **pin)
            for got, line in zip(field_lines(out.values, axis), field_lines(centers.values, axis)):
                alone, _ = to_edges_along(FieldND(line), 0, 8, strategy, **pin)
                assert got.tobytes() == alone.values.tobytes()


@pytest.mark.parametrize("shape, axis", [((9, 6), 1), ((6, 9), 0), ((3, 4, 6), 2),
                                         ((3, 6, 4), 1), ((6, 3, 4), 0)])
@pytest.mark.parametrize("strategy", ["unique", "min-norm", "pin", "centers"])
def test_kernel_output_is_a_new_checked_field(shape, axis, strategy):
    """Results skip the constructor, yet hold what it would have made of them."""
    rng = np.random.default_rng(7)
    planted = rng.normal(size=shape[:axis] + (shape[axis] - (strategy == "unique"),)
                         + shape[axis + 1:])
    m = planted.shape[axis]
    if strategy == "centers":
        field, want_axis = FieldND(planted, staggered_axis=axis), None
        result, _ = to_centers_along(field, axis)
    else:
        field, want_axis = to_centers_along(FieldND(planted, staggered_axis=axis), axis)[0], axis
        pin = {"pin_index": 2, "pin_value": 0.5} if strategy == "pin" else {}
        result, _ = to_edges_along(field, axis, m + 2, strategy, **pin)
    assert type(result) is FieldND and result.staggered_axis == want_axis
    assert result.values.dtype == np.float64 and result.shape == field.shape
    assert np.all(np.isfinite(result.values))
    assert not np.shares_memory(result.values, field.values)
    rebuilt = FieldND(result.values, staggered_axis=want_axis)
    assert np.array_equal(rebuilt.values, result.values)


class TestSharedErrorContract:
    """complete_pinned and to_edges_along(..., "pin") go through one gate."""

    @staticmethod
    def both(ints, exact):
        grid = PeriodicStagger1D(len(ints) + 2)
        c = CenterField1D(grid, np.array([Fraction(v) for v in ints], dtype=object)
                          if exact else [float(v) for v in ints])
        return c, FieldND(np.array(ints, dtype=np.float64))

    @pytest.mark.parametrize("exact", [False, True])
    def test_odd_n_is_a_parity_error(self, exact):
        c, f = self.both([1, 2, 3], exact)
        with pytest.raises(ParityError) as one:
            complete_pinned(c, 1, 0.0)
        with pytest.raises(ParityError) as nd:
            to_edges_along(f, 0, 5, "pin", pin_index=1, pin_value=0.0)
        assert str(one.value) == str(nd.value)
        # without pin flags it is still the parity error
        with pytest.raises(ParityError):
            complete_pinned(c, None, None)
        with pytest.raises(ParityError):
            to_edges_along(f, 0, 5, "pin")

    @pytest.mark.parametrize("exact", [False, True])
    def test_inconsistent_data(self, exact):
        c, f = self.both([1, 2, 3, 5], exact)
        with pytest.raises(InconsistentDataError) as one:
            complete_pinned(c, 1, 0.0)
        with pytest.raises(InconsistentDataError) as nd:
            to_edges_along(f, 0, 6, "pin", pin_index=1, pin_value=0.0)
        assert type(one.value.residual) is (Fraction if exact else float)
        assert type(nd.value.residual) is float
        assert one.value.residual == nd.value.residual == 6
        assert one.value.line_coords == nd.value.line_coords == (0,)
        message = "line (0,) admits no edge solution (residual {}, tolerance 1e-10)"
        assert str(one.value) == message.format(Fraction(6) if exact else 6.0)
        assert str(nd.value) == message.format(6.0)

    def test_first_failing_line_is_named(self):
        vals = np.tile(np.array([[1.0], [2.0], [3.0], [2.0]]), (1, 3))
        vals[3, 1:] = 5.0
        with pytest.raises(InconsistentDataError) as info:
            to_edges_along(FieldND(vals), 0, 6, "pin", pin_index=1, pin_value=0.0)
        assert info.value.line_coords == (1,)
        assert type(info.value.residual) is float and info.value.residual == 6.0


class TestToCenters:
    def test_averages_with_wrap(self):
        f = FieldND(np.array([[1.0], [3.0], [5.0], [7.0]]), staggered_axis=0)
        out, summary = to_centers_along(f, 0)
        assert out.staggered_axis is None
        assert np.allclose(out.values[:, 0], [2.0, 4.0, 6.0, 4.0])
        assert summary.n_lines == 1

    def test_n5_line_example(self):
        f = FieldND(np.array([2.0, 0.0, 4.0]), staggered_axis=0)
        out, _ = to_centers_along(f, 0)
        assert np.array_equal(out.values, [1.0, 2.0, 3.0])

    def test_constant_line_stays_constant(self):
        f = FieldND(np.full(6, 3.25), staggered_axis=0)
        out, _ = to_centers_along(f, 0)
        assert np.array_equal(out.values, np.full(6, 3.25))

    def test_any_parity_allowed(self):
        f = FieldND(np.ones((3, 2)), staggered_axis=0)
        out, _ = to_centers_along(f, 0)
        assert np.allclose(out.values, 1.0)

    def test_requires_matching_staggered_axis(self):
        f = FieldND(np.zeros((3, 3)), staggered_axis=0)
        with pytest.raises(ParityError):
            to_centers_along(f, 1)
        with pytest.raises(ParityError):
            to_centers_along(FieldND(np.zeros((3, 3))), 0)

    def test_axis_validation(self):
        f = FieldND(np.zeros((3, 3)), staggered_axis=0)
        with pytest.raises(ValueError):
            to_centers_along(f, 5)


@given(st.integers(min_value=1, max_value=30), st.integers(min_value=1, max_value=6),
       st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_nd_round_trip_property(half, n_other, seed):
    """edges -> centers -> edges is the identity on odd grids, line by line."""
    m = 2 * half + 1
    rng = np.random.default_rng(seed)
    edges = rng.normal(size=(n_other, m))
    staggered = FieldND(edges, staggered_axis=1)
    centered, _ = to_centers_along(staggered, 1)
    back, _ = to_edges_along(centered, 1, m + 2, "unique")
    scale = max(1.0, float(np.max(np.abs(edges))))
    assert np.max(np.abs(back.values - edges)) <= 1e-12 * scale


# -- the batched kernel against the per-line 1-D API and the dense oracle ----

@st.composite
def nd_cases(draw, max_m=20):
    """(shape, axis, strategy, pin_index) over 1-D to 3-D shapes, every axis."""
    ndim = draw(st.integers(1, 3))
    axis = draw(st.integers(0, ndim - 1))
    m = draw(st.integers(1, max_m))
    shape = [draw(st.integers(1, 4)) for _ in range(ndim)]
    shape[axis] = m
    strategy = "unique" if m % 2 else draw(st.sampled_from(["min-norm", "pin"]))
    pin_index = draw(st.integers(1, m)) if strategy == "pin" else None
    return tuple(shape), axis, strategy, pin_index


def field_lines(values, axis):
    """Each line along ``axis``, in C order over the other axes."""
    return np.moveaxis(values, axis, -1).reshape(-1, values.shape[axis])


def solve_line_1d(line, strategy, pin_index, pin_value, tolerance=DEFAULT_TOLERANCE):
    outcome = edges_from_centers(CenterField1D(PeriodicStagger1D(line.size + 2), line), tolerance)
    if strategy == "unique":
        return outcome.edges.values
    if strategy == "min-norm":
        return complete_min_norm(outcome).values
    return outcome.pinned(pin_index, pin_value).values


@given(nd_cases(), st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_batched_matches_per_line_1d(case, seed):
    shape, axis, strategy, pin_index = case
    m = shape[axis]
    rng = np.random.default_rng(seed)
    pin_value = float(rng.normal()) if strategy == "pin" else None
    centers, _ = to_centers_along(FieldND(rng.normal(size=shape), staggered_axis=axis), axis)
    out, summary = to_edges_along(centers, axis, m + 2, strategy,
                                  pin_index=pin_index, pin_value=pin_value)
    lines = field_lines(centers.values, axis)
    assert summary.n_lines == lines.shape[0]
    assert summary.unique_lines + summary.family_lines == summary.n_lines
    assert summary.unique_lines == (summary.n_lines if m % 2 else 0)
    residuals = [abs(2 * alternating_residual(CenterField1D(PeriodicStagger1D(m + 2), line)))
                 for line in lines]
    assert summary.max_residual == (0.0 if m % 2 else max(residuals))
    for got, line in zip(field_lines(out.values, axis), lines):
        # one answer per line: equal bits, but for the sign of an exact zero
        assert np.array_equal(got, solve_line_1d(line, strategy, pin_index, pin_value))


@given(nd_cases(max_m=12), st.integers(0, 2**31 - 1))
@settings(max_examples=40, deadline=None)
def test_batched_matches_dense_oracle(case, seed):
    shape, axis, strategy, pin_index = case
    assert shape[axis] <= MAX_ORACLE_UNKNOWNS
    m = shape[axis]
    rng = np.random.default_rng(seed)
    # eighths: the centers are exact in float64, so even-M data is exactly consistent
    planted = rng.integers(-64, 65, size=shape) / 8.0
    pin_value = float(rng.integers(-64, 65)) / 8.0 if strategy == "pin" else None
    centers, _ = to_centers_along(FieldND(planted, staggered_axis=axis), axis)
    out, _ = to_edges_along(centers, axis, m + 2, strategy,
                            pin_index=pin_index, pin_value=pin_value)
    for got, line in zip(field_lines(out.values, axis), field_lines(centers.values, axis)):
        dense = solve_dense(build_system(CenterField1D(PeriodicStagger1D(m + 2), line)))
        if strategy == "unique":
            assert isinstance(dense, Unique)
            want = list(dense.edges.values)
        else:
            assert isinstance(dense, Family)
            p, n = list(dense.particular.values), list(dense.null_direction)
            if strategy == "min-norm":
                t = -sum(a * b for a, b in zip(p, n)) / m
            else:
                t = (Fraction(pin_value) - p[pin_index - 1]) / n[pin_index - 1]
            want = [a + t * b for a, b in zip(p, n)]
        want = np.array([float(v) for v in want])
        assert np.max(np.abs(got - want)) <= 16 * m * EPS * max(1.0, np.max(np.abs(want)))


@given(st.integers(1, 8), st.integers(-900, 1020), st.integers(0, 2**31 - 1))
@settings(max_examples=80, deadline=None)
def test_min_norm_fits_wherever_its_edges_fit(half, k, seed):
    """Consistent even-N centers scaled by 2^k, near either end of float64: the
    gate's and the family's min-norm edges are finite whenever the exact ones
    fit, and the e_1 = 0 particular, when read, overflows only where its exact
    values do."""
    m = 2 * half
    grid = PeriodicStagger1D(m + 2)
    big = Fraction(np.finfo(np.float64).max)
    planted = np.random.default_rng(seed).integers(-127, 128, size=m) / 8.0 * 2.0**k
    # dyadic data: the averages are exact, so S == 0 exactly
    c = planted / 2 + np.roll(planted, -1) / 2
    exact_c = CenterField1D(grid, np.array([Fraction(v) for v in c], dtype=object))
    dense = solve_dense(build_system(exact_c))
    p, n = list(dense.particular.values), list(dense.null_direction)
    t = -sum(a * b for a, b in zip(p, n)) / m
    exact = [a + t * b for a, b in zip(p, n)]
    exact_family = edges_from_centers(exact_c)
    # exact mode: the same Fractions, untouched by any prescale
    got = complete_min_norm(exact_family).values.tolist()
    assert got == exact and all(type(v) is Fraction for v in got)

    family = edges_from_centers(CenterField1D(grid, c))
    if max(abs(v) for v in exact_family.particular.values) <= big:
        assert np.all(np.isfinite(family.particular.values))
    else:
        with pytest.raises(ValueError, match="overflow float64"):
            family.particular
    routes = [lambda: to_edges_along(FieldND(c), 0, m + 2, "min-norm")[0].values,
              lambda: complete_min_norm(family).values]
    fits = max(abs(v) for v in exact) <= big
    for route in routes:
        if fits:
            got, want = route(), np.array([float(v) for v in exact])
            assert np.all(np.isfinite(got))
            assert np.max(np.abs(got - want)) <= 8 * m * EPS * np.max(np.abs(want))
        else:
            with pytest.raises(ValueError, match="overflow float64"):
                route()


@given(nd_cases(), st.data())
@settings(max_examples=60, deadline=None)
def test_first_inconsistent_line_in_c_order(case, data):
    shape, axis, _, _ = case
    m = shape[axis]
    if m % 2:
        shape = shape[:axis] + (m + 1,) + shape[axis + 1:]
        m += 1
    other = shape[:axis] + shape[axis + 1:]
    n_lines = int(np.prod(other))
    broken = data.draw(st.sets(st.integers(0, n_lines - 1), min_size=1, max_size=n_lines))
    centers = np.ones(shape)
    moved = np.moveaxis(centers, axis, -1)          # a view: writes reach ``centers``
    for k in broken:
        moved[np.unravel_index(k, other) if other else ()][m - 1] += 1.0
    with pytest.raises(InconsistentDataError) as info:
        to_edges_along(FieldND(centers), axis, m + 2, "min-norm")
    first = min(broken)
    assert info.value.line_coords == tuple(int(x) for x in np.unravel_index(first, other or (1,)))
    assert info.value.residual == 2.0


@pytest.mark.parametrize("strategy", ["unique", "min-norm", "pin"])
def test_lines_at_the_subnormal_scale_get_the_1d_bits(strategy):
    """Fields of edges up to 2^-1022 in magnitude, where halving e_1, the min-norm
    mean or a pin value can round: each line gets bit for bit the edges the 1-D
    API gives it alone, on the row path and off it, from the gate's one e_1 rule
    and one telescope."""
    rng = np.random.default_rng(1022)
    for n_lines in (3, kernel._ROWWISE_MIN_LINES):
        for m in (range(1, 14, 2) if strategy == "unique" else range(2, 15, 2)):
            planted = rng.uniform(-1.0, 1.0, (n_lines, m)) * 2.0**-1022
            centers = kernel.average_lines(planted) if m % 2 == 0 else planted
            pin = ((int(rng.integers(1, m + 1)), float(rng.integers(-9, 10) | 1) * 2.0**-1074)
                   if strategy == "pin" else (None, None))
            edges, _ = to_edges_along(FieldND(centers), 1, m + 2, strategy, DEFAULT_TOLERANCE, *pin)
            for got, line in zip(edges.values, centers):
                assert got.tobytes() == solve_line_1d(line, strategy, *pin).tobytes()
                if strategy == "pin":
                    c = CenterField1D(PeriodicStagger1D(m + 2), line)
                    assert got.tobytes() == complete_pinned(c, *pin).values.tobytes()


# -- many short lines: P summed one row add per position ------------------------
# From kernel._ROWWISE_MIN_LINES lines of at most kernel._ROWWISE_MAX_LENGTH
# values on, solve_lines lays its partial sums out position-outermost and adds
# row to row instead of running np.cumsum per line.  Both add in the same
# order, so every output and error is the same.


def bits(x):
    """Comparable bits of a field, an array, or anything else as it is."""
    if isinstance(x, FieldND):
        return bits(x.values), x.staggered_axis
    if isinstance(x, np.ndarray):
        return x.dtype, x.shape, x.tobytes()
    return x


def both_paths(call):
    """What ``call`` returns on the row-wise path and on the per-line cumsum
    path, as the bits of each item, or its error's type, message and
    ``line_coords``."""
    results = []
    for threshold in (0, 2**62):
        with mock.patch.object(kernel, "_ROWWISE_MIN_LINES", threshold):
            try:
                results.append([bits(x) for x in call()])
            except ValueError as exc:
                results.append((type(exc), str(exc), getattr(exc, "line_coords", None)))
    return results


@pytest.mark.parametrize("strategy, m", [("unique", 7), ("min-norm", 8), ("pin", 8)])
@pytest.mark.parametrize("shape_of_lines", [(0,), (4, 0), (0, 3)])
def test_fields_of_zero_lines_on_both_paths(strategy, m, shape_of_lines):
    pin = (2, 1.0) if strategy == "pin" else (None, None)
    field = FieldND(np.zeros(shape_of_lines + (m,)))
    row, line = both_paths(lambda: to_edges_along(field, field.values.ndim - 1, m + 2,
                                                  strategy, DEFAULT_TOLERANCE, *pin))
    assert row == line
    ((_, shape, _), _), summary = row
    assert shape == field.shape and summary.n_lines == 0
    staggered = FieldND(np.zeros((m,) + shape_of_lines), staggered_axis=0)
    row, line = both_paths(lambda: to_centers_along(staggered, 0))
    assert row == line
    ((_, shape, _), _), summary = row
    assert shape == staggered.shape and summary.n_lines == 0


@pytest.mark.parametrize("m", [7, 8, kernel._ROWWISE_MAX_LENGTH, kernel._ROWWISE_MAX_LENGTH + 1])
def test_many_short_lines_select_the_row_path(m):
    # otherwise lines along the last axis keep their C layout in P
    short = m <= kernel._ROWWISE_MAX_LENGTH
    for n_lines, rowwise in ((kernel._ROWWISE_MIN_LINES - 1, False),
                             (kernel._ROWWISE_MIN_LINES, short)):
        for shape in ((n_lines, m), (n_lines, 1, m)):
            partial = kernel.solve_lines(np.ones(shape))[0]
            assert partial.shape == shape
            assert np.moveaxis(partial, -1, 0).flags.c_contiguous == rowwise
            assert partial.flags.c_contiguous != rowwise


@pytest.mark.parametrize("strategy, m", [("unique", 7), ("min-norm", 8), ("pin", 8)])
@pytest.mark.parametrize("axis", [0, 1])
def test_signed_zeros_on_both_paths(strategy, m, axis):
    # every term of S is -0.0, which np.sum's +0.0 accumulator turns to +0.0
    lines = np.zeros((kernel._ROWWISE_MIN_LINES, m))
    lines[:, (m + 1) % 2::2] = -0.0
    field = FieldND(np.moveaxis(lines, -1, axis).copy())
    pin = (3, 0.0) if strategy == "pin" else (None, None)
    row, line = both_paths(lambda: kernel.solve_lines(np.moveaxis(field.values, axis, -1)))
    assert row == line
    row, line = both_paths(lambda: to_edges_along(field, axis, m + 2, strategy,
                                                  DEFAULT_TOLERANCE, *pin))
    assert row == line and not isinstance(row, tuple)


@st.composite
def many_line_fields(draw):
    """A 2-D or 3-D field of at least ``_ROWWISE_MIN_LINES`` short lines along a
    drawn axis, of values up to a drawn bound (from the subnormals to the
    float64 limit), random, averaged from random edges (consistent even lines)
    or averaged with one line broken; and the completion arguments to try."""
    threshold = kernel._ROWWISE_MIN_LINES
    n_lines = draw(st.sampled_from([threshold, threshold + 1, 3 * threshold // 2]))
    ndim = draw(st.integers(2, 3))
    axis = draw(st.integers(0, ndim - 1))
    m = draw(st.one_of(st.integers(1, 12), st.sampled_from([kernel._ROWWISE_MAX_LENGTH - 1,
                                                             kernel._ROWWISE_MAX_LENGTH])))
    if ndim == 2:
        other = [n_lines]
    else:
        split = draw(st.sampled_from([d for d in range(1, n_lines + 1) if n_lines % d == 0]))
        other = [split, n_lines // split]
    shape = tuple(other[:axis] + [m] + other[axis:])
    bound = draw(st.sampled_from([2.0**-1022, 1.0, 1e10, 1e300, 8.9e307,
                                  float(np.finfo(np.float64).max)]))
    rng = np.random.default_rng(draw(st.integers(0, 2**31 - 1)))
    values = rng.uniform(-1.0, 1.0, shape) * bound
    kind = draw(st.sampled_from(["random", "consistent", "one broken"]))
    if kind != "random":
        values = np.moveaxis(kernel.average_lines(np.moveaxis(values, axis, -1)), -1, axis)
    if kind == "one broken":
        lines = np.moveaxis(values, axis, -1)   # a view: writes reach ``values``
        k = draw(st.integers(0, n_lines - 1))
        lines[np.unravel_index(k, lines.shape[:-1])][-1] = bound / 2
    pin_index = draw(st.integers(1, m))
    pin_value = draw(st.floats(-1.0, 1.0)) * bound
    return FieldND(values), axis, m, pin_index, pin_value


@given(many_line_fields(), st.sampled_from([0.0, 1e-10, 1.0]), st.data())
@settings(max_examples=150, deadline=None)
def test_many_lines_take_the_row_path_bit_for_bit(case, tolerance, data):
    """Every strategy gives the same edge bits, summary and error (type,
    message, line_coords) whether P is summed row-wise or line by line, and
    so do P, S, the residuals and each line's consistency flag.  A few lines
    solved alone through the 1-D API give their edges too."""
    field, axis, m, pin_index, pin_value = case
    row, line = both_paths(lambda: kernel.solve_lines(np.moveaxis(field.values, axis, -1),
                                                      tolerance))
    assert row == line
    centers = field_lines(field.values, axis)
    sampled = data.draw(st.lists(st.integers(0, len(centers) - 1), min_size=1, max_size=3))
    for strategy, pin in (("unique", (None, None)), ("min-norm", (None, None)),
                          ("pin", (pin_index, pin_value))):
        row, line = both_paths(lambda: to_edges_along(field, axis, m + 2, strategy,
                                                      tolerance, *pin))
        assert row == line
        if isinstance(row, tuple):   # the same error on both paths
            continue
        edges = field_lines(to_edges_along(field, axis, m + 2, strategy, tolerance, *pin)[0]
                            .values, axis)
        for k in sampled:
            want = solve_line_1d(centers[k], strategy, *pin, tolerance)
            assert edges[k].tobytes() == want.tobytes()
