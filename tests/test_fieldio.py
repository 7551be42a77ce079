"""Tests for the plain-text field file format."""

import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from staggrid import FieldFormatError, FieldND, fieldio, read_field, write_field


def roundtrip(tmp_path, field):
    path = tmp_path / "field.txt"
    write_field(path, field)
    return read_field(path)


class TestRoundTrip:
    def test_values_survive_exactly(self, tmp_path):
        rng = np.random.default_rng(3)
        vals = rng.normal(size=(4, 3)) * 10.0 ** rng.integers(-12, 12, size=(4, 3))
        vals[0, 0] = 0.0
        vals[1, 1] = -0.0
        vals[2, 2] = 1e-300
        f = FieldND(vals)
        r = roundtrip(tmp_path, f)
        assert r.values.shape == (4, 3)
        # bitwise equality, not approximate
        assert np.array_equal(r.values, vals)
        assert r.staggered_axis is None

    def test_staggered_axis_survives(self, tmp_path):
        f = FieldND(np.ones((2, 5)), staggered_axis=1)
        assert roundtrip(tmp_path, f).staggered_axis == 1

    def test_1d(self, tmp_path):
        f = FieldND(np.array([1.5, -2.25]))
        r = roundtrip(tmp_path, f)
        assert r.values.ndim == 1
        assert np.array_equal(r.values, [1.5, -2.25])

    def test_3d_order(self, tmp_path):
        vals = np.arange(24, dtype=np.float64).reshape(2, 3, 4)
        r = roundtrip(tmp_path, FieldND(vals))
        assert np.array_equal(r.values, vals)

    def test_written_bytes_are_stable(self, tmp_path):
        path = tmp_path / "stable.txt"
        write_field(path, FieldND(np.array([[1.0, 0.5], [-3.0, 2.0]]), staggered_axis=0))
        expected = ("staggrid-field 1\nndim 2\nshape 2 2\nstaggered-axis 0\n"
                    "count 4\n1.0\n0.5\n-3.0\n2.0\n")
        assert path.read_text() == expected

    def test_each_value_line_is_repr_of_its_float(self, tmp_path):
        special = [-0.0, 5e-324, 1.7e308, 3.0, 1e16, -1e-5]
        bits = np.random.default_rng(17).integers(0, 2**64, size=11000, dtype=np.uint64)
        drawn = bits.view(np.float64)
        vals = np.concatenate([special, drawn[np.isfinite(drawn)][:10**4]])
        assert vals.size == len(special) + 10**4
        path = tmp_path / "values.txt"
        write_field(path, FieldND(vals))
        lines = path.read_text().split("\n")
        assert lines[-1] == "" and lines[-2] != ""   # one final newline
        assert lines[5:-1] == [repr(float(v)) for v in vals]

    def test_empty_field_bytes(self, tmp_path):
        path = tmp_path / "empty.txt"
        write_field(path, FieldND(np.zeros((5, 0))))
        assert path.read_bytes() == (b"staggrid-field 1\nndim 2\nshape 5 0\n"
                                     b"staggered-axis none\ncount 0\n")

    @pytest.mark.parametrize("shape, axis", [((5, 0), None), ((5, 0), 0), ((0, 3), None),
                                             ((0, 3), 1)])
    def test_empty_fields_read_back(self, tmp_path, shape, axis):
        r = roundtrip(tmp_path, FieldND(np.zeros(shape), staggered_axis=axis))
        assert r.values.shape == shape and r.staggered_axis == axis


def random_bits(n, seed):
    """``n`` finite float64 values drawn from random bit patterns."""
    drawn = np.random.default_rng(seed).integers(0, 2**64, size=2 * n + 64,
                                                 dtype=np.uint64).view(np.float64)
    return drawn[np.isfinite(drawn)][:n]


def reference_text(field):
    """What write_field wrote when it joined one string per value."""
    v = field.values
    lines = ["staggrid-field 1", f"ndim {v.ndim}", "shape " + " ".join(str(n) for n in v.shape),
             "staggered-axis " + ("none" if field.staggered_axis is None
                                  else str(field.staggered_axis)),
             f"count {v.size}"]
    lines.extend(map(repr, v.ravel(order="C").tolist()))
    return "\n".join(lines) + "\n"


class TestBlockedWrite:
    """write_field formats _BLOCK values at a time, with the same bytes as one
    string per value."""

    @pytest.mark.parametrize("n", [0, 1, *(k * fieldio._BLOCK + d for k in (1, 2)
                                           for d in (-1, 0, 1)), 4 * fieldio._BLOCK + 1])
    def test_bytes_at_block_edges(self, tmp_path, n):
        field = FieldND(random_bits(n, n))
        path = tmp_path / "f.txt"
        write_field(path, field)
        assert path.read_text() == reference_text(field)

    def test_bytes_of_a_field_not_in_c_order(self, tmp_path):
        # a moved axis keeps its strides: the blocks are read in C order
        field = FieldND(np.moveaxis(random_bits(3 * 5000, 5).reshape(5000, 3), 0, -1),
                        staggered_axis=1)
        assert not field.values.flags.c_contiguous
        path = tmp_path / "f.txt"
        write_field(path, field)
        assert path.read_text() == reference_text(field)
        assert np.array_equal(read_field(path).values, field.values)


def repr_lines(values):
    """One ``repr(float(v))`` line per value: what _format_block must write."""
    return "".join(repr(v) + "\n" for v in np.asarray(values, dtype=np.float64).tolist())


def with_neighbours(x, n=3):
    """The positive normal floats ``x``, the n floats on either side of each, and
    all of their negatives."""
    bits = np.asarray(x, dtype=np.float64).view(np.int64)[:, None] + np.arange(-n, n + 1)
    v = bits.ravel().view(np.float64)
    return np.concatenate([v, -v])


def certified(values):
    """Which values _format_block writes itself, not through repr."""
    return fieldio._shortest(np.abs(np.asarray(values, dtype=np.float64)))[3]


def short_decimals(n, seed):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=n) * 10.0 ** rng.integers(-4, 16, size=n)
    return np.array([round(v, d) for v, d in zip(x.tolist(), rng.integers(0, 8, size=n).tolist())])


def log_uniform(n, seed):
    rng = np.random.default_rng(seed)
    return np.exp(rng.uniform(math.log(1e-6), math.log(1e17), n)) * rng.choice([-1.0, 1.0], n)


class TestVectorFormat:
    """_format_block writes the bytes of repr, and certifies most values itself;
    repr writes those it cannot certify."""

    @pytest.mark.parametrize("values", [
        pytest.param(lambda: random_bits(200_000, 31), id="random-bits"),
        pytest.param(lambda: np.random.default_rng(32).normal(size=50_000), id="normal"),
        pytest.param(lambda: np.random.default_rng(33).normal(size=50_000) + 1e6, id="offset-1e6"),
        pytest.param(lambda: log_uniform(100_000, 34), id="log-uniform-1e-6-1e17"),
        pytest.param(lambda: short_decimals(50_000, 35), id="short-decimals"),
        pytest.param(lambda: np.concatenate([[0.0, -0.0],
                                             with_neighbours(2.0 ** np.arange(-30, 61))]),
                     id="powers-of-two"),
        pytest.param(lambda: with_neighbours(10.0 ** np.arange(-6, 18)), id="powers-of-ten"),
        # where an end of a value's rounding interval, times 10**k, is an integer
        pytest.param(lambda: np.random.default_rng(38).integers(
            np.float64(2.0**52).view(np.int64), np.float64(1e16).view(np.int64), 50_000,
        ).view(np.float64), id="2**52-to-1e16"),
        pytest.param(lambda: np.concatenate([with_neighbours([1e-4, 1e16], 40), [
            5e-324, -5e-324, 1e-323, 2.2250738585072009e-308, -2.2250738585072014e-308,
            1.7976931348623157e308, -1.7976931348623157e308]]), id="range-ends-subnormal-max"),
    ])
    def test_bytes_are_those_of_repr(self, values):
        values = values()
        assert fieldio._format_block(values) == repr_lines(values)

    def test_a_block_that_repr_writes_whole(self):
        values = np.array([0.0, -0.0, 1.0, -0.5, 2.0**40, 9.99e-5, -1e16, 3e200, 5e-324])
        assert not certified(values).any()
        assert fieldio._format_block(values) == repr_lines(values)

    def test_a_mixed_block(self):
        values = np.random.default_rng(36).normal(size=1000)
        values[::7], values[3::7], values[5::7] = 0.0, -4.0, 1e300
        ok = certified(values)
        assert not ok[::7].any() and not ok[3::7].any() and not ok[5::7].any()
        assert ok.sum() > 500
        assert fieldio._format_block(values) == repr_lines(values)

    def test_most_values_are_certified(self):
        # a formatter that left every value to repr would write the same bytes
        ok = certified(np.random.default_rng(37).normal(size=10**5))
        assert ok.mean() >= 0.999

    @given(hnp.arrays(np.float64, st.integers(0, 40), elements=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        # and more often where the values are certified
        st.builds(lambda v, sign: sign * v, st.floats(1e-4, 1e16, exclude_max=True),
                  st.sampled_from([1.0, -1.0])))))
    @settings(max_examples=300, deadline=None)
    def test_any_finite_floats(self, values):
        assert fieldio._format_block(values) == repr_lines(values)


HEADER = "staggrid-field 1\nndim 1\nshape {0}\nstaggered-axis none\ncount {0}\n"


class TestWindowedRead:
    """read_field parses the body a window of lines at a time."""

    @pytest.fixture(autouse=True)
    def small_window(self, monkeypatch):
        monkeypatch.setattr(fieldio, "_WINDOW", 64)

    def test_random_bits_survive_exactly(self, tmp_path):
        vals = random_bits(10**4, 23)
        r = roundtrip(tmp_path, FieldND(vals))
        assert r.values.tobytes() == vals.tobytes()

    @pytest.mark.parametrize("k", range(40))
    def test_a_bad_value_is_named_by_its_own_line(self, tmp_path, k):
        # 5 characters a line: a 64-character window ends after 13 lines, so
        # the first and the last line of each window are among the k
        body = ["1.25"] * 40
        body[k] = "zap!"
        p = tmp_path / "bad.txt"
        p.write_text(HEADER.format(40) + "\n".join(body) + "\n")
        with pytest.raises(FieldFormatError, match=re.escape(f"line {6 + k}: 'zap!'")):
            read_field(p)

    @pytest.mark.parametrize("forbidden", ["1_0", " 1.0", "1.0\v", "\f1.0"])
    @pytest.mark.parametrize("k, later", [(3, 4), (12, 13), (12, 30)])
    def test_the_first_bad_line_is_named_across_windows(self, tmp_path, forbidden, k, later):
        # a line float() rejects, then one it takes but a value never holds: in
        # the same 64-character window, the next one, or one further on
        body = ["1.25"] * 40
        body[k], body[later] = "zap!", forbidden
        p = tmp_path / "bad.txt"
        p.write_text(HEADER.format(40) + "\n".join(body) + "\n")
        with pytest.raises(FieldFormatError, match=re.escape(f"line {6 + k}: 'zap!'")):
            read_field(p)

    @pytest.mark.parametrize("newline", ["\r\n", "\r"])
    def test_other_line_ends_read_the_same_values(self, tmp_path, newline):
        field = FieldND(random_bits(60, 29).reshape(3, 20), staggered_axis=1)
        plain, other = tmp_path / "plain.txt", tmp_path / "other.txt"
        write_field(plain, field)
        other.write_bytes(plain.read_bytes().replace(b"\n", newline.encode()))
        want, got = read_field(plain), read_field(other)
        assert got.values.tobytes() == want.values.tobytes() == field.values.tobytes()
        assert got.shape == want.shape and got.staggered_axis == want.staggered_axis == 1

    @pytest.mark.parametrize("text, outcome", [
        pytest.param(HEADER.format(2) + "1.0\n2.0", [1.0, 2.0], id="no-final-newline"),
        pytest.param(HEADER.format(2), "expected 2 values, found 0", id="header-only"),
        pytest.param(HEADER.format(2)[:-1], "expected 2 values, found 0",
                     id="header-only-no-final-newline"),
        pytest.param(HEADER.format(0), [], id="empty"),
        pytest.param(HEADER.format(0)[:-1], [], id="empty-no-final-newline"),
        pytest.param(HEADER.format(2) + "1.0\n2.0\n\n", "expected 2 values, found 3",
                     id="blank-last-line"),
        pytest.param(HEADER.format(3) + "1.0\n2.0\n\n", "bad value on line 8: ''",
                     id="blank-last-value"),
        pytest.param(HEADER.format(1) + "\n", "bad value on line 6: ''", id="blank-only-value"),
        pytest.param(HEADER.format(2) + "1.0\r2.0\n", [1.0, 2.0], id="lone-cr-in-body"),
        pytest.param(HEADER.format(2).replace("\n", "\r", 4) + "1.0\n2.0", [1.0, 2.0],
                     id="lone-cr-in-header"),
        pytest.param(HEADER.format(1) + "1.0\r", [1.0], id="lone-cr-last"),
    ])
    def test_edge_files(self, tmp_path, text, outcome):
        # a list is the values read, a string the start of the error
        p = tmp_path / "edge.txt"
        p.write_text(text)
        if isinstance(outcome, list):
            assert read_field(p).values.tolist() == outcome
        else:
            with pytest.raises(FieldFormatError, match=re.escape(f"field file {p}: {outcome}")):
                read_field(p)


class TestMemoryBudget:
    """Peak traced bytes of the text format at 2.5e5 values: one block or
    window of strings at a time, not one string per value."""

    N = 250_000

    @staticmethod
    def traced_peak(call):
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            return tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    def test_write_holds_one_block_of_strings(self, tmp_path):
        field = FieldND(np.random.default_rng(1).normal(size=(250, self.N // 250)))
        peak = self.traced_peak(lambda: write_field(tmp_path / "f.txt", field))
        assert peak / self.N < 8   # bytes per value; 115 with one string per value

    def test_read_holds_one_window_of_strings(self, tmp_path):
        path = tmp_path / "f.txt"
        write_field(path, FieldND(np.random.default_rng(2).normal(size=self.N)))
        peak = self.traced_peak(lambda: read_field(path))
        # the text, once as bytes and once decoded, and the values; 6.1 with
        # one string per line
        assert peak / path.stat().st_size < 2.5

    def test_a_bad_header_is_refused_before_the_body_is_read(self, tmp_path):
        path = tmp_path / "f.txt"
        write_field(path, FieldND(np.random.default_rng(2).normal(size=self.N)))
        text = path.read_text()
        path.write_text("wrong 1" + text[text.index("\n"):])
        with pytest.raises(FieldFormatError, match="has bad magic line 'wrong 1'"):
            read_field(path)
        peak = self.traced_peak(lambda: pytest.raises(FieldFormatError, read_field, path))
        # the reader's buffers only; 2.0 with the body read and decoded first
        assert peak / path.stat().st_size < 0.05

    @pytest.mark.parametrize("head, message", [
        (b"", ": header line 1 is longer than 131072 characters"),
        (b"staggrid-field \xe9", " is not ASCII text"),
    ], ids=["digits", "non-ascii"])
    def test_a_file_with_no_line_break_is_refused_unread(self, tmp_path, head, message):
        path = tmp_path / "f.txt"
        path.write_bytes(head + b"7" * 30_000_000)
        with pytest.raises(FieldFormatError) as info:
            read_field(path)
        assert str(info.value) == f"field file {path}{message}"
        # the header lines, at most 2^17 characters each; 60 and 120 MB with
        # each line read to its end
        assert self.traced_peak(lambda: pytest.raises(FieldFormatError, read_field, path)) < 5e6


def write_lines(tmp_path, lines):
    path = tmp_path / "bad.txt"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestReadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(FieldFormatError):
            read_field(tmp_path / "nope.txt")

    def test_bad_magic(self, tmp_path):
        p = write_lines(tmp_path, ["wrong 1", "ndim 1", "shape 1",
                                   "staggered-axis none", "count 1", "1.0"])
        with pytest.raises(FieldFormatError):
            read_field(p)

    def test_truncated_header(self, tmp_path):
        p = write_lines(tmp_path, ["staggrid-field 1", "ndim 1"])
        with pytest.raises(FieldFormatError):
            read_field(p)

    def test_bad_ndim(self, tmp_path):
        p = write_lines(tmp_path, ["staggrid-field 1", "ndim x", "shape 1",
                                   "staggered-axis none", "count 1", "1.0"])
        with pytest.raises(FieldFormatError):
            read_field(p)
        p = write_lines(tmp_path, ["staggrid-field 1", "ndim 0", "shape",
                                   "staggered-axis none", "count 1", "1.0"])
        with pytest.raises(FieldFormatError):
            read_field(p)

    def test_shape_ndim_mismatch(self, tmp_path):
        p = write_lines(tmp_path, ["staggrid-field 1", "ndim 2", "shape 4",
                                   "staggered-axis none", "count 4",
                                   "1.0", "1.0", "1.0", "1.0"])
        with pytest.raises(FieldFormatError):
            read_field(p)

    def test_count_shape_mismatch(self, tmp_path):
        p = write_lines(tmp_path, ["staggrid-field 1", "ndim 1", "shape 3",
                                   "staggered-axis none", "count 2", "1.0", "2.0"])
        with pytest.raises(FieldFormatError):
            read_field(p)

    def test_a_shape_whose_size_is_too_long_for_str(self, tmp_path):
        # each extent converts, but their product has more digits than str() makes
        big = "9" * 4000
        p = write_lines(tmp_path, ["staggrid-field 1", "ndim 3", f"shape {big} {big} {big}",
                                   "staggered-axis none", "count 1", "1.0"])
        with pytest.raises(FieldFormatError, match=r": count 1 does not match shape 9+x9+x9+ = "):
            read_field(p)

    def test_wrong_value_count(self, tmp_path):
        p = write_lines(tmp_path, ["staggrid-field 1", "ndim 1", "shape 3",
                                   "staggered-axis none", "count 3", "1.0", "2.0"])
        with pytest.raises(FieldFormatError):
            read_field(p)

    def test_unparseable_value(self, tmp_path):
        p = write_lines(tmp_path, ["staggrid-field 1", "ndim 1", "shape 2",
                                   "staggered-axis none", "count 2", "1.0", "zap"])
        with pytest.raises(FieldFormatError) as info:
            read_field(p)
        assert "line 7" in str(info.value)

    def test_names_the_first_bad_value(self, tmp_path):
        for body, line in [
            (["1.0", "2.0", "0x1p3", "3.0", "zap", "4.0"], 8),
            # a line float() rejects before one holding a separator or blank
            (["1.0", "zap", "2.0", "1_0"], 7),
            (["1.0", "zap", "2.0", " 3.0"], 7),
            (["nope", "2.0", "3.0", "4.0\v"], 6),
            (["1.0", "2.0", "0x1p3", "\f4.0"], 8),
            # and after one
            (["1.0", "2_0", "zap", "4.0"], 7),
        ]:
            p = write_lines(tmp_path, ["staggrid-field 1", "ndim 1", f"shape {len(body)}",
                                       "staggered-axis none", f"count {len(body)}", *body])
            with pytest.raises(FieldFormatError,
                               match=re.escape(f"line {line}: {body[line - 6]!r}")):
                read_field(p)

    def test_accepts_what_float_accepts(self, tmp_path):
        body = ["1e-3", "+.5", "-0", "1E+2", "5.", "007"]
        p = write_lines(tmp_path, ["staggrid-field 1", "ndim 1", "shape 6",
                                   "staggered-axis none", "count 6", *body])
        assert read_field(p).values.tolist() == [float(t) for t in body]

    @pytest.mark.parametrize("token", ["1_0", "  2.5  ", "2.5 ", "\t2.5", "-1_000.5",
                                       "\f2.5", "2.5\v"])
    def test_rejects_values_float_would_accept(self, tmp_path, token):
        p = write_lines(tmp_path, ["staggrid-field 1", "ndim 1", "shape 3",
                                   "staggered-axis none", "count 3", "1.0", "2.0", token])
        with pytest.raises(FieldFormatError, match=re.escape(f"line 8: {token!r}")):
            read_field(p)

    @pytest.mark.parametrize("count", [2, 3])
    def test_a_form_feed_breaks_no_line(self, tmp_path, count):
        # str.splitlines would read 1.0, 2.0 and 3.0
        p = tmp_path / "ff.txt"
        p.write_text("staggrid-field 1\nndim 1\nshape {0}\nstaggered-axis none\n"
                     "count {0}\n1.0\f2.0\n3.0\n".format(count))
        match = re.escape("line 6: '1.0\\x0c2.0'") if count == 2 else "expected 3 values, found 2"
        with pytest.raises(FieldFormatError, match=match):
            read_field(p)

    def test_a_vertical_tab_breaks_no_header_line(self, tmp_path):
        # str.splitlines would read the magic line and "ndim 1"
        p = tmp_path / "vt.txt"
        p.write_text("staggrid-field 1\vndim 1\nshape 1\nstaggered-axis none\ncount 1\n"
                     "1.0\n")
        with pytest.raises(FieldFormatError, match="bad magic line 'staggrid-field 1"):
            read_field(p)

    @pytest.mark.parametrize("header", [
        ["ndim\v1", "shape 2\f", "staggered-axis\x1cnone", "count 2"],   # str.split() reads 1-D
        ["ndim 1", "shape\t2", "staggered-axis none", "count 2"],
    ])
    def test_header_fields_are_split_at_spaces_only(self, tmp_path, header):
        p = write_lines(tmp_path, ["staggrid-field 1", *header, "1.0", "2.0"])
        with pytest.raises(FieldFormatError, match="holds whitespace other than spaces"):
            read_field(p)

    @pytest.mark.parametrize("header,bad", [
        (["ndim 1", "shape 1_0", "staggered-axis none", "count 10"], "shape"),
        (["ndim 1", "shape 10", "staggered-axis none", "count 1_0"], "count"),
        (["ndim 1", "shape 10", "staggered-axis +0", "count 10"], "staggered-axis"),
        (["ndim +1", "shape 10", "staggered-axis none", "count 10"], "ndim"),
    ])
    def test_header_integers_are_plain_digits(self, tmp_path, header, bad):
        p = write_lines(tmp_path, ["staggrid-field 1", *header] + ["1.0"] * 10)
        with pytest.raises(FieldFormatError, match=f": {bad} .*must be plain digits"):
            read_field(p)

    def test_a_huge_count_allocates_nothing(self, tmp_path):
        p = tmp_path / "huge.txt"
        p.write_text("staggrid-field 1\nndim 2\nshape 1000000 1000000\nstaggered-axis none\n"
                     "count 1000000000000\n1.0\n2.0\n")
        with pytest.raises(FieldFormatError, match="expected 1000000000000 values, found 2"):
            read_field(p)

    def test_non_finite_value(self, tmp_path):
        p = write_lines(tmp_path, ["staggrid-field 1", "ndim 1", "shape 2",
                                   "staggered-axis none", "count 2", "1.0", "nan"])
        with pytest.raises(FieldFormatError):
            read_field(p)

    @pytest.mark.parametrize("lines,message", [
        (["staggrid-field 1", "ndim 1"], " is truncated: header incomplete"),
        (["wrong 1", "ndim 1", "shape 1", "staggered-axis none", "count 1", "1.0"],
         " has bad magic line 'wrong 1'; expected 'staggrid-field 1'"),
        (["staggrid-field 1", "ndim 1", "shape\t2", "staggered-axis none", "count 2"],
         ": header line 'shape\\t2' holds whitespace other than spaces"),
        (["staggrid-field 1", "ndim 1", "shape 2", "staggered-axis\x1cnone", "count 2"],
         ": header line 'staggered-axis\\x1cnone' holds whitespace other than spaces"),
        (["staggrid-field 1", "ndim", "shape 1", "staggered-axis none", "count 1", "1.0"],
         ": expected 'ndim <value>', got 'ndim'"),
        (["staggrid-field 1", "ndim 1", "shape 1", "axis none", "count 1", "1.0"],
         ": expected 'staggered-axis <value>', got 'axis none'"),
        (["staggrid-field 1", "ndim 1", "shape 1", "staggered-axis none", "count 1 1", "1.0"],
         ": expected 'count <value>', got 'count 1 1'"),
        (["staggrid-field 1", "ndim 1", "shapes 1", "staggered-axis none", "count 1", "1.0"],
         ": expected 'shape ...', got 'shapes 1'"),
        (["staggrid-field 1", "ndim +1", "shape 1", "staggered-axis none", "count 1", "1.0"],
         ": ndim must be plain digits, got '+1'"),
        (["staggrid-field 1", "ndim 2", "shape 1 1_0", "staggered-axis none", "count 10"],
         ": shape must be plain digits, got '1_0'"),
        (["staggrid-field 1", "ndim 1", "shape 1", "staggered-axis -0", "count 1", "1.0"],
         ": staggered-axis other than 'none' must be plain digits, got '-0'"),
        (["staggrid-field 1", "ndim 1", "shape 1", "staggered-axis none", "count x", "1.0"],
         ": count must be plain digits, got 'x'"),
        (["staggrid-field 1", "ndim 0", "shape", "staggered-axis none", "count 1", "1.0"],
         ": ndim must be >= 1, got 0"),
        (["staggrid-field 1", "ndim 2", "shape 4", "staggered-axis none", "count 4"],
         ": shape lists 1 extents but ndim is 2"),
        (["staggrid-field 1", "ndim 1", "shape 3", "staggered-axis none", "count 2", "1.0",
          "2.0"], ": count 2 does not match shape 3 = 3"),
        (["staggrid-field 1", "ndim 2", "shape 2 3", "staggered-axis 0", "count 5"],
         ": count 5 does not match shape 2x3 = 6"),
        (["staggrid-field 1", "ndim 1", "shape 1", "staggered-axis none",
          "count " + "0" * 5000 + "1", "1.0"], ": count has more digits than int() converts"),
        (["staggrid-field 1", "ndim 2", "shape 1 " + "0" * 5000 + "1", "staggered-axis none",
          "count 1", "1.0"], ": shape has more digits than int() converts"),
    ])
    def test_header_messages(self, tmp_path, lines, message):
        p = write_lines(tmp_path, lines)
        with pytest.raises(FieldFormatError) as info:
            read_field(p)
        assert str(info.value) == f"field file {p}{message}"

    @pytest.mark.parametrize("length", [fieldio._WINDOW - 1, fieldio._WINDOW])
    def test_a_header_line_is_read_up_to_the_window(self, tmp_path, length):
        p = write_lines(tmp_path, ["x" * length, "ndim 1", "shape 1",
                                   "staggered-axis none", "count 1", "1.0"])
        with pytest.raises(FieldFormatError) as info:
            read_field(p)
        if length < fieldio._WINDOW:   # read whole, up to its newline
            message = f" has bad magic line {'x' * length!r}; expected 'staggrid-field 1'"
        else:
            message = ": header line 1 is longer than 131072 characters"
        assert str(info.value) == f"field file {p}{message}"

    @pytest.mark.parametrize("token", ["nan", "inf", "-inf"])
    def test_non_finite_values_are_named_plainly(self, tmp_path, token):
        p = write_lines(tmp_path, ["staggrid-field 1", "ndim 1", "shape 2",
                                   "staggered-axis none", "count 2", "1.0", token])
        with pytest.raises(FieldFormatError) as info:
            read_field(p)
        assert str(info.value) == f"field file {p}: non-finite value at flat index 1: {token}"

    @pytest.mark.parametrize("values_before, message", [
        (10, " has bad magic line 'wrong 1'; expected 'staggrid-field 1'"),   # in the first 8 KiB
        (10**5, " has bad magic line 'wrong 1'; expected 'staggrid-field 1'"),
    ])
    def test_a_bad_header_is_named_before_a_non_ascii_body(self, tmp_path, values_before,
                                                           message):
        p = tmp_path / "bad.txt"
        p.write_bytes(b"wrong 1\nndim 1\nshape 2\nstaggered-axis none\ncount 2\n"
                      + b"1.0\n" * values_before + "\u00e9\n".encode())
        with pytest.raises(FieldFormatError) as info:
            read_field(p)
        assert str(info.value) == f"field file {p}{message}"

    @pytest.mark.parametrize("header", [
        b"staggrid-field 1\nndim 1\nshape 2\xe9\nstaggered-axis none\ncount 2\n",
        b"wrong \xff1\nndim 1\nshape 2\nstaggered-axis none\ncount 2\n",
        b"staggrid-field 1\nndim 1\xe9\n",
    ], ids=["in-a-good-header", "before-a-bad-magic-line", "before-a-truncation"])
    def test_a_non_ascii_header_line_is_named_as_such(self, tmp_path, header):
        p = tmp_path / "bad.txt"
        p.write_bytes(header + b"1.0\n2.0\n")
        with pytest.raises(FieldFormatError) as info:
            read_field(p)
        assert str(info.value) == f"field file {p} is not ASCII text"

    @pytest.mark.parametrize("line", [6, 10**5])
    def test_a_non_ascii_body_line_is_named_as_such_wherever_it_lies(self, tmp_path, line):
        count = 10**5
        body = [b"1.0\n"] * count
        body[line - 6] = "1.\u00e9\n".encode()
        p = tmp_path / "bad.txt"
        p.write_bytes(b"staggrid-field 1\nndim 1\nshape %d\nstaggered-axis none\ncount %d\n"
                      % (count, count) + b"".join(body))
        with pytest.raises(FieldFormatError) as info:
            read_field(p)
        assert str(info.value) == f"field file {p} is not ASCII text"

    def test_bad_staggered_axis(self, tmp_path):
        p = write_lines(tmp_path, ["staggrid-field 1", "ndim 1", "shape 2",
                                   "staggered-axis maybe", "count 2", "1.0", "2.0"])
        with pytest.raises(FieldFormatError):
            read_field(p)
        # out of range for the shape
        p = write_lines(tmp_path, ["staggrid-field 1", "ndim 1", "shape 2",
                                   "staggered-axis 1", "count 2", "1.0", "2.0"])
        with pytest.raises(FieldFormatError):
            read_field(p)

    def test_zero_extent(self, tmp_path):
        # FieldND decides: a zero extent is refused only on the staggered axis
        p = write_lines(tmp_path, ["staggrid-field 1", "ndim 1", "shape 0",
                                   "staggered-axis none", "count 0"])
        assert read_field(p).values.shape == (0,)
