"""Tests for the plain-text field file format."""

import re

import numpy as np
import pytest

from staggrid import FieldFormatError, FieldND, read_field, write_field


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
        body = ["1.0", "2.0", "0x1p3", "3.0", "zap", "4.0"]
        p = write_lines(tmp_path, ["staggrid-field 1", "ndim 2", "shape 2 3",
                                   "staggered-axis none", "count 6", *body])
        with pytest.raises(FieldFormatError, match=re.escape("line 8: '0x1p3'")):
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

    def test_non_finite_value(self, tmp_path):
        p = write_lines(tmp_path, ["staggrid-field 1", "ndim 1", "shape 2",
                                   "staggered-axis none", "count 2", "1.0", "nan"])
        with pytest.raises(FieldFormatError):
            read_field(p)

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
        p = write_lines(tmp_path, ["staggrid-field 1", "ndim 1", "shape 0",
                                   "staggered-axis none", "count 0"])
        with pytest.raises(FieldFormatError):
            read_field(p)
