"""End-to-end CLI tests driven through subprocess."""

import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from staggrid import (FieldND, build_audit_report, read_field, solvability_report,
                      to_edges_along, write_field)

GOLDENS = Path(__file__).parent / "goldens"


def run_cli(*args, cwd=None):
    return subprocess.run(
        [sys.executable, "-m", "staggrid", *args],
        capture_output=True, cwd=cwd,
    )


def write_centered(path, values):
    write_field(path, FieldND(np.asarray(values, dtype=np.float64)))


class TestGoldens:
    @pytest.mark.parametrize("args,golden", [
        (("classify", "5"), "classify_5.txt"),
        (("classify", "6"), "classify_6.txt"),
        (("audit", "3", "12"), "audit_3_12.txt"),
    ])
    def test_byte_identical(self, args, golden):
        proc = run_cli(*args)
        assert proc.returncode == 0
        assert proc.stdout == (GOLDENS / golden).read_bytes()


class TestClassify:
    def test_small_n_is_usage_error(self):
        proc = run_cli("classify", "2")
        assert proc.returncode == 2

    def test_non_integer_is_usage_error(self):
        proc = run_cli("classify", "five")
        assert proc.returncode == 2


class TestAudit:
    def test_structured_output_parses(self):
        proc = run_cli("audit", "3", "8", "--format", "structured")
        assert proc.returncode == 0
        payload = json.loads(proc.stdout)
        assert payload["overall"] == "PASS"
        assert payload["failures"] == 0
        assert len(payload["records"]) == 6
        first = payload["records"][0]
        assert first["n_edges"] == 3
        assert first["determinant"] == {"theory": 2, "oracle": 2}

    def test_single_odd_record(self):
        proc = run_cli("audit", "5", "5")
        assert proc.returncode == 0
        out = proc.stdout.decode()
        assert "N=5 M=3 parity=odd det=2 rank=3" in out
        assert "records=1 failures=0 overall=PASS" in out

    def test_single_even_record(self):
        proc = run_cli("audit", "6", "6", "--format", "structured")
        assert proc.returncode == 0
        record = json.loads(proc.stdout)["records"][0]
        assert record["determinant"] == {"theory": 0, "oracle": 0}
        assert record["zero_row"] is True
        assert record["bottom_row"] == ["0", "0", "0", "0"]

    def test_full_range_alternates(self):
        proc = run_cli("audit", "3", "15")
        assert proc.returncode == 0
        lines = proc.stdout.decode().splitlines()
        records = [l for l in lines if l.startswith("N=")]
        assert len(records) == 13
        assert all("verdict=PASS" in l for l in records)
        parities = [l.split("parity=")[1].split()[0] for l in records]
        assert parities == ["odd", "even"] * 6 + ["odd"]

    def test_range_validation(self):
        assert run_cli("audit", "2", "5").returncode == 2
        assert run_cli("audit", "5", "3").returncode == 2
        assert run_cli("audit", "3", "67").returncode == 2

    def test_upper_bound_runs(self):
        assert run_cli("audit", "66", "66").returncode == 0

    @pytest.mark.parametrize("bad", [3.0, "3", 5.5])
    def test_bounds_must_be_ints(self, bad):
        with pytest.raises(ValueError, match="^n_min must be an int"):
            build_audit_report(bad, 5)
        with pytest.raises(ValueError, match="^n_max must be an int"):
            build_audit_report(3, bad)


class TestToEdges:
    def test_round_trip_through_files(self, tmp_path):
        centers = tmp_path / "c.txt"
        edges = tmp_path / "e.txt"
        back = tmp_path / "b.txt"
        write_centered(centers, [[1.0, 1.0], [2.0, 2.0], [3.0, 3.0]])

        proc = run_cli("to-edges", "--input", str(centers), "--axis", "0",
                       "--n-edges", "5", "--strategy", "unique",
                       "--output", str(edges))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.decode().startswith("lines=2 unique=2 family=0")

        staggered = read_field(edges)
        assert staggered.staggered_axis == 0
        assert np.allclose(staggered.values[:, 0], [2.0, 0.0, 4.0])

        proc = run_cli("to-centers", "--input", str(edges), "--axis", "0",
                       "--output", str(back))
        assert proc.returncode == 0, proc.stderr
        assert np.allclose(read_field(back).values, read_field(centers).values)

    def test_integer_round_trip_is_byte_exact(self, tmp_path):
        # small integers stay exact in float64, so the files match bit for bit
        centers = tmp_path / "c.txt"
        edges = tmp_path / "e.txt"
        back = tmp_path / "b.txt"
        write_centered(centers, [1.0, 2.0, 3.0])
        run_cli("to-edges", "--input", str(centers), "--axis", "0",
                "--n-edges", "5", "--strategy", "unique", "--output", str(edges))
        run_cli("to-centers", "--input", str(edges), "--axis", "0",
                "--output", str(back))
        assert back.read_bytes() == centers.read_bytes()

    def test_min_norm_and_pin(self, tmp_path):
        centers = tmp_path / "c.txt"
        out = tmp_path / "e.txt"
        write_centered(centers, [[1.0], [2.0], [3.0], [2.0]])

        proc = run_cli("to-edges", "--input", str(centers), "--axis", "0",
                       "--n-edges", "6", "--strategy", "min-norm",
                       "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        assert np.allclose(read_field(out).values[:, 0], [1.0, 1.0, 3.0, 3.0])

        proc = run_cli("to-edges", "--input", str(centers), "--axis", "0",
                       "--n-edges", "6", "--strategy", "pin",
                       "--pin-index", "1", "--pin-value", "1.0",
                       "--output", str(out))
        assert proc.returncode == 0, proc.stderr
        assert np.allclose(read_field(out).values[:, 0], [1.0, 1.0, 3.0, 3.0])

    def test_parse_error_exit_3(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not a field file\n")
        proc = run_cli("to-edges", "--input", str(bad), "--axis", "0",
                       "--n-edges", "5", "--strategy", "unique",
                       "--output", str(tmp_path / "o.txt"))
        assert proc.returncode == 3
        assert b"error:" in proc.stderr

    def test_form_feed_in_a_value_exit_3(self, tmp_path):
        bad = tmp_path / "ff.txt"
        bad.write_text("staggrid-field 1\nndim 1\nshape 2\nstaggered-axis none\n"
                       "count 2\n1.0\f2.0\n3.0\n")
        proc = run_cli("to-edges", "--input", str(bad), "--axis", "0",
                       "--n-edges", "4", "--strategy", "min-norm",
                       "--output", str(tmp_path / "o.txt"))
        assert proc.returncode == 3
        assert b"bad value on line 6" in proc.stderr

    def test_other_whitespace_in_the_header_exit_3(self, tmp_path):
        bad = tmp_path / "vt.txt"
        bad.write_text("staggrid-field 1\nndim\v1\nshape 2\f\nstaggered-axis\x1cnone\n"
                       "count 2\n1.0\n3.0\n")
        proc = run_cli("to-edges", "--input", str(bad), "--axis", "0",
                       "--n-edges", "4", "--strategy", "min-norm",
                       "--output", str(tmp_path / "o.txt"))
        assert proc.returncode == 3
        assert b"whitespace other than spaces" in proc.stderr

    @pytest.mark.parametrize("header, key", [
        ("shape 2\nstaggered-axis none\ncount " + "0" * 5000 + "2", "count"),
        ("shape " + "0" * 5000 + "2\nstaggered-axis none\ncount 2", "shape"),
    ], ids=["count", "shape"])
    def test_a_header_integer_int_cannot_convert_exit_3(self, tmp_path, header, key):
        bad = tmp_path / "long.txt"
        bad.write_text(f"staggrid-field 1\nndim 1\n{header}\n1.0\n3.0\n")
        proc = run_cli("to-edges", "--input", str(bad), "--axis", "0",
                       "--n-edges", "4", "--strategy", "min-norm",
                       "--output", str(tmp_path / "o.txt"))
        assert proc.returncode == 3
        assert f": {key} has more digits than int() converts\n".encode() in proc.stderr

    @pytest.mark.parametrize("head, message", [
        (b"", b": header line 1 is longer than 131072 characters"),
        (b"staggrid-field \xe9", b" is not ASCII text"),
    ], ids=["digits", "non-ascii"])
    def test_a_file_with_no_line_break_exit_3(self, tmp_path, head, message):
        bad = tmp_path / "long.txt"
        bad.write_bytes(head + b"7" * 30_000_000)
        proc = run_cli("to-edges", "--input", str(bad), "--axis", "0",
                       "--n-edges", "5", "--strategy", "unique",
                       "--output", str(tmp_path / "o.txt"))
        assert proc.returncode == 3
        assert message + b"\n" in proc.stderr

    def test_missing_input_exit_3(self, tmp_path):
        proc = run_cli("to-edges", "--input", str(tmp_path / "nope.txt"),
                       "--axis", "0", "--n-edges", "5", "--strategy", "unique",
                       "--output", str(tmp_path / "o.txt"))
        assert proc.returncode == 3

    def test_unwritable_output_exit_3(self, tmp_path):
        # an OSError from the write, not a parse error, still maps to 3
        centers = tmp_path / "c.txt"
        write_centered(centers, [[1.0], [2.0], [3.0]])
        proc = run_cli("to-edges", "--input", str(centers), "--axis", "0",
                       "--n-edges", "5", "--strategy", "unique",
                       "--output", str(tmp_path / "no-such-dir" / "o.txt"))
        assert proc.returncode == 3
        assert proc.stderr.startswith(b"error: ")

    def test_parity_mismatch_exit_4(self, tmp_path):
        centers = tmp_path / "c.txt"
        write_centered(centers, [[1.0], [2.0], [3.0]])
        proc = run_cli("to-edges", "--input", str(centers), "--axis", "0",
                       "--n-edges", "5", "--strategy", "min-norm",
                       "--output", str(tmp_path / "o.txt"))
        assert proc.returncode == 4
        assert b"odd" in proc.stderr

    def test_parity_gate_fires_before_solving(self, tmp_path):
        # inconsistent even-N data under 'unique': the strategy gate wins (4, not 5)
        centers = tmp_path / "c.txt"
        write_centered(centers, [1.0, 2.0, 3.0, 5.0])
        proc = run_cli("to-edges", "--input", str(centers), "--axis", "0",
                       "--n-edges", "6", "--strategy", "unique",
                       "--output", str(tmp_path / "o.txt"))
        assert proc.returncode == 4

    def test_inconsistent_exit_5(self, tmp_path):
        centers = tmp_path / "c.txt"
        write_centered(centers, [[1.0], [2.0], [3.0], [5.0]])
        proc = run_cli("to-edges", "--input", str(centers), "--axis", "0",
                       "--n-edges", "6", "--strategy", "min-norm",
                       "--output", str(tmp_path / "o.txt"))
        assert proc.returncode == 5
        assert b"residual" in proc.stderr

    def test_overflowing_residual_exit_5(self, tmp_path):
        # 2 S overflows float64, yet the line is plainly inconsistent
        centers = tmp_path / "c.txt"
        write_centered(centers, [[1e308, -1e308] * 4])
        proc = run_cli("to-edges", "--input", str(centers), "--axis", "1",
                       "--n-edges", "10", "--strategy", "min-norm",
                       "--output", str(tmp_path / "o.txt"))
        assert proc.returncode == 5
        assert proc.stderr.decode().splitlines() == [
            "error: line (0,) admits no edge solution (residual -inf, tolerance 1e-10)"]

    def test_pin_flags_required_exit_2(self, tmp_path):
        centers = tmp_path / "c.txt"
        write_centered(centers, [[1.0], [2.0], [3.0], [2.0]])
        proc = run_cli("to-edges", "--input", str(centers), "--axis", "0",
                       "--n-edges", "6", "--strategy", "pin",
                       "--output", str(tmp_path / "o.txt"))
        assert proc.returncode == 2

    def test_pin_flags_rejected_elsewhere_exit_2(self, tmp_path):
        centers = tmp_path / "c.txt"
        write_centered(centers, [[1.0], [2.0], [3.0]])
        proc = run_cli("to-edges", "--input", str(centers), "--axis", "0",
                       "--n-edges", "5", "--strategy", "unique",
                       "--pin-index", "1", "--pin-value", "0.0",
                       "--output", str(tmp_path / "o.txt"))
        assert proc.returncode == 2

    def test_extent_mismatch_exit_2(self, tmp_path):
        centers = tmp_path / "c.txt"
        write_centered(centers, [[1.0], [2.0], [3.0]])
        proc = run_cli("to-edges", "--input", str(centers), "--axis", "0",
                       "--n-edges", "7", "--strategy", "unique",
                       "--output", str(tmp_path / "o.txt"))
        assert proc.returncode == 2

    def test_overflow_exit_2(self, tmp_path):
        centers = tmp_path / "c.txt"
        write_centered(centers, [[1.7e308], [-1.7e308], [1.7e308]])
        proc = run_cli("to-edges", "--input", str(centers), "--axis", "0",
                       "--n-edges", "5", "--strategy", "unique",
                       "--output", str(tmp_path / "o.txt"))
        assert proc.returncode == 2
        assert proc.stderr.decode().splitlines() == [
            "error: edge values overflow float64: the input is too large in magnitude"]

    def test_pair_difference_overflow_exit_2(self, tmp_path):
        # c_3 - c_4 overflows though every partial sum fits: the kernel takes the
        # alternating scan there, and the edges, which cannot fit, are refused
        centers = tmp_path / "c.txt"
        write_centered(centers, [[1.5e308, 0.0, -1e308, 1e308, 0.0]])
        proc = run_cli("to-edges", "--input", str(centers), "--axis", "1",
                       "--n-edges", "7", "--strategy", "unique",
                       "--output", str(tmp_path / "o.txt"))
        assert proc.returncode == 2
        assert proc.stderr.decode().splitlines() == [
            "error: edge values overflow float64: the input is too large in magnitude"]

    def test_custom_tolerance(self, tmp_path):
        centers = tmp_path / "c.txt"
        out = tmp_path / "o.txt"
        write_centered(centers, [[1.0], [2.0], [3.0], [2.0 + 1e-6]])
        strict = run_cli("to-edges", "--input", str(centers), "--axis", "0",
                         "--n-edges", "6", "--strategy", "min-norm",
                         "--output", str(out))
        assert strict.returncode == 5
        loose = run_cli("to-edges", "--input", str(centers), "--axis", "0",
                        "--n-edges", "6", "--strategy", "min-norm",
                        "--tol", "1e-4", "--output", str(out))
        assert loose.returncode == 0

    def test_pin_without_flags_on_odd_n_is_a_parity_error(self, tmp_path):
        # the library's parity gate runs before its pin-flag rule
        centers = tmp_path / "c.txt"
        write_centered(centers, [[1.0], [2.0], [3.0]])
        proc = run_cli("to-edges", "--input", str(centers), "--axis", "0",
                       "--n-edges", "5", "--strategy", "pin",
                       "--output", str(tmp_path / "o.txt"))
        assert proc.returncode == 4
        assert b"odd" in proc.stderr


class TestToCenters:
    def test_wrong_axis_exit_4(self, tmp_path):
        f = tmp_path / "f.txt"
        write_field(f, FieldND(np.ones((3, 2)), staggered_axis=0))
        proc = run_cli("to-centers", "--input", str(f), "--axis", "1",
                       "--output", str(tmp_path / "o.txt"))
        assert proc.returncode == 4

    def test_centered_input_exit_4(self, tmp_path):
        f = tmp_path / "f.txt"
        write_centered(f, [[1.0], [2.0]])
        proc = run_cli("to-centers", "--input", str(f), "--axis", "0",
                       "--output", str(tmp_path / "o.txt"))
        assert proc.returncode == 4

    def test_empty_staggered_axis_exit_3(self, tmp_path):
        f = tmp_path / "f.txt"
        f.write_text("staggrid-field 1\nndim 2\nshape 5 0\nstaggered-axis 1\ncount 0\n")
        proc = run_cli("to-centers", "--input", str(f), "--axis", "1",
                       "--output", str(tmp_path / "o.txt"))
        assert proc.returncode == 3
        assert proc.stderr.decode().splitlines() == [
            f"error: field file {f}: staggered axis 1 has extent 0; "
            "an edge axis holds at least one value"]


class TestUsage:
    def test_no_command(self):
        assert run_cli().returncode == 2

    def test_unknown_command(self):
        assert run_cli("solve").returncode == 2

    def test_help_exits_zero(self):
        assert run_cli("--help").returncode == 0

    @pytest.mark.parametrize("args,library_call", [
        (("classify", "2"), lambda: solvability_report(2)),
        (("audit", "3", "67"), lambda: build_audit_report(3, 67)),
        (("to-edges", "--input", "{tmp}/c.txt", "--axis", "0", "--n-edges", "6",
          "--strategy", "pin", "--output", "{tmp}/o.txt"),
         lambda: to_edges_along(FieldND(np.ones((4, 1))), 0, 6, "pin")),
    ])
    def test_library_value_errors_exit_2(self, tmp_path, args, library_call):
        write_centered(tmp_path / "c.txt", [[1.0], [2.0], [3.0], [2.0]])
        with pytest.raises(ValueError) as info:
            library_call()
        proc = run_cli(*(a.format(tmp=tmp_path) for a in args))
        assert proc.returncode == 2
        assert proc.stderr.decode().splitlines() == [f"error: {info.value}"]
        assert not (tmp_path / "o.txt").exists()

    def test_main_returns_int_instead_of_raising(self):
        from staggrid.cli import main
        assert main(["classify", "2"]) == 2
        assert main(["classify", "5"]) == 0
