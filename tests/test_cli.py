"""Command-line interface: subcommands, formats, exit codes, round trips."""

import json
import math
import subprocess
import sys

import pytest

from touchardstar.cli import main
from touchardstar.formats import canonical_json

TOUCHARD_CSV = "n,a_n\n1,1.0\n2,0.1\n3,0.05\n"
NEGATIVE_CSV = "n,a_n\n1,1.0\n2,-0.1\n"


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestMoment:
    def test_total_mass(self, capsys):
        code, out, _ = run(capsys, ["moment", "--l", "0", "--m", "1"])
        assert code == 0
        assert json.loads(out)["value"] == 1.0

    def test_closed_form_example(self, capsys):
        code, out, _ = run(capsys, ["moment", "--l", "2", "--m", "0.5"])
        assert code == 0
        payload = json.loads(out)
        assert payload["value"] == 0.75
        assert payload["method"] == "closed_form"

    def test_series_agrees_with_closed_within_tol(self, capsys):
        tol = 1e-11
        _, out1, _ = run(capsys, ["moment", "--l", "4", "--m", "2.5"])
        _, out2, _ = run(capsys, ["moment", "--l", "4", "--m", "2.5", "--series",
                                  "--tol", str(tol)])
        closed = json.loads(out1)["value"]
        series = json.loads(out2)["value"]
        assert abs(closed - series) <= tol * max(1.0, closed)

    def test_non_integer_order_requires_series_flag(self, capsys):
        code, _, err = run(capsys, ["moment", "--l", "1.5", "--m", "1"])
        assert code == 2
        assert "integer" in err

    def test_non_integer_order_with_series_is_experimental(self, capsys):
        code, out, err = run(capsys, ["moment", "--l", "1.5", "--m", "1", "--series"])
        assert code == 0
        assert "experimental" in err
        assert 1.0 < json.loads(out)["value"] < 2.0

    def test_numeric_failure_exit_code(self, capsys):
        code, _, err = run(capsys, ["moment", "--l", "0", "--m", "800", "--series"])
        assert code == 3
        assert "numeric failure" in err

    def test_invalid_m_exit_code(self, capsys):
        code, _, _ = run(capsys, ["moment", "--l", "0", "--m", "-1"])
        assert code == 2

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, ["moment", "--l", "1", "--m", "2", "--format", "csv"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "value,method,truncation_terms,tail_bound"
        assert lines[1].startswith("2.0,closed_form,")


class TestCoeffs:
    def test_csv_default(self, capsys):
        code, out, _ = run(capsys, ["coeffs", "--l", "0", "--m", "1", "--order", "4"])
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,a_n"
        assert len(lines) == 5
        assert float(lines[1].split(",")[1]) == 1.0
        assert float(lines[2].split(",")[1]) == pytest.approx(math.exp(-1), rel=1e-15)

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, ["coeffs", "--l", "1", "--m", "0.5",
                                    "--order", "6", "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert payload["order"] == 6
        assert len(payload["coeffs"]) == 6


class TestCheckClass:
    def test_touchard_source(self, capsys):
        code, out, _ = run(capsys, ["check-class", "--class", "Mstar",
                                    "--lambda", "0", "--alpha", "4/3",
                                    "--touchard", "0", "0.3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["member"] is True
        assert payload["method"] == "coefficient_sum"

    def test_series_file_source(self, capsys, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(TOUCHARD_CSV, encoding="utf-8")
        code, out, _ = run(capsys, ["check-class", "--class", "Nstar",
                                    "--lambda", "0.25", "--alpha", "1.2",
                                    "--series", str(path)])
        assert code == 0
        assert "criterion_value" in json.loads(out)

    def test_negative_coefficients_rejected(self, capsys, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text(NEGATIVE_CSV, encoding="utf-8")
        code, _, err = run(capsys, ["check-class", "--class", "Mstar",
                                    "--lambda", "0", "--alpha", "1.2",
                                    "--series", str(path)])
        assert code == 2
        assert "nonneg" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, _ = run(capsys, ["check-class", "--class", "Mstar",
                                  "--lambda", "0", "--alpha", "1.2",
                                  "--series", str(tmp_path / "nope.csv")])
        assert code == 2


class TestCheckTheorem:
    def test_integral_verdict_matches_starlike(self, capsys):
        base = ["--l", "1", "--m", "0.7", "--lambda", "0.25", "--alpha", "4/3"]
        _, out_m, _ = run(capsys, ["check-theorem", "--which", "M"] + base)
        _, out_i, _ = run(capsys, ["check-theorem", "--which", "integral"] + base)
        m = json.loads(out_m)
        i = json.loads(out_i)
        assert m["member"] == i["member"]
        assert m["criterion_value"] == i["criterion_value"]

    def test_alpha_fraction_literal(self, capsys):
        base = ["check-theorem", "--which", "M", "--l", "0", "--m", "0.5", "--lambda", "0"]
        _, out_lit, _ = run(capsys, base + ["--alpha", "4/3"])
        _, out_dec, _ = run(capsys, base + ["--alpha", repr(4.0 / 3.0)])
        assert json.loads(out_lit) == json.loads(out_dec)

    def test_rtau_needs_parameters(self, capsys):
        code, _, err = run(capsys, ["check-theorem", "--which", "rtau", "--l", "0",
                                    "--m", "0.5", "--lambda", "0", "--alpha", "1.2"])
        assert code == 2
        assert "tau" in err

    def test_rtau_with_parameters(self, capsys):
        code, out, _ = run(capsys, ["check-theorem", "--which", "rtau", "--l", "0",
                                    "--m", "0.5", "--lambda", "0", "--alpha", "1.2",
                                    "--tau", "1", "--A", "1", "--B", "-1"])
        assert code == 0
        assert "sufficient" in json.loads(out)["detail"]

    def test_overflow_is_numeric_failure_without_traceback(self):
        proc = subprocess.run(
            [sys.executable, "-m", "touchardstar", "check-theorem", "--which", "M",
             "--l", "60", "--m", "1e7", "--lambda", "0", "--alpha", "1.2"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 3
        assert proc.stdout == ""
        assert "numeric failure" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_computed_nonmember_still_exits_zero(self, capsys):
        code, out, _ = run(capsys, ["check-theorem", "--which", "M", "--l", "3",
                                    "--m", "4", "--lambda", "0", "--alpha", "1.05"])
        assert code == 0
        assert json.loads(out)["member"] is False

    def test_alpha_out_of_range(self, capsys):
        code, _, _ = run(capsys, ["check-theorem", "--which", "M", "--l", "0",
                                  "--m", "0.5", "--lambda", "0", "--alpha", "1.5"])
        assert code == 2


class TestThreshold:
    def test_converges(self, capsys):
        code, out, _ = run(capsys, ["threshold", "--which", "M", "--l", "0",
                                    "--lambda", "0", "--alpha", "4/3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["m_star"] == pytest.approx(0.4552333556, abs=1e-8)
        assert abs(payload["residual"]) < 1e-8

    def test_no_threshold_exit_code(self, capsys):
        code, _, err = run(capsys, ["threshold", "--which", "M", "--l", "0",
                                    "--lambda", "0.75", "--alpha", "4/3"])
        assert code == 3
        assert "no threshold" in err

    def test_csv_format(self, capsys):
        code, out, _ = run(capsys, ["threshold", "--which", "N", "--l", "0",
                                    "--lambda", "0", "--alpha", "1.2", "--format", "csv"])
        assert code == 0
        header = out.splitlines()[0]
        assert header == "m_star,bracket_lo,bracket_hi,residual,iterations,criterion,warnings"


class TestVerifyDisk:
    def test_member_kernel(self, capsys):
        code, out, _ = run(capsys, ["verify-disk", "--which", "M",
                                    "--touchard", "0", "0.3",
                                    "--lambda", "0", "--alpha", "4/3"])
        assert code == 0
        payload = json.loads(out)
        assert payload["violations"] == 0
        assert payload["samples"] == 19 * 96

    def test_grid_flags(self, capsys):
        code, out, _ = run(capsys, ["verify-disk", "--which", "N",
                                    "--touchard", "0", "0.1",
                                    "--lambda", "0", "--alpha", "4/3",
                                    "--rmax", "0.9", "--rings", "6", "--angles", "16"])
        assert code == 0
        assert json.loads(out)["samples"] == 96

    def test_rtau(self, capsys, tmp_path):
        path = tmp_path / "series.csv"
        path.write_text(TOUCHARD_CSV, encoding="utf-8")
        code, out, _ = run(capsys, ["verify-disk", "--which", "rtau",
                                    "--series", str(path),
                                    "--tau", "1", "--A", "1", "--B", "-1"])
        assert code == 0
        assert json.loads(out)["violations"] == 0

    def test_rtau_missing_params(self, capsys):
        code, _, _ = run(capsys, ["verify-disk", "--which", "rtau",
                                  "--touchard", "0", "0.3"])
        assert code == 2

    def test_class_params_required_for_M(self, capsys):
        code, _, err = run(capsys, ["verify-disk", "--which", "M",
                                    "--touchard", "0", "0.3"])
        assert code == 2
        assert "--lambda" in err

    def test_dump_samples(self, capsys, tmp_path):
        dump = tmp_path / "samples.csv"
        code, _, err = run(capsys, ["verify-disk", "--which", "M",
                                    "--touchard", "0", "0.3",
                                    "--lambda", "0", "--alpha", "4/3",
                                    "--rings", "3", "--angles", "8",
                                    "--dump-samples", str(dump)])
        assert code == 0
        lines = dump.read_text(encoding="utf-8").strip().splitlines()
        assert lines[0] == "re,im,value"
        assert len(lines) == 1 + 24


class TestSweep:
    SPEC = {
        "criterion": "M",
        "l": [0, 1],
        "m": [0.25, 0.5, 1.0],
        "lambda": [0.0],
        "alpha": [4.0 / 3.0],
    }

    def test_csv_deterministic(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPEC), encoding="utf-8")
        code1, out1, _ = run(capsys, ["sweep", "--spec", str(path)])
        code2, out2, _ = run(capsys, ["sweep", "--spec", str(path)])
        assert code1 == code2 == 0
        assert out1 == out2
        lines = out1.strip().splitlines()
        assert lines[0] == "l,m,lambda,alpha,criterion_value,bound,member,status"
        assert len(lines) == 1 + 6

    def test_json_format(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPEC), encoding="utf-8")
        code, out, _ = run(capsys, ["sweep", "--spec", str(path), "--format", "json"])
        assert code == 0
        payload = json.loads(out)
        assert len(payload["rows"]) == 6

    def test_int_m_too_large_for_a_float(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({**self.SPEC, "m": [10**400, 0.5]}), encoding="utf-8")
        code, out, err = run(capsys, ["sweep", "--spec", str(path), "--format", "json"])
        assert (code, err) == (0, "")
        rows = json.loads(out)["rows"]
        assert [r["status"] for r in rows] == ["invalid_params", "ok"] * 2
        assert rows[0]["m"] == 10**400

    def test_bad_spec(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"l": [0]}), encoding="utf-8")
        code, _, _ = run(capsys, ["sweep", "--spec", str(path)])
        assert code == 2


class TestJsonRoundTrip:
    CASES = [
        ["moment", "--l", "2", "--m", "0.5"],
        ["moment", "--l", "1.5", "--m", "1", "--series"],
        ["coeffs", "--l", "0", "--m", "1", "--order", "5", "--format", "json"],
        ["check-class", "--class", "Mstar", "--lambda", "0", "--alpha", "4/3",
         "--touchard", "0", "0.3"],
        ["check-theorem", "--which", "N", "--l", "1", "--m", "0.8",
         "--lambda", "0.5", "--alpha", "1.2"],
        ["check-theorem", "--which", "rtau", "--l", "0", "--m", "0.5",
         "--lambda", "0", "--alpha", "1.2", "--tau", "1+1j", "--A", "0.5", "--B", "-0.5"],
        ["threshold", "--which", "M", "--l", "0", "--lambda", "0", "--alpha", "4/3"],
        ["verify-disk", "--which", "M", "--touchard", "0", "0.3",
         "--lambda", "0", "--alpha", "4/3", "--rings", "4", "--angles", "8"],
    ]

    @pytest.mark.parametrize("argv", CASES, ids=lambda a: a[0] + "-" + a[1])
    def test_parse_reemit_is_byte_identical(self, capsys, argv):
        code, out, _ = run(capsys, argv)
        assert code == 0
        assert canonical_json(json.loads(out)) == out.strip()

    def test_sweep_round_trip(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(TestSweep.SPEC), encoding="utf-8")
        code, out, _ = run(capsys, ["sweep", "--spec", str(path), "--format", "json"])
        assert code == 0
        assert canonical_json(json.loads(out)) == out.strip()


class TestHumanFormat:
    def test_check_theorem(self, capsys):
        code, out, _ = run(capsys, ["check-theorem", "--which", "M", "--l", "0",
                                    "--m", "0.3", "--lambda", "0", "--alpha", "4/3",
                                    "--format", "human"])
        assert code == 0
        assert "member: true" in out
        assert out.startswith("criterion_value: ")

    def test_threshold(self, capsys):
        code, out, _ = run(capsys, ["threshold", "--which", "M", "--l", "0",
                                    "--lambda", "0", "--alpha", "4/3",
                                    "--format", "human"])
        assert code == 0
        assert "m_star: 0.455" in out
        assert "criterion: M_theorem" in out

    def test_verify_disk(self, capsys):
        code, out, _ = run(capsys, ["verify-disk", "--which", "M",
                                    "--touchard", "0", "0.3",
                                    "--lambda", "0", "--alpha", "4/3",
                                    "--rings", "3", "--angles", "8",
                                    "--format", "human"])
        assert code == 0
        assert "violations: 0" in out
        assert "samples: 24" in out

    def test_sweep(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(TestSweep.SPEC), encoding="utf-8")
        code, out, _ = run(capsys, ["sweep", "--spec", str(path), "--format", "human"])
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 1 + 6
        assert "status=ok" in lines[1]

    def test_coeffs_human_is_csv_table(self, capsys):
        code, out, _ = run(capsys, ["coeffs", "--l", "0", "--m", "1",
                                    "--order", "3", "--format", "human"])
        assert code == 0
        assert out.splitlines()[0] == "n,a_n"


class TestEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "touchardstar", "moment", "--l", "0", "--m", "1"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["value"] == 1.0

    def test_bad_flags_exit_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "touchardstar", "moment", "--l", "0"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 2

    def test_data_and_diagnostics_streams_separate(self):
        proc = subprocess.run(
            [sys.executable, "-m", "touchardstar", "moment",
             "--l", "1.5", "--m", "1", "--series"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        json.loads(proc.stdout)  # stdout is pure data
        assert "experimental" in proc.stderr


class TestMalformedSweepSpecExitsTwo:
    @pytest.mark.parametrize("text, message", [
        ('{"criterion": "M", "l": [0', "not valid JSON"),
        ('{"criterion": "M", "l": 3, "m": [1.0], "lambda": [0.1], "alpha": [1.2]}',
         "sweep axis 'l'"),
        ('{"criterion": ["M"], "l": [3], "m": [1.0], "lambda": [0.1], "alpha": [1.2]}',
         "unknown criterion"),
        ('{"criterion": "M", "l": "03", "m": [1.0], "lambda": [0.1], "alpha": [1.2]}',
         "sweep axis 'l'"),
    ], ids=["truncated", "scalar-axis", "list-criterion", "string-axis"])
    def test_malformed_spec(self, capsys, tmp_path, text, message):
        path = tmp_path / "spec.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, ["sweep", "--spec", str(path)])
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and message in err

    def test_spec_that_is_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "spec.json"
        path.write_bytes(b"\xff\xfe{}")
        code, _, err = run(capsys, ["sweep", "--spec", str(path)])
        assert code == 2 and "not valid JSON" in err

    def test_no_traceback_in_a_child(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text('{"criterion": "M", "l": [0', encoding="utf-8")
        proc = subprocess.run([sys.executable, "-m", "touchardstar", "sweep", "--spec",
                               str(path)], capture_output=True, text=True)
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
