"""Command-line interface: flags, formats, exit codes, schemas."""
import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cevians import geometry
from cevians.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRatio:
    def test_centroid_equality(self, capsys):
        code, out, err = run_cli(
            capsys,
            "ratio", "--n", "2",
            "--lambda", "0.3333333,0.3333333,0.3333334",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["cevian_ratio"] == pytest.approx(0.25, abs=1e-7)
        assert payload["theorem1_bound"] == 0.25
        assert err == ""  # sums to 1 within 1e-9: no warning

    def test_tetrahedron_centroid(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "ratio", "--n", "3", "--lambda", "0.25,0.25,0.25,0.25",
            "--format", "json",
        )
        assert code == 0
        assert json.loads(out)["cevian_ratio"] == pytest.approx(1 / 27, rel=1e-12)

    def test_extremal_corner(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "ratio", "--n", "2", "--lambda", "0.381966,0.381966,0.236068",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["corner_ratios"][2] == pytest.approx(0.0901699, abs=1e-7)
        assert payload["slack_theorem2"] >= 0.0

    def test_renormalization_warning(self, capsys):
        code, out, err = run_cli(
            capsys,
            "ratio", "--n", "2", "--lambda", "2,2,2", "--format", "json",
        )
        assert code == 0
        assert "renormalizing" in err
        assert json.loads(out)["weights"] == pytest.approx([1 / 3] * 3)

    def test_non_interior_exit_3(self, capsys):
        code, _, err = run_cli(
            capsys, "ratio", "--n", "2", "--lambda", "0.5,0.5,0.0",
        )
        assert code == 3
        assert "interior" in err

    def test_malformed_flags_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "ratio", "--n", "2", "--lambda", "0.5,0.5")
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "ratio", "--n", "2", "--lambda", "a,b,c")
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "ratio", "--n", "1", "--lambda", "0.5,0.5")
        assert exc.value.code == 2


class TestConstants:
    def test_csv_schema_and_values(self, capsys):
        code, out, _ = run_cli(
            capsys, "constants", "--n-min", "2", "--n-max", "4", "--format", "csv",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == (
            "n,theta,theta_cf,theta_hyp,f_theta,log_f_theta,"
            "paper_eq3_value,metallic,metallic_cf,metallic_hyp"
        )
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 3
        first = rows[0]
        assert float(first["theta"]) == pytest.approx(0.38196601, abs=1e-8)
        assert float(first["f_theta"]) == pytest.approx(0.09016994, abs=1e-8)
        second = rows[1]
        assert float(second["theta"]) == pytest.approx(0.26794919, abs=1e-8)
        assert float(second["f_theta"]) == pytest.approx(0.00961894, abs=1e-8)
        for row in rows:
            assert abs(float(row["theta_cf"]) - float(row["theta"])) <= 1e-10

    def test_bad_range_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "constants", "--n-min", "5", "--n-max", "3")
        assert exc.value.code == 2


class TestVerify:
    def test_passing_suite_exit_0(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--suite", "theorem1", "--n", "2",
            "--trials", "500", "--seed", "42", "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert set(payload) == {
            "suite", "n", "trials", "seed", "tol", "passed",
            "worst_margin", "max_ratio_observed", "bound", "violations",
        }
        assert payload["passed"] is True
        assert payload["violations"] == []
        assert payload["max_ratio_observed"] <= 0.25

    @pytest.mark.parametrize("tol", ["inf", "1e400", "nan", "0"])
    def test_tolerance_must_be_finite_and_positive(self, capsys, tol):
        # an infinite tolerance would pass every suite
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "verify", "--suite", "eq2", "--n", "2",
                    "--trials", "10", "--tol", tol)
        assert exc.value.code == 2

    def test_moebius_wrong_dimension_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(
                capsys,
                "verify", "--suite", "moebius", "--n", "3", "--trials", "10",
            )
        assert exc.value.code == 2

    def test_dimension_past_the_conditioning_cap_exit_2(self, capsys):
        # no simplex passes the sampler's filter past n = 1000
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "verify", "--suite", "theorem1", "--n", "1001",
                    "--trials", "1")
        assert exc.value.code == 2
        assert "n <= 1000" in capsys.readouterr().err

    def test_json_is_strict_with_sampling_failures(self, capsys, monkeypatch):
        # a conditioning filter that rejects every row leaves every trial
        # unsampled; their infinite margins must print as strings, not as
        # bare Infinity
        def no_constants(name):
            raise ValueError(f"non-standard JSON constant {name}")

        monkeypatch.setattr(
            geometry, "is_well_conditioned",
            lambda vertices, floor: np.zeros(vertices.shape[:-2], dtype=bool),
        )
        argv = ["verify", "--suite", "theorem1", "--n", "10",
                "--trials", "40", "--seed", "3"]
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 1
        payload = json.loads(out, parse_constant=no_constants)
        assert payload["worst_margin"] == "inf"
        failures = [v for v in payload["violations"]
                    if v["inputs_digest"] == "sampling-failure"]
        assert failures and all(v["margin"] == "inf" for v in failures)
        _, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert next(csv.DictReader(io.StringIO(csv_out)))["worst_margin"] == "inf"

    def test_n10_samples_every_trial(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--suite", "theorem1", "--n", "10",
            "--trials", "40", "--seed", "3", "--format", "json",
        )
        assert code == 0
        assert "sampling-failure" not in out
        assert json.loads(out)["passed"] is True

    def test_violations_exit_1(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--suite", "eq2", "--n", "2", "--trials", "50",
            "--seed", "1", "--tol", "1e-18", "--format", "json",
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["passed"] is False
        assert len(payload["violations"]) > 0
        entry = payload["violations"][0]
        assert set(entry) == {"trial_index", "inputs_digest", "margin"}

    def test_csv_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--suite", "segment_ratio", "--n", "3",
            "--trials", "200", "--seed", "2", "--format", "csv",
        )
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == 1
        assert rows[0]["passed"] == "True"
        assert rows[0]["violations"] == "0"
        assert rows[0]["bound"] == ""


class TestOptimize:
    def test_triangle(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "optimize", "--n", "2", "--restarts", "8", "--seed", "0",
            "--format", "json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["argmax_x"] == pytest.approx(0.381966, abs=1e-6)
        assert payload["deviation_1d"] <= 1e-8
        assert payload["max_coordinate_deviation"] <= 1e-5
        assert payload["value_gap"] <= 1e-9
        assert payload["converged_1d"] and payload["converged_simplex"]
        assert payload["distinct_maxima"] == 1

    def test_tetrahedron_weights(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "optimize", "--n", "3", "--restarts", "8", "--seed", "0",
            "--format", "json",
        )
        payload = json.loads(out)
        want = [0.267949, 0.267949, 0.267949, 0.196152]
        got = payload["argmax_weights"]
        assert all(abs(a - b) <= 1e-5 for a, b in zip(got, want))

    @pytest.mark.parametrize("tol", ["inf", "1e400"])
    def test_infinite_tolerance_exit_2(self, capsys, tol):
        # the compass search would stop before its first poll
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "optimize", "--n", "2", "--tol", tol)
        assert exc.value.code == 2

    def test_underflow_exit_4(self, capsys):
        # F underflows at every start, so no restart converges
        code, out, err = run_cli(
            capsys,
            "optimize", "--n", "150", "--restarts", "2", "--seed", "1",
            "--format", "json",
        )
        assert code == 4
        assert out == ""
        assert "did not converge" in err


class TestAuditBounds:
    def test_rows(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit-bounds", "--n-max", "10", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out)
        assert rows[0]["n"] == 2
        assert rows[0]["ratio"] == pytest.approx(9.0, abs=1e-9)
        assert rows[0]["direct_f_theta"] == pytest.approx(0.09016994, abs=1e-8)
        assert rows[1]["ratio"] == pytest.approx(4.0, abs=1e-9)
        for row in rows:
            n = row["n"]
            assert row["direct_times_power"] == pytest.approx(
                (n - 1) ** 2, rel=1e-10
            )
            assert row["flagged"] is True

    def test_strict_json_where_powers_overflow(self, capsys):
        # (n - theta_n)^(n+3) overflows float64 from n = 141
        def no_constants(name):
            raise ValueError(f"non-standard JSON constant {name}")

        code, out, _ = run_cli(
            capsys, "audit-bounds", "--n-max", "200", "--format", "json",
        )
        assert code == 0
        rows = json.loads(out, parse_constant=no_constants)
        assert [row["n"] for row in rows] == list(range(2, 201))
        for row in rows:
            # non-finite values would print as the strings "inf" and "nan"
            assert isinstance(row["ratio"], float), row
            assert isinstance(row["direct_times_power"], float), row

    def test_csv_columns(self, capsys):
        code, out, _ = run_cli(capsys, "audit-bounds", "--n-max", "3", "--format", "csv")
        assert out.splitlines()[0] == (
            "n,direct_f_theta,paper_eq3_value,ratio,direct_times_power,flagged"
        )


class TestFormatsAgree:
    def test_same_numbers_across_formats(self, capsys):
        argv = ["ratio", "--n", "2", "--lambda", "0.4,0.35,0.25"]
        _, text_out, _ = run_cli(capsys, *argv, "--format", "text")
        _, json_out, _ = run_cli(capsys, *argv, "--format", "json")
        _, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
        payload = json.loads(json_out)
        text_value = next(
            line.split("=")[1].strip()
            for line in text_out.splitlines()
            if line.startswith("cevian_ratio")
        )
        row = next(csv.DictReader(io.StringIO(csv_out)))
        assert float(text_value) == payload["cevian_ratio"]
        assert float(row["cevian_ratio"]) == payload["cevian_ratio"]
        # 15 significant digits in the printed forms
        assert len(text_value.replace(".", "").replace("-", "").lstrip("0")) >= 14

    def test_text_and_csv_layouts(self, capsys):
        def text_keys(out):
            return [line.split(" = ")[0] for line in out.splitlines()]

        ratio = ["ratio", "--n", "2", "--lambda", "0.4,0.35,0.25"]
        _, text_out, _ = run_cli(capsys, *ratio, "--format", "text")
        _, json_out, _ = run_cli(capsys, *ratio, "--format", "json")
        _, csv_out, _ = run_cli(capsys, *ratio, "--format", "csv")
        assert text_keys(text_out) == [
            "n", "weights", "corner_ratios", "cevian_ratio", "theorem1_bound",
            "slack_theorem1", "theorem2_value", "slack_theorem2",
        ]
        assert sorted(text_keys(text_out)) == list(json.loads(json_out))
        assert csv_out.splitlines()[0] == (
            "n,cevian_ratio,theorem1_bound,theorem2_value,slack_theorem1,"
            "slack_theorem2,corner_ratio_0,corner_ratio_1,corner_ratio_2"
        )

        optimize = ["optimize", "--n", "2", "--restarts", "2", "--seed", "1"]
        _, text_out, _ = run_cli(capsys, *optimize, "--format", "text")
        _, json_out, _ = run_cli(capsys, *optimize, "--format", "json")
        _, csv_out, _ = run_cli(capsys, *optimize, "--format", "csv")
        columns = [
            "n", "restarts", "seed", "theta", "theorem2_value", "argmax_x",
            "value_1d", "iterations_1d", "deviation_1d", "converged_1d",
            "argmax_weights", "value_simplex", "iterations_simplex",
            "max_coordinate_deviation", "value_gap", "converged_simplex",
            "distinct_maxima",
        ]
        assert text_keys(text_out) == columns
        assert sorted(columns) == list(json.loads(json_out))
        columns.remove("argmax_weights")
        assert csv_out.splitlines()[0] == ",".join(columns)

        # eq2 has no bound; at tol 1e-18 every one of the 50 trials violates
        _, text_out, _ = run_cli(
            capsys, "verify", "--suite", "eq2", "--n", "2", "--trials", "50",
            "--seed", "1", "--tol", "1e-18", "--format", "text",
        )
        lines = text_out.splitlines()
        assert "bound = n/a" in lines
        assert "violations = 50" in lines
        trial_lines = [line for line in lines if line.startswith("  trial ")]
        assert len(trial_lines) == 20
        assert lines[-1].startswith("elapsed_seconds = ")
        assert lines[-21:-1] == trial_lines

        _, text_out, _ = run_cli(
            capsys, "constants", "--n-min", "4", "--n-max", "4", "--format", "text",
        )
        header, row = text_out.splitlines()
        assert header.split() == [
            "n", "theta", "theta_cf", "theta_hyp", "f_theta", "log_f_theta",
            "paper_eq3_value", "metallic", "metallic_cf", "metallic_hyp",
        ]
        assert row.split()[0] == "4" and " = " not in text_out

        _, text_out, _ = run_cli(capsys, "audit-bounds", "--n-max", "3")
        assert text_out.splitlines()[-1] == (
            "flagged rows (displayed coefficient != direct value): n = 2, 3"
        )

    def test_reruns_are_identical(self, capsys):
        argv = [
            "verify", "--suite", "theorem2", "--n", "3",
            "--trials", "300", "--seed", "9", "--format", "json",
        ]
        _, first, _ = run_cli(capsys, *argv)
        _, second, _ = run_cli(capsys, *argv)
        assert first == second


def test_version(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_closed_stdout_exits_141_without_traceback():
    # a reader that stops early, like `cevians constants ... | head -1`
    src = str(Path(geometry.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-m", "cevians.cli", "constants", "--n-max", "2000",
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""
