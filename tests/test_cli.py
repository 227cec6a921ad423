"""Command-line interface: flags, formats, exit codes, schemas."""
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from cevians import geometry, harness
from cevians.cli import build_parser, main


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
        # also for weights whose sum overflows
        for weights in ("2,2,2", "1e308,1e308,1e308"):
            code, out, err = run_cli(
                capsys,
                "ratio", "--n", "2", "--lambda", weights, "--format", "json",
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

    @pytest.mark.parametrize("weights", ["1,1,inf", "1,1,0"])
    def test_refused_point_gets_no_renormalization_warning(self, capsys, weights):
        # the sum is off by more than 1e-9, but the point is refused, so
        # the error is the only line on stderr
        code, out, err = run_cli(capsys, "ratio", "--n", "2", "--lambda", weights)
        assert code == 3 and out == ""
        assert err.startswith("error: not an interior point:")
        assert err.count("\n") == 1 and "warning" not in err

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
        # the sampler's sigma law keeps kappa_F(E) <= 999, and kappa_F >= n
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "verify", "--suite", "theorem1", "--n", "1000",
                    "--trials", "1")
        assert exc.value.code == 2
        assert "n <= 999" in capsys.readouterr().err

    def test_json_is_strict_with_infinite_margins(self, capsys, monkeypatch):
        # a check that overflows on some trials: their infinite margins and
        # observations must print as strings, not as bare Infinity
        def no_constants(name):
            raise ValueError(f"non-standard JSON constant {name}")

        def overflowing(batch):
            return np.where(np.arange(len(batch.weights)) % 3 == 0, np.inf, -1.0)

        suite = harness.SUITE_TABLE["theorem1"]
        monkeypatch.setitem(harness.SUITE_TABLE, "theorem1",
                            dataclasses.replace(suite, check=overflowing))
        argv = ["verify", "--suite", "theorem1", "--n", "10",
                "--trials", "40", "--seed", "3"]
        code, out, _ = run_cli(capsys, *argv, "--format", "json")
        assert code == 1
        payload = json.loads(out, parse_constant=no_constants)
        assert payload["worst_margin"] == "inf"
        assert payload["max_ratio_observed"] == "inf"
        margins = [v["margin"] for v in payload["violations"]]
        assert len(margins) == 14 and set(margins) == {"inf"}
        _, csv_out, _ = run_cli(capsys, *argv, "--format", "csv")
        assert next(csv.DictReader(io.StringIO(csv_out)))["worst_margin"] == "inf"

    @pytest.mark.parametrize("suite, n", [("eq2", 150), ("affine", 150),
                                          ("decomposition", 140)])
    def test_underflowed_ratios_never_pass(self, capsys, suite, n):
        # past float64 underflow the ratios these suites divide by are 0, so
        # margins are NaN or inf: every trial is a violation, no warning
        # escapes, and worst_margin is NaN rather than max(-inf, nan) = -inf
        code, out, err = run_cli(
            capsys, "verify", "--suite", suite, "--n", str(n),
            "--trials", "3", "--seed", "1", "--format", "json",
        )
        payload = json.loads(out)
        assert code == 1 and payload["passed"] is False
        assert [v["trial_index"] for v in payload["violations"]] == [0, 1, 2]
        assert payload["worst_margin"] == "nan"
        assert err == ""

    def test_unknown_suite_exit_2_names_every_suite(self, capsys):
        with pytest.raises(SystemExit) as exc:
            run_cli(capsys, "verify", "--suite", "bogus", "--n", "2")
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "argument --suite: invalid choice: 'bogus' (choose from " in err
        assert all(repr(suite) in err for suite in harness.SUITES)

    @pytest.mark.parametrize("suite", harness.SUITES)
    def test_every_suite_parses(self, suite):
        args = build_parser().parse_args(["verify", "--suite", suite, "--n", "2"])
        assert args.suite == suite

    def test_n150_samples_every_trial(self, capsys):
        # box-uniform vertices with a redraw filter sampled none of these
        # in 76 s and exited 1
        code, out, _ = run_cli(
            capsys,
            "verify", "--suite", "theorem1", "--n", "150",
            "--trials", "3", "--seed", "1", "--format", "json",
        )
        assert code == 0
        assert "sampling-failure" not in out
        assert json.loads(out)["passed"] is True

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


@pytest.mark.parametrize(
    "argv, message",
    [
        ("ratio --n 2 --lambda 1,2", "--lambda needs exactly n+1 = 3 entries, got 2"),
        (
            "ratio --n 2 --lambda 1,x,2",
            "--lambda must be a comma-separated list of numbers, got '1,x,2'",
        ),
        ("constants --n-min 5 --n-max 3", "--n-min 5 exceeds --n-max 3"),
        ("verify --suite moebius --n 3 --trials 3", "the moebius suite needs n <= 2"),
        ("verify --suite eq2 --n 1000 --trials 1", "suites need n <= 999: kappa_F(E) >= n"),
    ],
    ids=["ratio-count", "ratio-numbers", "constants-range", "verify-moebius", "verify-n"],
)
def test_usage_errors_after_parsing_name_their_subcommand(capsys, argv, message):
    # as argparse's own flag errors do
    sub = argv.split()[0]
    with pytest.raises(SystemExit) as exc:
        run_cli(capsys, *argv.split())
    assert exc.value.code == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0].startswith(f"usage: cevians {sub} "), lines
    assert lines[-1] == f"cevians {sub}: error: {message}"


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
        verify = [
            "verify", "--suite", "eq2", "--n", "2", "--trials", "50",
            "--seed", "1", "--tol", "1e-18",
        ]
        _, text_out, _ = run_cli(capsys, *verify, "--format", "text")
        _, csv_out, _ = run_cli(capsys, *verify, "--format", "csv")
        columns = [
            "suite", "n", "trials", "seed", "tol", "passed", "worst_margin",
            "max_ratio_observed", "bound", "violations",
        ]
        assert text_keys(text_out)[: len(columns)] == columns
        assert csv_out.splitlines()[0] == ",".join(columns)
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


def _src_env():
    src = str(Path(geometry.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def test_python_dash_m_runs_the_cli(capsys):
    argv = ["constants", "--n-max", "3", "--format", "json"]
    proc = subprocess.run([sys.executable, "-m", "cevians", *argv], env=_src_env(),
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert (0, proc.stdout) == run_cli(capsys, *argv)[:2]


def test_closed_stdout_exits_141_without_traceback():
    # a reader that stops early, like `cevians constants ... | head -1`
    proc = subprocess.Popen(
        [sys.executable, "-m", "cevians.cli", "constants", "--n-max", "2000",
         "--format", "json"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=_src_env(),
    )
    assert proc.stdout.readline() == b"[\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_internal_error_exits_5_with_traceback(capsys, monkeypatch):
    # exit 1 means suite violations, so a harness failure, such as a forked
    # pass process killed before it reports, must exit with its own code
    def killed(plan):
        raise ChildProcessError("pass process 1234 exited with status -9")

    monkeypatch.setattr(harness, "run_suite", killed)
    code, out, err = run_cli(
        capsys, "verify", "--suite", "eq2", "--n", "2", "--trials", "10"
    )
    assert code == 5
    assert out == ""
    assert "Traceback" in err and "ChildProcessError: pass process 1234" in err
