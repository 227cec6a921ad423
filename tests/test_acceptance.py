"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings.  Criteria 3-7 run the full seeded trial counts, so this
module takes about 10 s; everything else is milliseconds.
"""
import contextlib
import json
import math
import time

import numpy as np
import pytest

import cevians as cv
from cevians import harness
from cevians.cli import main as cli_main
from cevians.harness import SUITE_TABLE, _draw_trial, _TrialStream

from oracles import finite_difference_points


@contextlib.contextmanager
def criterion(num, description):
    start = time.perf_counter()
    try:
        yield
    except BaseException:
        print(f"[criterion {num:02d}] FAIL - {description}")
        raise
    print(
        f"[criterion {num:02d}] PASS - {description} "
        f"({time.perf_counter() - start:.2f}s)"
    )


def test_criterion_01_constants_closed_forms():
    with criterion(1, "theta closed forms and three-way agreement"):
        assert abs(cv.theta(2) - (3 - math.sqrt(5)) / 2) <= 1e-12
        assert abs(cv.theta(3) - (2 - math.sqrt(3))) <= 1e-12
        for n in range(2, 11):
            three = [cv.theta(n), cv.theta_cf(n, 40), cv.theta_hyperbolic(n)]
            assert max(three) - min(three) <= 1e-10


def test_criterion_02_extremal_special_cases():
    with criterion(2, "extremal values 32/(sqrt5+1)^5 and 4/(1+sqrt3)^6"):
        want2 = 32 / (math.sqrt(5) + 1) ** 5
        want3 = 4 / (1 + math.sqrt(3)) ** 6
        assert abs(cv.theorem2_value(2) - want2) <= 1e-12 * want2
        assert abs(cv.theorem2_value(3) - want3) <= 1e-12 * want3
        assert cv.theorem2_value(2) == pytest.approx(0.09016994, abs=5e-9)
        assert cv.theorem2_value(3) == pytest.approx(0.00961894, abs=5e-9)


def test_criterion_03_cevian_volume_bound_at_scale():
    with criterion(3, "cevian ratio <= n^-n over 1e5 trials, n=2..6"):
        for n in range(2, 7):
            plan = cv.TrialPlan(
                suite="theorem1", n=n, trials=100_000, seed=1000 + n, tol=1e-12
            )
            report = cv.run_suite(plan)
            assert report.passed, f"n={n}: {len(report.violations)} violations"
            assert report.max_ratio_observed <= cv.theorem1_bound(n) + 1e-12
            # equality at the centroid, closed form and determinant route
            centroid = np.full(n + 1, 1.0 / (n + 1))
            assert abs(cv.cevian_ratio(centroid) - cv.theorem1_bound(n)) <= 1e-12
            # the simplex of the plan's trial 0, from the suites' own stream
            verts, _ = _draw_trial(
                _TrialStream(plan.seed), SUITE_TABLE["theorem1"], n, np.arange(1)
            )
            simplex = cv.CartesianSimplex(verts[0])
            cfg = cv.build_configuration(simplex, cv.BarycentricPoint(centroid))
            det_ratio = cv.simplex_volume(cfg.feet_cart) / cv.volume(simplex)
            assert abs(det_ratio - cv.theorem1_bound(n)) <= 1e-12


def test_criterion_04_corner_formula_oracle_equivalence():
    with criterion(4, "corner formula vs determinant, rel 1e-9, 1e4 x n=2..5"):
        for n in range(2, 6):
            plan = cv.TrialPlan(
                suite="eq2", n=n, trials=10_000, seed=2000 + n, tol=1e-9
            )
            report = cv.run_suite(plan)
            assert report.passed, f"n={n}: {len(report.violations)} violations"
            assert report.max_ratio_observed <= 1e-9


def test_criterion_05_decomposition_identity():
    with criterion(5, "sum of corner ratios = cevian ratio, rel 1e-12"):
        for n in range(2, 7):
            plan = cv.TrialPlan(
                suite="decomposition", n=n, trials=100_000, seed=1000 + n, tol=1e-12
            )
            report = cv.run_suite(plan)
            assert report.passed, f"n={n}: {len(report.violations)} violations"
            assert report.max_ratio_observed <= 1e-12


def test_criterion_06_moebius_relation():
    with criterion(6, "|4pqr - x^2(p+q+r+x)| <= 1e-10 S^3 over 1e5 triangles"):
        plan = cv.TrialPlan(suite="moebius", n=2, trials=100_000, seed=3000, tol=1e-10)
        report = cv.run_suite(plan)
        assert report.passed, f"{len(report.violations)} violations"
        assert report.max_ratio_observed <= 1e-10


def test_criterion_07_optimizers_recover_extremal_point():
    with criterion(7, "both optimizers recover theta_n for n=2..8"):
        for n in range(2, 9):
            t = cv.theta(n)
            one_d = cv.maximize_f_1d(n, tol=1e-10)
            assert one_d.converged
            assert abs(one_d.argmax - t) <= 1e-8
            full = cv.maximize_F_simplex(n, restarts=16, tol=1e-9, seed=0)
            assert full.converged
            w = full.argmax.weights
            assert np.abs(w[:n] - t).max() <= 1e-5
            assert w[:n].max() - w[:n].min() <= 1e-5
            assert abs(w[n] - (1 - n * t)) <= 1e-5
            assert abs(full.value - cv.theorem2_value(n)) <= 1e-9


def test_criterion_08_displayed_bound_audit():
    with criterion(8, "displayed coefficient off by 9 (n=2) and 4 (n=3); "
                      "f(theta_n)(n-theta_n)^(n+3) = (n-1)^2"):
        audit2 = cv.audit_bound(2)
        audit3 = cv.audit_bound(3)
        assert abs(audit2.ratio - 9.0) <= 1e-9
        assert abs(audit3.ratio - 4.0) <= 1e-9
        want2 = 32 / (math.sqrt(5) + 1) ** 5
        want3 = 4 / (1 + math.sqrt(3)) ** 6
        assert abs(audit2.direct_value - want2) <= 1e-12 * want2
        assert abs(audit3.direct_value - want3) <= 1e-12 * want3
        for n in range(2, 11):
            got = cv.audit_bound(n).direct_times_power
            assert abs(got - (n - 1) ** 2) <= 1e-10 * (n - 1) ** 2


def test_criterion_09_derivative_against_finite_differences():
    with criterion(9, "f' vs central differences, rel 1e-6, 1e3 points"):
        h = 1e-6
        points = finite_difference_points(np.random.default_rng(99), 1000, step=h)
        for n, x in points:
            fd = (cv.f(x + h, n) - cv.f(x - h, n)) / (2 * h)
            assert abs(cv.f_prime(x, n) - fd) <= 1e-6 * abs(fd)


def test_criterion_10_reproducibility(capsys, monkeypatch):
    with criterion(10, "identical flags give identical reports; batching too"):
        verify_argv = [
            "verify", "--suite", "theorem2", "--n", "4",
            "--trials", "2000", "--seed", "123", "--format", "json",
        ]
        cli_main(verify_argv)
        first = capsys.readouterr().out
        cli_main(verify_argv)
        second = capsys.readouterr().out
        assert first == second
        opt_argv = [
            "optimize", "--n", "3", "--restarts", "8", "--seed", "7",
            "--format", "json",
        ]
        cli_main(opt_argv)
        opt_first = capsys.readouterr().out
        cli_main(opt_argv)
        opt_second = capsys.readouterr().out
        assert opt_first == opt_second
        # execution batching must not affect the report (serial = batched)
        plan = cv.TrialPlan(suite="eq2", n=3, trials=400, seed=5)
        monkeypatch.setattr(harness, "_pass_trials", lambda n: 1)
        serial = cv.run_suite(plan).to_dict()
        monkeypatch.setattr(harness, "_pass_trials", lambda n: 4096)
        batched = cv.run_suite(plan).to_dict()
        assert json.dumps(serial, sort_keys=True) == json.dumps(
            batched, sort_keys=True
        )
