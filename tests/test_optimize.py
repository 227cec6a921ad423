"""Reduced objective, its derivative, and both maximizers."""
import math

import numpy as np
import pytest

from cevians import (
    BarycentricPoint,
    ConvergenceError,
    F,
    OutOfDomainError,
    UnsupportedDimensionError,
    corner_ratio,
    f,
    f_prime,
    maximize_F_simplex,
    maximize_f_1d,
    theorem2_value,
    theta,
)

from oracles import finite_difference_points, grid_golden_max


class TestReducedObjective:
    def test_simple_value(self):
        assert f(1 / 3, 2) == pytest.approx(1 / 12, rel=1e-15)

    def test_extremal_values_match_displayed_constants(self):
        assert f(theta(2), 2) == pytest.approx(32 / (math.sqrt(5) + 1) ** 5, rel=1e-12)
        assert f(theta(3), 3) == pytest.approx(4 / (1 + math.sqrt(3)) ** 6, rel=1e-12)

    def test_domain_enforced(self):
        for bad in (0.0, 0.5, -0.1, 1.0):
            with pytest.raises(OutOfDomainError):
                f(bad, 2)
        with pytest.raises(UnsupportedDimensionError):
            f(0.2, 1)

    def test_vanishes_toward_endpoints(self):
        for n in (2, 5):
            assert f(1e-12, n) < 1e-20
            assert f(1.0 / n - 1e-12, n) < 1e-10


class TestDerivative:
    def test_zero_at_maximizer(self):
        assert abs(f_prime(theta(2), 2)) <= 1e-10
        assert abs(f_prime(theta(3), 3)) <= 1e-10

    def test_sign_pattern(self):
        assert f_prime(0.1, 3) > 0.0  # 0.1 < theta_3
        for n in (2, 3, 5):
            t = theta(n)
            assert f_prime(0.5 * t, n) > 0.0
            assert f_prime(0.5 * (t + 1.0 / n), n) < 0.0

    @pytest.mark.parametrize("x, n", [(1e-308, 2), (1e-306, 200)])
    def test_zero_where_f_underflows(self, x, n):
        # f is 0 there and n / (x (1-x)) overflows; 0 * inf would be NaN
        assert f(x, n) == 0.0
        assert f_prime(x, n) == 0.0

    def test_matches_central_differences(self):
        # rel <= 1e-6 against (f(x+h)-f(x-h))/2h, sampled where the relative
        # comparison is well posed (see oracles.finite_difference_points)
        h = 1e-6
        for n, x in finite_difference_points(np.random.default_rng(17), 1000, step=h):
            fd = (f(x + h, n) - f(x - h, n)) / (2 * h)
            assert f_prime(x, n) == pytest.approx(fd, rel=1e-6)


class TestObjective:
    def test_centroid(self):
        assert F(BarycentricPoint([1, 1, 1])) == pytest.approx(1 / 12, rel=1e-14)

    def test_extremal_point(self):
        t = theta(2)
        m = BarycentricPoint([t, t, 1 - 2 * t])
        assert F(m) == pytest.approx(0.09016994374947424, rel=1e-12)

    def test_equals_last_corner_ratio(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            w = rng.dirichlet(np.ones(5))
            if w.min() < 1e-6:
                continue
            assert F(w) == corner_ratio(w, 4)

    def test_symmetric_in_leading_weights(self):
        w = np.array([0.1, 0.2, 0.3, 0.4])
        for perm in ([1, 0, 2, 3], [2, 1, 0, 3], [1, 2, 0, 3]):
            assert F(w[perm]) == pytest.approx(F(w), rel=1e-14)

    def test_reduction_consistency(self):
        # F at the symmetric point (x, ..., x, 1-nx) is f(x) exactly
        rng = np.random.default_rng(4)
        for n in (2, 3, 5, 8):
            for _ in range(50):
                x = rng.uniform(1e-3 / n, (1.0 - 1e-3) / n)
                w = np.append(np.full(n, x), 1.0 - n * x)
                assert F(w) == pytest.approx(f(x, n), rel=1e-14)

    def test_pairwise_symmetrization_does_not_decrease(self):
        # averaging two of the first n weights never decreases F
        rng = np.random.default_rng(5)
        for n in (2, 3, 5):
            for _ in range(200):
                w = rng.dirichlet(np.ones(n + 1))
                if w.min() < 1e-6:
                    continue
                i, j = rng.choice(n, size=2, replace=False)
                v = w.copy()
                v[i] = v[j] = 0.5 * (w[i] + w[j])
                assert F(v) >= F(w) - 1e-12


class TestScalarMaximizer:
    @pytest.mark.parametrize("n", [*range(2, 11), 140, 200])
    def test_recovers_theta(self, n):
        res = maximize_f_1d(n, tol=1e-10)
        assert res.converged
        assert abs(res.argmax - theta(n)) <= 1e-8
        assert res.value == pytest.approx(f(res.argmax, n), rel=1e-12)
        assert res.first_order_residual <= 1e-6
        assert res.iterations < 10_000

    def test_converged_at_every_n(self):
        # the curvature of log f grows like n^3; a residual scaled by it must
        # still pass GRADIENT_TOL, and a bracket width relative to its upper
        # end resolves theta_n ~ 1/n at every n
        for n in [*range(2, 2001), 10**4, 10**5, 10**6, 10**7, 10**8, 10**9]:
            res = maximize_f_1d(n)
            assert res.converged, (n, res.first_order_residual)
            assert abs(res.argmax - theta(n)) <= 1e-10 * theta(n), n

    def test_known_values(self):
        assert maximize_f_1d(2).argmax == pytest.approx(0.38196601, abs=1e-8)
        assert maximize_f_1d(3).argmax == pytest.approx(0.26794919, abs=1e-8)

    def test_deterministic(self):
        a = maximize_f_1d(4, tol=1e-10)
        b = maximize_f_1d(4, tol=1e-10)
        assert a.argmax == b.argmax and a.iterations == b.iterations

    def test_unreachable_tolerance_raises(self):
        with pytest.raises(ConvergenceError):
            maximize_f_1d(2, tol=1e-300)

    def test_validation(self):
        with pytest.raises(UnsupportedDimensionError):
            maximize_f_1d(1)
        for tol in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                maximize_f_1d(2, tol=tol)


class TestSimplexMaximizer:
    def test_triangle_case(self):
        res = maximize_F_simplex(2, restarts=16, seed=0)
        assert res.converged
        assert np.allclose(
            res.argmax.weights, [0.381966, 0.381966, 0.236068], atol=1e-5
        )
        assert res.value == pytest.approx(0.09016994374947424, abs=1e-9)

    def test_tetrahedron_case(self):
        res = maximize_F_simplex(3, restarts=16, seed=0)
        want = [0.267949, 0.267949, 0.267949, 0.196152]
        assert np.allclose(res.argmax.weights, want, atol=1e-5)

    def test_matches_grid_search_oracle(self):
        res = maximize_F_simplex(4, restarts=16, seed=0)
        _, best = grid_golden_max(4)
        assert abs(res.value - best) <= 1e-6
        assert res.value == pytest.approx(theorem2_value(4), abs=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_recovers_symmetric_maximizer(self, n):
        res = maximize_F_simplex(n, restarts=8, seed=11)
        t = theta(n)
        w = res.argmax.weights
        assert np.abs(w[:n] - t).max() <= 1e-5
        assert w[:n].max() - w[:n].min() <= 1e-5
        assert abs(w[n] - (1 - n * t)) <= 1e-5
        assert res.value == pytest.approx(F(res.argmax), rel=1e-12)
        assert res.first_order_residual <= 1e-6
        assert res.restarts_used == 8
        assert len(res.restart_log) == 8

    def test_deterministic_given_seed(self):
        a = maximize_F_simplex(3, restarts=6, seed=42)
        b = maximize_F_simplex(3, restarts=6, seed=42)
        assert np.array_equal(a.argmax.weights, b.argmax.weights)
        assert a.value == b.value and a.iterations == b.iterations
        assert a.restart_log == b.restart_log
        c = maximize_F_simplex(3, restarts=6, seed=43)
        assert not np.array_equal(a.argmax.weights, c.argmax.weights)

    def test_multistart_log_shows_single_optimum(self):
        res = maximize_F_simplex(3, restarts=12, seed=2)
        points = {
            tuple(round(x, 5) for x in entry[4])
            for entry in res.restart_log
            if entry[2]
        }
        assert len(points) == 1  # no non-symmetric stationary points observed

    @pytest.mark.parametrize("n", [12, 20, 30])
    def test_every_restart_converges_at_higher_n(self, n):
        res = maximize_F_simplex(n, restarts=4, seed=1)
        assert res.converged
        assert all(entry[2] for entry in res.restart_log)
        assert np.abs(res.argmax.weights[:n] - theta(n)).max() <= 1e-6

    def test_loose_tolerance_is_not_converged(self):
        # a step below 1e-2 stops the search far from the maximizer; the
        # residual of log F must say so
        res = maximize_F_simplex(12, restarts=4, tol=1e-2, seed=1)
        assert not res.converged
        assert res.first_order_residual > 1e-6

    def test_underflow_at_every_start_raises(self):
        # F underflows to 0 near every start at n = 150, so log F is -inf
        # there and no restart can report a maximum
        with pytest.raises(ConvergenceError):
            maximize_F_simplex(150, restarts=2, seed=1)

    def test_restart_independent_of_restart_count(self):
        few = maximize_F_simplex(5, restarts=4, seed=3)
        many = maximize_F_simplex(5, restarts=16, seed=3)
        assert few.restart_log == many.restart_log[:4]

    def test_validation(self):
        with pytest.raises(UnsupportedDimensionError):
            maximize_F_simplex(1)
        with pytest.raises(ValueError):
            maximize_F_simplex(2, restarts=0)
        for tol in (-1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                maximize_F_simplex(2, tol=tol)
