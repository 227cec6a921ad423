"""Closed-form ratios and bounds against determinant and high-precision oracles."""
import math

import mpmath
import numpy as np
import pytest

from cevians import (
    BarycentricPoint,
    CartesianSimplex,
    DimensionMismatchError,
    F,
    MoebiusAreas,
    NotInteriorError,
    UnsupportedDimensionError,
    audit_bound,
    build_configuration,
    cevian_ratio,
    constants_row,
    corner_ratio,
    corner_simplex_vertices,
    moebius_areas,
    moebius_residual,
    ratio_breakdown,
    simplex_volume,
    theorem1_bound,
    theorem1_bound_log,
    theorem2_value,
    theorem2_value_log,
    theta,
    volume,
)

from oracles import conditioned_configuration, grid_golden_max

PHI = (1 + math.sqrt(5)) / 2
TRIANGLE_EXTREMAL = 32 / (math.sqrt(5) + 1) ** 5      # = phi^-5
TET_EXTREMAL = 4 / (1 + math.sqrt(3)) ** 6


class TestCornerRatio:
    def test_centroid_triangle(self):
        m = BarycentricPoint([1, 1, 1])
        assert corner_ratio(m, 2) == pytest.approx(1 / 12, rel=1e-14)

    def test_extremal_point_matches_displayed_constant(self):
        t = theta(2)
        m = BarycentricPoint([t, t, 1 - 2 * t])
        assert corner_ratio(m, 2) == pytest.approx(TRIANGLE_EXTREMAL, rel=1e-12)

    def test_index_validation(self):
        m = BarycentricPoint([1, 1, 1])
        with pytest.raises(IndexError):
            corner_ratio(m, 3)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_against_determinant_volumes(self, n):
        rng = np.random.default_rng(40 + n)
        for _ in range(30):
            verts, w = conditioned_configuration(rng, n)
            cfg = build_configuration(CartesianSimplex(verts), BarycentricPoint(w))
            base = volume(cfg.simplex)
            for k in range(n + 1):
                oracle = simplex_volume(corner_simplex_vertices(cfg, k)) / base
                assert corner_ratio(w, k) == pytest.approx(oracle, rel=1e-9)


class TestRawWeights:
    """A raw weight vector is a ``BarycentricPoint``: renormalized, finite
    and interior, for every scalar closed form and the objective F."""

    @pytest.mark.parametrize("raw", [[0.5, 0.5, 0.5], [1, 1, 1]])
    def test_renormalized_to_the_centroid(self, raw):
        centroid = BarycentricPoint([1, 1, 1])
        assert cevian_ratio(raw) == cevian_ratio(centroid) == pytest.approx(0.25)
        assert corner_ratio(raw, 0) == corner_ratio(centroid, 0) == pytest.approx(1 / 12)
        assert F(raw) == F(centroid) == corner_ratio(centroid, 2)
        got, want = ratio_breakdown(raw), ratio_breakdown(centroid)
        assert got.cevian_ratio == want.cevian_ratio
        assert np.array_equal(got.corner_ratios, want.corner_ratios)

    @pytest.mark.parametrize(
        "raw, error",
        [([0.6, 0.6, -0.2], NotInteriorError), ([0.2, np.nan, 0.8], NotInteriorError),
         ([[0.2, 0.3, 0.5]], DimensionMismatchError), ([0.5, 0.5], UnsupportedDimensionError)],
    )
    def test_refused_like_a_point(self, raw, error):
        for closed_form in (lambda w: corner_ratio(w, 0), cevian_ratio, ratio_breakdown, F):
            with pytest.raises(error):
                closed_form(raw)


class TestCevianRatio:
    def test_centroid_values(self):
        assert cevian_ratio(BarycentricPoint([1, 1, 1])) == pytest.approx(
            0.25, rel=1e-13
        )
        assert cevian_ratio(BarycentricPoint([1, 1, 1, 1])) == pytest.approx(
            1 / 27, rel=1e-13
        )

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_against_determinant_volumes(self, n):
        rng = np.random.default_rng(60 + n)
        for _ in range(30):
            verts, w = conditioned_configuration(rng, n)
            cfg = build_configuration(CartesianSimplex(verts), BarycentricPoint(w))
            oracle = simplex_volume(cfg.feet_cart) / volume(cfg.simplex)
            assert cevian_ratio(w) == pytest.approx(oracle, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_bounded_with_centroid_equality(self, n):
        rng = np.random.default_rng(80 + n)
        bound = theorem1_bound(n)
        for _ in range(400):
            w = rng.dirichlet(np.ones(n + 1))
            if w.min() < 1e-8:
                continue
            assert cevian_ratio(w) <= bound + 1e-12
        centroid = np.full(n + 1, 1.0 / (n + 1))
        assert abs(cevian_ratio(centroid) - bound) <= 1e-12


class TestDecompositionIdentity:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_corner_sum_equals_cevian(self, n):
        rng = np.random.default_rng(90 + n)
        for _ in range(400):
            w = rng.dirichlet(np.ones(n + 1))
            if w.min() < 1e-8:
                continue
            total = sum(corner_ratio(w, k) for k in range(n + 1))
            assert total == pytest.approx(cevian_ratio(w), rel=1e-12)


class TestPerCornerBound:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_proof_step_bound(self, n):
        # corner k is at most (1 - w_k) / n^(n+1), the per-corner piece of
        # the decomposition bound
        rng = np.random.default_rng(110 + n)
        for _ in range(400):
            w = rng.dirichlet(np.ones(n + 1))
            if w.min() < 1e-8:
                continue
            for k in range(n + 1):
                cap = (1 - w[k]) / n ** (n + 1)
                assert corner_ratio(w, k) <= cap + 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_theorem2_bound_at_last_corner(self, n):
        rng = np.random.default_rng(130 + n)
        cap = theorem2_value(n)
        for _ in range(400):
            w = rng.dirichlet(np.ones(n + 1))
            if w.min() < 1e-8:
                continue
            assert corner_ratio(w, n) <= cap + 1e-12


class TestBounds:
    def test_theorem1_bound_values(self):
        assert theorem1_bound(2) == 0.25
        assert theorem1_bound(3) == pytest.approx(1 / 27, rel=1e-15)
        assert theorem1_bound(10) == pytest.approx(1e-10, rel=1e-15)
        with pytest.raises(UnsupportedDimensionError):
            theorem1_bound(1)

    def test_theorem1_bound_log_survives_underflow(self):
        assert theorem1_bound(200) == 0.0  # underflows as documented
        assert theorem1_bound_log(200) == pytest.approx(-200 * math.log(200), rel=1e-15)
        assert theorem1_bound_log(3) == pytest.approx(math.log(theorem1_bound(3)), rel=1e-12)

    def test_theorem2_displayed_special_cases(self):
        assert theorem2_value(2) == pytest.approx(TRIANGLE_EXTREMAL, rel=1e-12)
        assert theorem2_value(3) == pytest.approx(TET_EXTREMAL, rel=1e-12)
        assert theorem2_value(2) == pytest.approx(PHI**-5, rel=1e-12)

    def test_theorem2_value_against_brute_force(self):
        _, best = grid_golden_max(4)
        assert abs(theorem2_value(4) - best) <= 1e-10

    def test_theorem2_value_inside_interval(self):
        for n in range(2, 30):
            v = theorem2_value(n)
            assert 0.0 < v < theorem1_bound(n)

    def test_theorem2_value_log(self):
        for n in (2, 3, 10, 50):
            assert theorem2_value_log(n) == pytest.approx(
                math.log(theorem2_value(n)), rel=1e-12
            )
        # log form keeps working past float64 underflow of the linear form
        assert theorem2_value(400) == 0.0
        assert theorem2_value_log(400) < -2000


class TestBoundAudit:
    def test_triangle_row(self):
        audit = audit_bound(2)
        assert audit.direct_value == pytest.approx(TRIANGLE_EXTREMAL, rel=1e-12)
        assert audit.paper_value == pytest.approx(9 / PHI**5, rel=1e-12)
        assert audit.ratio == pytest.approx(9.0, abs=1e-9)

    def test_tetrahedron_row(self):
        audit = audit_bound(3)
        assert audit.direct_value == pytest.approx(TET_EXTREMAL, rel=1e-12)
        assert audit.paper_value == pytest.approx(16 / (1 + math.sqrt(3)) ** 6, rel=1e-12)
        assert audit.ratio == pytest.approx(4.0, abs=1e-9)

    def test_direct_times_power_matches_square_constant(self):
        # f(theta_n) (n - theta_n)^(n+3) lands exactly on (n-1)^2; checked in
        # float64 against the conjectured constant and against a 50-digit
        # evaluation of the same product
        mpmath.mp.dps = 50
        for n in [*range(2, 11), 141, 200]:
            audit = audit_bound(n)
            assert audit.direct_times_power == pytest.approx(
                (n - 1) ** 2, rel=1e-10
            )
            t = (n + 1 - mpmath.sqrt(n * n + 2 * n - 3)) / 2
            f_t = (t / (1 - t)) ** n * (1 - n * t)
            hp = f_t * (n - t) ** (n + 3)
            assert abs(hp - (n - 1) ** 2) < mpmath.mpf(10) ** -40
            assert audit.direct_times_power == pytest.approx(float(hp), rel=1e-12)


class TestMoebius:
    def test_centroid_partition(self):
        cfg = build_configuration(
            CartesianSimplex([[0, 0], [1, 0], [0, 1]]),
            BarycentricPoint([1, 1, 1]),
        )
        areas = moebius_areas(cfg)
        # medial configuration: all four pieces equal S/4
        for piece in (areas.p, areas.q, areas.r, areas.x):
            assert piece == pytest.approx(areas.S / 4, rel=1e-12)
        assert abs(moebius_residual(areas)) <= 1e-15 * areas.S**3

    def test_random_configurations(self):
        rng = np.random.default_rng(5)
        for _ in range(200):
            verts, w = conditioned_configuration(rng, 2, min_weight=1e-6)
            cfg = build_configuration(CartesianSimplex(verts), BarycentricPoint(w))
            areas = moebius_areas(cfg)
            assert abs(moebius_residual(areas)) <= 1e-10 * areas.S**3

    def test_non_cevian_quadruple(self):
        # p=q=r=1, x=2 cannot come from concurrent cevians:
        # 4*1*1*1 - 2^2 * (1+1+1+2) = 4 - 20 = -16
        areas = MoebiusAreas(p=1.0, q=1.0, r=1.0, x=2.0, S=5.0)
        assert moebius_residual(areas) == pytest.approx(-16.0, rel=1e-15)

    def test_area_record_validation(self):
        with pytest.raises(ValueError):
            MoebiusAreas(p=1.0, q=1.0, r=1.0, x=2.0, S=6.0)  # sum != S
        with pytest.raises(ValueError):
            MoebiusAreas(p=-1.0, q=3.0, r=1.0, x=2.0, S=5.0)

    def test_requires_triangles(self):
        cfg = build_configuration(
            CartesianSimplex(np.vstack([np.zeros(3), np.eye(3)])),
            BarycentricPoint([1, 1, 1, 1]),
        )
        with pytest.raises(UnsupportedDimensionError):
            moebius_areas(cfg)


class TestBreakdownAndRows:
    def test_breakdown_consistency(self):
        w = np.array([0.2, 0.3, 0.1, 0.4])
        bd = ratio_breakdown(w)
        assert bd.n == 3
        assert np.all((bd.corner_ratios > 0) & (bd.corner_ratios < 1))
        assert bd.corner_ratios.sum() == pytest.approx(bd.cevian_ratio, rel=1e-12)
        assert bd.cevian_ratio < bd.theorem1_bound
        assert bd.corner_ratios.max() < bd.theorem2_value

    def test_constants_row_fields(self):
        row = constants_row(2)
        assert row.theta == theta(2)
        assert row.f_theta == theorem2_value(2)
        assert row.log_f_theta == pytest.approx(math.log(row.f_theta), rel=1e-12)
        assert abs(row.theta_cf - row.theta) <= 1e-10
        assert abs(row.theta_hyp - row.theta) <= 1e-12
        assert abs(row.metallic_cf - row.metallic) <= 1e-10
        assert abs(row.metallic_hyp - row.metallic) <= 1e-12
        assert row.paper_eq3_value == pytest.approx(9 / PHI**5, rel=1e-12)
        # theta and metallic quadratic residuals
        assert abs(row.theta**2 - 3 * row.theta + 1) <= 1e-12
        assert abs(row.metallic**2 - 2 * row.metallic - 1) <= 1e-12
