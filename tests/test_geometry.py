"""Geometry kernel: volumes, coordinate maps, cevian feet, configurations."""
import math
from fractions import Fraction

import numpy as np
import pytest

from cevians import (
    BarycentricPoint,
    CartesianSimplex,
    DegenerateSimplexError,
    DimensionMismatchError,
    NotInteriorError,
    UnsupportedDimensionError,
    build_configuration,
    cevian_foot,
    corner_simplex_vertices,
    feet_simplex_vertices,
    simplex_volume,
    to_barycentric,
    to_cartesian,
    volume,
)
from cevians.geometry import EPS_BOUNDARY, CevianBatch, cevian_distances

from oracles import simplex_volume_cofactor

UNIT_TRIANGLE = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0]]
UNIT_TET = [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]


def _rng(seed=0):
    return np.random.default_rng(seed)


def _regular_simplex(n):
    """The vertices e_0..e_n of R^(n+1), edge sqrt(2), in an orthonormal
    basis of their hyperplane; volume sqrt(n+1)/n!."""
    basis, _ = np.linalg.qr(np.vstack([np.ones(n + 1), np.eye(n + 1)[:n]]).T)
    return basis[:, 1:]


class TestBarycentricPoint:
    def test_renormalizes(self):
        b = BarycentricPoint([2.0, 2.0, 2.0])
        assert np.allclose(b.weights, 1.0 / 3.0)
        assert abs(b.weights.sum() - 1.0) <= 1e-12

    def test_rejects_boundary_and_outside(self):
        with pytest.raises(NotInteriorError):
            BarycentricPoint([0.5, 0.5, 0.0])
        with pytest.raises(NotInteriorError):
            BarycentricPoint([0.7, 0.4, -0.1])
        with pytest.raises(NotInteriorError):
            BarycentricPoint([0.5, 0.5, EPS_BOUNDARY / 10])

    def test_rejects_low_dimension(self):
        with pytest.raises(UnsupportedDimensionError):
            BarycentricPoint([0.5, 0.5])

    def test_frozen(self):
        b = BarycentricPoint([1, 1, 1])
        with pytest.raises(ValueError):
            b.weights[0] = 0.9
        assert b.n == 2


class TestCartesianSimplex:
    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateSimplexError):
            CartesianSimplex([[0, 0], [1, 1], [2, 2]])

    def test_shape_checked(self):
        with pytest.raises(DimensionMismatchError):
            CartesianSimplex([[0, 0], [1, 0]])
        with pytest.raises(UnsupportedDimensionError):
            CartesianSimplex([[0.0], [1.0]])

    def test_guard_is_scale_free(self):
        # the same shape must pass the guard at any scale
        base = np.asarray(UNIT_TET)
        for factor in (1e-6, 1.0, 1e6):
            CartesianSimplex(base * factor)

    def test_guard_is_scale_free_in_high_dimension(self):
        # a well-shaped simplex whose volume is far below 1 must pass too
        base = _regular_simplex(80)
        for factor in (1e-6, 1.0, 1e6):
            CartesianSimplex(base * factor)

    @pytest.mark.parametrize(
        "n, scale",
        [
            (6, 1e-60), (6, 1e60), (2, 1e-150), (2, 1e150),
            (6, 1e-200), (6, 1e200), (2, 1e-300), (2, 1e300),
        ],
    )
    @pytest.mark.parametrize("flatness", [1.0, 1e-12])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_guard_verdict_holds_at_extreme_scales(self, n, scale, flatness):
        # corner simplex [0; I_n] with its last axis squashed by `flatness`:
        # well shaped at 1, degenerate at 1e-12, whatever the scale
        v = np.vstack([np.zeros(n), np.eye(n)])
        v[:, -1] *= flatness

        def accepted(vertices):
            try:
                CartesianSimplex(vertices)
            except DegenerateSimplexError:
                return False
            return True

        assert accepted(scale * v) == accepted(v) == (flatness == 1.0)


class TestVolume:
    def test_unit_right_triangle(self):
        assert volume(CartesianSimplex(UNIT_TRIANGLE)) == pytest.approx(0.5, rel=1e-15)

    def test_unit_right_tetrahedron(self):
        assert volume(CartesianSimplex(UNIT_TET)) == pytest.approx(1 / 6, rel=1e-15)

    @pytest.mark.parametrize("n", [2, 80, 171])
    def test_regular_simplex(self, n):
        # n! overflows float64 from n = 171, the volume does not
        want = float(Fraction(math.sqrt(n + 1)) / math.factorial(n))
        assert volume(CartesianSimplex(_regular_simplex(n))) == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_against_cofactor_expansion(self, n):
        rng = _rng(n)
        for _ in range(25):
            verts = rng.uniform(-1, 1, size=(n + 1, n))
            got = simplex_volume(verts)
            want = simplex_volume_cofactor(verts)
            assert got == pytest.approx(want, rel=1e-12, abs=1e-300)


class TestCoordinateMaps:
    def test_centroid_round_numbers(self):
        s = CartesianSimplex(UNIT_TRIANGLE)
        p = to_cartesian(BarycentricPoint([1, 1, 1]), s)
        assert np.allclose(p, [1 / 3, 1 / 3], atol=1e-15)
        b = to_barycentric([1 / 3, 1 / 3], s)
        assert np.allclose(b.weights, 1 / 3, atol=1e-14)

    def test_near_vertex_stays_near_vertex(self):
        s = CartesianSimplex(UNIT_TET)
        eps = 1e-6
        for k in range(4):
            w = np.full(4, 2 * eps / 3)
            w[k] = 1 - 2 * eps
            p = to_cartesian(BarycentricPoint(w), s)
            assert np.linalg.norm(p - s.vertices[k]) <= 2 * eps * math.sqrt(2)

    def test_dimension_mismatch(self):
        s = CartesianSimplex(UNIT_TRIANGLE)
        with pytest.raises(DimensionMismatchError):
            to_cartesian([0.5, 0.5, 0.25, 0.25], s)
        with pytest.raises(DimensionMismatchError):
            to_barycentric([0.1, 0.1, 0.1], s)

    def test_facet_point_not_interior(self):
        s = CartesianSimplex(UNIT_TRIANGLE)
        with pytest.raises(NotInteriorError):
            to_barycentric([0.5, 0.0], s)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_round_trip(self, n):
        # to_barycentric(to_cartesian(w)) == w to 1e-12 on random interior points
        rng = _rng(100 + n)
        for _ in range(50):
            verts = rng.uniform(-1, 1, size=(n + 1, n))
            det = abs(np.linalg.det(verts[:-1] - verts[-1]))
            if det < 1e-2:
                continue
            s = CartesianSimplex(verts)
            w = rng.standard_exponential(n + 1)
            w /= w.sum()
            if w.min() < 1e-3:
                continue
            b = BarycentricPoint(w)
            back = to_barycentric(to_cartesian(b, s), s)
            assert np.max(np.abs(back.weights - b.weights)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_forward_map_recovery(self, n):
        # p = sum w_i A_i with known w must solve back to w
        rng = _rng(200 + n)
        for _ in range(50):
            verts = rng.uniform(-1, 1, size=(n + 1, n))
            if abs(np.linalg.det(verts[:-1] - verts[-1])) < 1e-2:
                continue
            s = CartesianSimplex(verts)
            w = rng.dirichlet(np.ones(n + 1))
            if w.min() < 1e-3:
                continue
            p = w @ verts
            assert np.max(np.abs(to_barycentric(p, s).weights - w)) <= 1e-12


class TestCevianFoot:
    def test_centroid_foot_is_facet_midpoint(self):
        m = BarycentricPoint([1 / 3, 1 / 3, 1 / 3])
        assert np.allclose(cevian_foot(0, m), [0.0, 0.5, 0.5], atol=1e-15)

    def test_renormalization_case(self):
        m = BarycentricPoint([0.5, 0.25, 0.25])
        foot = cevian_foot(0, m)
        assert foot[0] == 0.0
        assert np.allclose(foot, [0.0, 0.5, 0.5], atol=1e-15)

    def test_exact_zero_and_unit_sum(self):
        rng = _rng(3)
        for _ in range(100):
            w = rng.dirichlet(np.ones(5))
            if w.min() < 1e-6:
                continue
            m = BarycentricPoint(w)
            for i in range(5):
                foot = cevian_foot(i, m)
                assert foot[i] == 0.0
                assert abs(foot.sum() - 1.0) <= 1e-12
                assert np.all(np.delete(foot, i) > 0.0)

    def test_index_range(self):
        m = BarycentricPoint([1, 1, 1])
        with pytest.raises(IndexError):
            cevian_foot(3, m)
        with pytest.raises(IndexError):
            cevian_foot(-1, m)


class TestConfiguration:
    def test_triangle_medians(self):
        # centroid cevians are medians: feet at edge midpoints, R/s = 2
        s = CartesianSimplex(UNIT_TRIANGLE)
        cfg = build_configuration(s, BarycentricPoint([1, 1, 1]))
        mids = np.array([[0.5, 0.5], [0.0, 0.5], [0.5, 0.0]])
        assert np.allclose(cfg.feet_cart, mids, atol=1e-15)
        assert np.allclose(cfg.dist_to_vertices / cfg.dist_to_feet, 2.0, rtol=1e-12)

    def test_tetrahedron_centroid_ratio(self):
        s = CartesianSimplex(UNIT_TET)
        cfg = build_configuration(s, BarycentricPoint([1, 1, 1, 1]))
        # lambda = 1/4 so s_i / R_i = (1/4) / (3/4) = 1/3
        assert np.allclose(cfg.dist_to_feet / cfg.dist_to_vertices, 1 / 3, rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_collinearity_and_segment_ratio(self, n):
        rng = _rng(300 + n)
        checked = 0
        while checked < 40:
            verts = rng.uniform(-1, 1, size=(n + 1, n))
            diff = verts[:, None, :] - verts[None, :, :]
            scale = math.sqrt(float((diff**2).sum(-1).max()))
            if abs(np.linalg.det(verts[:-1] - verts[-1])) < 1e-3 * scale**n:
                continue
            w = rng.dirichlet(np.ones(n + 1))
            if w.min() < 1e-3:
                continue
            checked += 1
            cfg = build_configuration(CartesianSimplex(verts), BarycentricPoint(w))
            for i in range(n + 1):
                a, m_pt, foot = verts[i], cfg.point_cart, cfg.feet_cart[i]
                direction = foot - a
                direction /= np.linalg.norm(direction)
                off = (m_pt - a) - ((m_pt - a) @ direction) * direction
                assert np.linalg.norm(off) <= 1e-9 * scale
                lam = cfg.point.weights[i]
                got = cfg.dist_to_feet[i] / cfg.dist_to_vertices[i]
                assert got == pytest.approx(lam / (1 - lam), rel=1e-9)
                # equivalent form: lambda_i = s_i / (R_i + s_i)
                assert lam == pytest.approx(
                    cfg.dist_to_feet[i]
                    / (cfg.dist_to_vertices[i] + cfg.dist_to_feet[i]),
                    rel=1e-9,
                )

    @pytest.mark.parametrize("n", [2, 6])
    @pytest.mark.parametrize("scale", [1e160, 1e-160, 1e300, 1e-300])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_distances_hold_at_extreme_scales(self, n, scale):
        # corner simplex [0; I_n] with a jitter, and a generic interior point
        rng = _rng(40 + n)
        v = np.vstack([np.zeros(n), np.eye(n)]) + rng.uniform(-0.1, 0.1, (n + 1, n))
        m = BarycentricPoint(rng.uniform(0.5, 1.5, n + 1))
        unit = build_configuration(CartesianSimplex(v), m)
        cfg = build_configuration(CartesianSimplex(scale * v), m)
        for got, want in [
            (cfg.dist_to_vertices, unit.dist_to_vertices),
            (cfg.dist_to_feet, unit.dist_to_feet),
        ]:
            assert np.allclose(got / scale, want, rtol=1e-15, atol=0)
        *_, off_line = cevian_distances(CevianBatch(cfg.simplex.vertices[None], m.weights[None]))
        assert off_line.max() <= 1e-15

    def test_helper_vertex_sets(self):
        s = CartesianSimplex(UNIT_TRIANGLE)
        cfg = build_configuration(s, BarycentricPoint([1, 1, 1]))
        assert feet_simplex_vertices(cfg).shape == (3, 2)
        corner = corner_simplex_vertices(cfg, 0)
        assert corner.shape == (3, 2)
        assert np.allclose(corner[-1], cfg.point_cart)
        with pytest.raises(IndexError):
            corner_simplex_vertices(cfg, 5)

    def test_affine_invariance_of_volume_ratios(self):
        # invertible affine maps leave volume ratios unchanged (rel 1e-9)
        rng = _rng(11)
        for n in (2, 3, 4):
            for _ in range(10):
                verts = rng.uniform(-1, 1, size=(n + 1, n))
                diff = verts[:, None, :] - verts[None, :, :]
                scale = math.sqrt(float((diff**2).sum(-1).max()))
                if abs(np.linalg.det(verts[:-1] - verts[-1])) < 1e-2 * scale**n:
                    continue
                w = rng.dirichlet(np.ones(n + 1))
                if w.min() < 1e-2:
                    continue
                amat = rng.uniform(-1, 1, size=(n, n))
                if abs(np.linalg.det(amat)) < 1e-2:
                    continue
                shift = rng.uniform(-1, 1, size=n)
                m = BarycentricPoint(w)
                cfg1 = build_configuration(CartesianSimplex(verts), m)
                cfg2 = build_configuration(
                    CartesianSimplex(verts @ amat.T + shift), m
                )
                for cfg_pair in [(cfg1, cfg2)]:
                    a, b = cfg_pair
                    r1 = simplex_volume(a.feet_cart) / volume(a.simplex)
                    r2 = simplex_volume(b.feet_cart) / volume(b.simplex)
                    assert r1 == pytest.approx(r2, rel=1e-9)
