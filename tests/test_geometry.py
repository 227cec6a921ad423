"""Geometry kernel: volumes, coordinate maps, cevian feet, configurations."""
import math
from fractions import Fraction

import numpy as np
import pytest

from cevians import (
    BarycentricPoint,
    CartesianSimplex,
    CevianConfiguration,
    DegenerateSimplexError,
    DimensionMismatchError,
    NotInteriorError,
    UnsupportedDimensionError,
    build_configuration,
    corner_simplex_vertices,
    moebius_areas,
    simplex_volume,
    to_barycentric,
    to_cartesian,
    volume,
)
from cevians import geometry
from cevians.geometry import (
    DELTA_DEGENERACY,
    EPS_BOUNDARY,
    _edges,
    _exponent,
    cevian_distances,
    feet_weights,
    is_well_conditioned,
)
from cevians.harness import COND_DET

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


def _scaled_edges(vertices):
    return _edges(np.ldexp(vertices, -_exponent(vertices)[..., None, None]))


def _svd_kappa(edges):
    """kappa_F(E) from the singular values: sqrt(sum s^2 * sum s^-2), inf
    where one is 0."""
    s2 = np.linalg.svd(edges, compute_uv=False) ** 2
    with np.errstate(divide="ignore", invalid="ignore"):
        kappa = np.sqrt(s2.sum(-1) * (1.0 / s2).sum(-1))
    return np.where(s2.min(-1) > 0.0, kappa, np.inf)


class TestConditionKernel:
    """``is_well_conditioned``'s LU inverse, through ``np.linalg.cond(E,
    "fro")``, against the singular values of E.  Each side is within about
    1.5 m eps times kappa of the true value, relatively, so they may differ
    by twice that, rounded up to 4 m eps kappa.  A singular E has kappa inf
    from the inverse and at least 1e15 from the singular values."""

    @staticmethod
    def _check(vertices):
        edges = _scaled_edges(vertices)
        m = edges.shape[-1]
        want = _svd_kappa(edges)
        got = np.linalg.cond(edges, "fro")
        finite = np.isfinite(got)
        assert np.all(want[~finite] >= 1e15)
        tol = 4 * m * np.finfo(float).eps * want[finite]
        assert np.all(np.abs(got[finite] - want[finite]) <= tol * want[finite])
        for floor in (COND_DET, DELTA_DEGENERACY):
            assert np.array_equal(
                is_well_conditioned(vertices, floor), floor * want <= 1.0
            )
        return got

    @pytest.mark.parametrize("n", [2, 6, 12, 30])
    def test_random_batches(self, n):
        vertices = _rng(40 + n).uniform(-1, 1, (2000 if n < 30 else 300, n + 1, n))
        kappa = self._check(vertices)
        # both sides of the sampler's bound occur
        assert np.any(COND_DET * kappa <= 1.0)
        if n >= 12:
            assert np.any(COND_DET * kappa > 1.0)

    def test_singular_edges(self):
        vertices = _rng(41).uniform(-1, 1, (6, 5, 4))
        vertices[0, :, 2] = 0.5  # one coordinate shared: a zero column of E
        vertices[1, 3] = vertices[1, 1]  # a repeated vertex: two equal rows
        vertices[2, 4] = vertices[2, 0]  # repeats the last vertex: a zero row
        vertices[3] = 0.0
        kappa = self._check(vertices)
        assert not np.isfinite(kappa[:4]).any() and np.isfinite(kappa[4:]).all()

    def test_pivots_in_every_column(self):
        # the largest entry of column c sits in row c + 1, so every column
        # but the last pivots, in every lane
        m = 5
        shift = np.roll(np.eye(m), 1, axis=0)
        edges = 10.0 * shift + _rng(42).uniform(-1, 1, (50, m, m))
        vertices = np.concatenate([edges, np.zeros((50, 1, m))], axis=1) / 16.0
        self._check(vertices)

    def test_regular_80_simplex(self):
        kappa = self._check(_regular_simplex(80)[None])
        assert kappa[0] == pytest.approx(112.0, abs=1.0)

    @pytest.mark.parametrize("scale", [1e-300, 1e300])
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_extreme_scales(self, scale):
        vertices = _rng(43).uniform(-1, 1, (500, 7, 6))
        self._check(scale * vertices)
        for floor in (COND_DET, 1e-2):
            assert np.array_equal(
                is_well_conditioned(scale * vertices, floor),
                is_well_conditioned(vertices, floor),
            )

    def test_empty_batch(self):
        # the affine sampler tests its second simplices only on rows whose
        # first passed, which may be none
        for floor in (COND_DET, DELTA_DEGENERACY):
            ok = is_well_conditioned(np.zeros((0, 5, 4)), floor)
            assert ok.shape == (0,) and ok.dtype == bool

    def test_rows_holding_nan_or_inf(self):
        vertices = _rng(44).uniform(-1, 1, (8, 4, 3))
        vertices[0, 1, 2] = np.nan
        vertices[1, 3, 0] = np.inf
        vertices[2, 0, 0] = -np.inf
        vertices[3, :, 1] = np.nan
        want = _svd_kappa(_scaled_edges(vertices[4:]))
        for floor in (COND_DET, DELTA_DEGENERACY):
            ok = is_well_conditioned(vertices, floor)
            assert np.array_equal(ok[4:], floor * want <= 1.0)
            assert not ok[:4].any() and ok[4:].all()


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
        assert np.allclose(feet_weights(m.weights)[0], [0.0, 0.5, 0.5], atol=1e-15)

    def test_renormalization_case(self):
        m = BarycentricPoint([0.5, 0.25, 0.25])
        foot = feet_weights(m.weights)[0]
        assert foot[0] == 0.0
        assert np.allclose(foot, [0.0, 0.5, 0.5], atol=1e-15)

    def test_exact_zero_and_unit_sum(self):
        rng = _rng(3)
        for _ in range(100):
            w = rng.dirichlet(np.ones(5))
            if w.min() < 1e-6:
                continue
            m = BarycentricPoint(w)
            for i, foot in enumerate(feet_weights(m.weights)):
                assert foot[i] == 0.0
                assert abs(foot.sum() - 1.0) <= 1e-12
                assert np.all(np.delete(foot, i) > 0.0)


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
        *_, off_line = cevian_distances(cfg.batch)
        assert off_line.max() <= 1e-15

    def test_helper_vertex_sets(self):
        s = CartesianSimplex(UNIT_TRIANGLE)
        cfg = build_configuration(s, BarycentricPoint([1, 1, 1]))
        assert cfg.feet_cart.shape == (3, 2)
        corner = corner_simplex_vertices(cfg, 0)
        assert corner.shape == (3, 2)
        assert np.allclose(corner[-1], cfg.point_cart)
        with pytest.raises(IndexError):
            corner_simplex_vertices(cfg, 5)

    def test_point_and_simplex_dimensions_must_agree(self):
        s, m = CartesianSimplex(UNIT_TET), BarycentricPoint([1, 1, 1])
        with pytest.raises(DimensionMismatchError):
            build_configuration(s, m)
        with pytest.raises(DimensionMismatchError):
            CevianConfiguration(s, m)

    def test_exposed_arrays_are_read_only(self):
        s = CartesianSimplex(UNIT_TRIANGLE)
        cfg = build_configuration(s, BarycentricPoint([1, 2, 3]))
        arrays = [
            cfg.simplex.vertices,
            cfg.point.weights,
            cfg.point_cart,
            cfg.feet,
            cfg.feet_cart,
            cfg.dist_to_vertices,
            cfg.dist_to_feet,
            corner_simplex_vertices(cfg, 0),
            cfg.batch.feet,
            cfg.batch.point,
            cfg.batch.base_det,
            cfg.batch.feet_det,
        ]
        for a in arrays:
            with pytest.raises(ValueError, match="read-only"):
                a[0] = 0.0

    def test_one_batch_per_configuration(self, monkeypatch):
        real, made = geometry.CevianBatch, []

        def spy(*args):
            made.append(args)
            return real(*args)

        monkeypatch.setattr(geometry, "CevianBatch", spy)
        s = CartesianSimplex(UNIT_TRIANGLE)
        cfg = build_configuration(s, BarycentricPoint([1, 2, 3]))
        cfg.point_cart, cfg.feet, cfg.feet_cart, cfg.dist_to_vertices, cfg.dist_to_feet
        moebius_areas(cfg)
        corner_simplex_vertices(cfg, 1)
        assert len(made) == 1

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
