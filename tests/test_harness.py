"""Samplers, trial substreams, and the verification suites."""
import dataclasses
import json
import math
import os
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import numpy as np
import pytest

from cevians import (
    SUITES,
    TrialPlan,
    UnsupportedDimensionError,
    cevian_ratio,
    run_suite,
    theorem1_bound,
    theorem2_value,
    theta,
)
from cevians import geometry, harness
from cevians.geometry import (
    CevianBatch,
    _det_ld,
    _edges,
    is_well_conditioned,
)
from cevians.harness import (
    COND_DET,
    DEFAULT_TOLERANCES,
    KAPPA_MAX,
    SUITE_TABLE,
    _draw_trial,
    _floored_weights,
    _log_sigma_range,
    _philox4x32,
    _scaled_orthogonal,
    _TrialStream,
)
from cevians.optimize import F, maximize_F_simplex

from oracles import (
    cofactor_det,
    exact_det,
    reference_cevian_distances,
    reference_det_ld,
    reference_scaled_orthogonal,
)


# trials per pass at n <= 11
PASS = harness._pass_trials(2)


def _rng(seed=0):
    return np.random.default_rng(seed)


def _draw(suite, n, trials, seed=11):
    return _draw_trial(_TrialStream(seed), SUITE_TABLE[suite], n, np.asarray(trials))


def _kappa(vertices):
    return np.linalg.cond(_edges(vertices), "fro")


class TestTrialStream:
    @pytest.mark.parametrize(
        "counter, key, want",
        [
            ([0] * 4, [0] * 2, "6627e8d5 e169c58d bc57ac4c 9b00dbd8"),
            ([0xFFFFFFFF] * 4, [0xFFFFFFFF] * 2, "408f276d 41c83b0e a20bc7c6 6d5451fd"),
            (
                [0x243F6A88, 0x85A308D3, 0x13198A2E, 0x03707344],
                [0xA4093822, 0x299F31D0],
                "d16cfe09 94fdcceb 5001e420 24126ea1",
            ),
        ],
        ids=["zeros", "ones", "pi"],
    )
    def test_philox4x32_10_known_answers(self, counter, key, want):
        # the Random123 philox4x32_10 known-answer vectors
        words = _philox4x32(tuple(np.uint64(c) for c in counter), tuple(key))
        assert " ".join(f"{int(w):08x}" for w in words) == want

    @staticmethod
    def _uniforms(seed, trial, size=8):
        gen = _TrialStream(seed).for_trial(np.array([trial]))
        return gen.uniform(-1.0, 1.0, (1, size))[0]

    def test_same_key_and_counter_reproduce(self):
        assert np.array_equal(self._uniforms(987, 5), self._uniforms(987, 5))

    def test_trials_and_seeds_differ(self):
        base = self._uniforms(7, 5)
        for other in (self._uniforms(7, 6), self._uniforms(8, 5),
                      self._uniforms(7, 2**32 + 5)):
            assert not np.array_equal(base, other)

    def test_counter_is_block_then_trial_words(self):
        # counter (block low, block high, trial low, trial high), key (seed
        # low, seed high); a block gives the uniforms of words (0, 1), (2, 3)
        seed, trial = 2**40 + 9, 2**33 + 7
        u = _TrialStream(seed).for_trial(np.array([trial])).uniform(0.0, 1.0, (1, 4))[0]
        for block in (0, 1):
            counter = tuple(np.uint64(w) for w in (block, 0, 7, 2))
            w0, w1, w2, w3 = (int(w) for w in _philox4x32(counter, (9, 2**8)))
            want = [((hi << 32 | lo) >> 11) * 2.0**-53 for hi, lo in ((w0, w1), (w2, w3))]
            assert list(u[2 * block : 2 * block + 2]) == want

    def test_largest_seed(self):
        seed = 2**64 - 1
        u = self._uniforms(seed, 3, size=1000)
        assert np.all((-1.0 <= u) & (u < 1.0))
        assert not np.array_equal(u, self._uniforms(seed - 1, 3, size=1000))
        assert run_suite(TrialPlan(suite="theorem1", n=2, trials=20, seed=seed)).passed

    @pytest.mark.parametrize("bad, error", [(2**64, ValueError), (-1, ValueError),
                                            (1.5, TypeError)])
    def test_stream_refuses_seeds_outside_the_key(self, bad, error):
        # Philox's key is two 32-bit words: 2**64 would key with seed >> 32
        # = 2**32, and the optimizer's restarts draw from this stream too
        for call in (lambda: _TrialStream(bad),
                     lambda: maximize_F_simplex(3, restarts=2, seed=bad),
                     lambda: TrialPlan(suite="theorem1", n=2, trials=1, seed=bad)):
            with pytest.raises(error, match="integer"):
                call()

    @pytest.mark.parametrize("n", [6, 30])
    def test_row_blocks_match_row_by_row_draws(self, n):
        # rows drawn together must be bit-identical to one row at a time
        rows = 3 * 2048 + 5
        trials = np.arange(2**32 - 7, 2**32 - 7 + rows)

        def draws(gen, count):
            return (gen.uniform(-1.0, 1.0, (count, n + 1, n)),
                    gen.standard_exponential((count, n + 1)))

        whole = draws(_TrialStream(5).for_trial(trials), rows)
        for at, trial in enumerate(trials):
            one = draws(_TrialStream(5).for_trial(trials[at : at + 1]), 1)
            for a, b in zip(one, whole):
                assert np.array_equal(a[0], b[at]), trial

    def test_row_is_independent_of_the_batch(self):
        # one affine row at n=40 alone, in a pair, and in a batch of 1000:
        # Philox, Box-Muller and the Householder products are all per row
        whole = _draw("affine", 40, range(1000))
        pair = _draw("affine", 40, [517, 3])
        for at, trial in enumerate((517, 3)):
            alone = _draw("affine", 40, [trial])
            for a, b, c in zip(alone, whole, pair):
                assert np.array_equal(a[0], b[trial])
                assert np.array_equal(a[0], c[at])


class TestBatchedSampler:
    """The distribution and conditioning of ``_draw_trial`` output."""

    @pytest.fixture(scope="class")
    def triangles(self):
        return _draw("theorem1", 2, range(100_000), seed=3)

    def test_vertices_uniform_in_box(self, triangles):
        # the apex, the last vertex, is uniform in [-1, 1)^n
        coords = triangles[0][:, -1].ravel()
        assert coords.min() >= -1.0 and coords.max() < 1.0
        count = coords.size
        assert abs(coords.mean()) <= 3 * math.sqrt(1 / 3 / count)
        # Var(x^2) = 1/5 - 1/9 for x uniform on [-1, 1)
        assert abs((coords**2).mean() - 1 / 3) <= 3 * math.sqrt(4 / 45 / count)

    @pytest.mark.parametrize("n", [2, 6, 30])
    def test_edge_matrix_columns_are_orthogonal_with_norms_sigma(self, n):
        # E = Q diag(sigma): E^T E = diag(sigma^2), so sigma are E's singular values
        gen = _TrialStream(4).for_trial(np.arange(500))
        normals = gen.standard_normal((500, n * (n + 1) // 2 - 1))
        sigma = np.exp(gen.uniform(-3.0, 3.0, (500, n)))
        edges = _scaled_orthogonal(normals, sigma)
        gram = edges.transpose(0, 2, 1) @ edges
        scale = sigma[:, :, None] * sigma[:, None, :]
        assert np.all(np.abs(gram - scale * np.eye(n)) <= 1e-14 * n * scale)

    @pytest.mark.parametrize("n", [2, 3, 6, 7, 12, 30])
    def test_edges_match_the_batch_first_reference(self, n):
        # under 8 terms the fixed orders are numpy's sum and einsum orders:
        # bit for bit to n = 7, and within rounding past it
        gen = _TrialStream(5).for_trial(np.arange(300))
        normals = gen.standard_normal((300, n * (n + 1) // 2 - 1))
        sigma = np.exp(gen.uniform(-3.0, 3.0, (300, n)))
        got = _scaled_orthogonal(normals, sigma)
        want = reference_scaled_orthogonal(normals, sigma)
        if n <= 7:
            assert np.array_equal(got, want)
        assert np.all(np.abs(got - want) <= 1e-14 * n * sigma.max(1)[:, None, None])

    @pytest.mark.parametrize("n", [2, 6])
    def test_edges_at_the_apex_are_not_at_right_angles(self, n):
        # the simplices have any shape: diag(sigma) Q^T would put every
        # pair of edges at the apex at 90 degrees (mean |cos| 0)
        verts, _ = _draw("theorem1", n, range(4000))
        gram = _edges(verts) @ _edges(verts).transpose(0, 2, 1)
        norms = np.sqrt(np.einsum("bii->bi", gram))
        cos = gram / norms[:, :, None] / norms[:, None, :]
        pairs = np.triu_indices(n, 1)
        assert np.abs(cos[:, pairs[0], pairs[1]]).mean() > 0.3

    def test_drawn_edges_span_the_sigma_range(self):
        # the largest singular value 2 sqrt(n), the least 2 sqrt(n) e^-R,
        # and a third of each edge matrix's singular values at one end or
        # the other
        n = 5
        verts, _ = _draw("theorem1", n, range(4000))
        sigma = np.linalg.svd(_edges(verts), compute_uv=False) / (2 * math.sqrt(n))
        low = math.exp(-_log_sigma_range(n))
        assert np.all((low * (1 - 1e-12) <= sigma) & (sigma <= 1 + 1e-12))
        at_ends = np.isclose(sigma, 1.0, rtol=1e-12) | np.isclose(sigma, low, rtol=1e-12)
        assert abs(at_ends.mean() - 1 / 3) <= 4 * math.sqrt(2 / 9 / at_ends.size)

    @pytest.mark.parametrize("n", [2, 4, 7])
    def test_orthogonal_factor_rows_have_second_moment_one_over_n(self, n):
        # for Haar Q, Q_ij^2 ~ Beta(1/2, (n-1)/2): mean 1/n, variance
        # 3/(n(n+2)) - 1/n^2
        count = 20_000
        gen = _TrialStream(6).for_trial(np.arange(count))
        normals = gen.standard_normal((count, n * (n + 1) // 2 - 1))
        q = _scaled_orthogonal(normals, np.ones((count, n)))
        se = math.sqrt((3 / (n * (n + 2)) - 1 / n**2) / count)
        assert np.all(np.abs((q**2).mean(0) - 1 / n) <= 4 * se)

    def test_mean_matches_flat_dirichlet(self):
        n, trials = 3, 40000
        _, wts = _draw("theorem1", n, range(trials), seed=2)
        p = 1.0 / (n + 1)
        se = math.sqrt(p * (1 - p) / (n + 2) / trials)
        assert np.all(np.abs(wts.mean(0) - p) <= 3 * se)

    def test_first_weight_marginal_is_beta(self, triangles):
        xs = np.sort(triangles[1][:, 0])
        cdf = 1.0 - (1.0 - xs) ** 2
        steps = np.arange(xs.size + 1) / xs.size
        ks = max(np.abs(cdf - steps[1:]).max(), np.abs(cdf - steps[:-1]).max())
        assert ks < 0.01

    def test_floored_weights_match_rejection(self):
        # f + (1 - k f) Dirichlet(1) against the flat Dirichlet conditioned
        # on min w >= f by rejection, at a floor that rejects 84% of draws
        floor, count = 0.2, 20_000
        rng = _rng(12)
        kept = []
        while sum(len(w) for w in kept) < count:
            raw = rng.standard_exponential((count, 3))
            w = raw / raw.sum(1, keepdims=True)
            kept.append(w[w.min(1) >= floor])
        rejected = np.concatenate(kept)[:count]
        floored = _floored_weights(rng.standard_exponential((count, 3)), floor)
        assert floored.min() >= floor
        for stat in (lambda w: w[:, 0], lambda w: w.min(1)):
            a, b = np.sort(stat(rejected)), np.sort(stat(floored))
            grid = np.concatenate([a, b])
            ks = np.abs(np.searchsorted(a, grid, "right") - np.searchsorted(b, grid, "right")).max()
            assert ks / count < 0.0195  # two-sample KS at alpha = 1e-3

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 30, 100, 300])
    def test_accepted_simplices_meet_the_condition_floor(self, n):
        # every simplex the sampler hands out, both of affine's included
        rows = 2000 if n <= 6 else 1500 // n
        verts, _ = _draw("theorem1", n, range(rows))
        base, _, image = _draw("affine", n, range(rows))
        for simplices in (verts, base, image):
            assert is_well_conditioned(simplices, COND_DET).all()
            assert np.all(_kappa(simplices) <= KAPPA_MAX * (1 + 1e-9))

    def test_largest_accepted_dimension_meets_the_condition_floor(self):
        n = int(KAPPA_MAX)
        TrialPlan(suite="theorem1", n=n, trials=1, seed=0)
        with pytest.raises(ValueError):
            TrialPlan(suite="theorem1", n=n + 1, trials=1, seed=0)
        verts, _ = _draw("theorem1", n, [0])
        assert is_well_conditioned(verts, COND_DET).all()

    # the 99th percentiles of kappa_F(E) over 20 000 simplices of seed 1
    # that the sampler accepted when it drew vertices uniform in [-1, 1)^n
    # and redrew any simplex with kappa_F(E) > 1/COND_DET
    BOX_P99 = {2: 184, 3: 366, 4: 442, 5: 543, 6: 644}

    @pytest.mark.parametrize("n", sorted(BOX_P99))
    def test_condition_numbers_reach_the_floor(self, n):
        # the checks stay as hard as with box-uniform vertices: the law
        # must not keep every simplex well inside the conditioning floor
        kappa = _kappa(_draw("theorem1", n, range(20_000), seed=1)[0])
        assert kappa.max() <= (1 / COND_DET) * (1 + 1e-9)
        assert np.percentile(kappa, 99) >= self.BOX_P99[n]
        assert kappa.max() >= 900

    @pytest.mark.parametrize("suite", ["theorem1", "eq2"])
    def test_weights_finite_and_above_floor(self, suite):
        _, wts = _draw(suite, 3, range(5000))
        assert np.all(np.isfinite(wts))
        assert wts.min() >= SUITE_TABLE[suite].weight_floor
        assert np.allclose(wts.sum(1), 1.0, rtol=0, atol=1e-15)


class TestExtendedPrecisionDet:
    def test_against_numpy_and_cofactor(self):
        rng = _rng(7)
        for m in (2, 3, 5):
            mats = rng.uniform(-1, 1, size=(40, m, m))
            got = _det_ld(mats).astype(float)
            want_np = np.linalg.det(mats)
            assert np.allclose(got, want_np, rtol=1e-10, atol=1e-300)
            for i in (0, 17):
                assert got[i] == pytest.approx(cofactor_det(mats[i]), rel=1e-10)

    def test_batch_split_invariance(self):
        # a batch larger than two passes against one matrix at a time
        mats = _rng(8).uniform(-1, 1, size=(2 * PASS + 77, 4, 4))
        whole = _det_ld(mats)
        rows = np.concatenate([_det_ld(mats[i : i + 1]) for i in range(len(mats))])
        assert np.array_equal(whole, rows)

    def test_singular_matrix(self):
        mats = np.zeros((1, 3, 3))
        assert _det_ld(mats)[0] == 0.0

    @pytest.mark.parametrize("m, extra", [(6, 904), (8, 123)])
    def test_bit_identical_to_reference_on_split_batches(self, m, extra):
        mats = _rng(9).uniform(-1, 1, size=(2 * PASS + extra, m, m))
        got = _det_ld(mats)
        assert got.dtype == np.longdouble
        assert np.array_equal(got, reference_det_ld(mats))

    def test_bit_identical_to_reference_on_edge_cases(self):
        rng = _rng(10)
        m = 5
        zero_first_column = rng.uniform(-1, 1, (6, m, m))
        zero_first_column[:, :, 0] = 0.0
        # the largest entry of column c sits in row c + 1, so every column
        # but the last pivots
        shift = np.roll(np.eye(m), 1, axis=0)
        pivoting = 10.0 * shift + rng.uniform(-1, 1, (6, m, m))
        # the first column ties on magnitude, -0.0 against +0.0 and -2
        # against +2: the first row of largest magnitude pivots
        ties = rng.uniform(-1, 1, (4, m, m))
        ties[:, :, 0] = [
            [-0.0, 0.0, -0.0, 0.0, 0.0],
            [0.0, -0.0, 0.0, -0.0, -0.0],
            [0.5, -2.0, 2.0, 1.0, -1.0],
            [0.5, 2.0, -2.0, -1.0, 2.0],
        ]
        for mats in [
            np.zeros((0, m, m)),
            rng.uniform(-1, 1, (1, m, m)),
            np.zeros((4, m, m)),
            zero_first_column,
            pivoting,
            ties,
            np.concatenate([pivoting, np.zeros((2, m, m)), zero_first_column, ties]),
        ]:
            got, want = _det_ld(mats), reference_det_ld(mats)
            assert got.shape == (len(mats),) and got.dtype == np.longdouble
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got), np.signbit(want))
        assert np.all(_det_ld(zero_first_column) == 0.0)

    def test_concurrent_callers(self):
        # more callers than cores and a short switch interval: every caller
        # gets its own rows back
        batches = [_rng(20 + i).uniform(-1, 1, (4 * PASS, 3, 3)) for i in range(5)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(batches)) as callers:
                futures = [callers.submit(_det_ld, mats) for mats in batches]
                got = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
        for mats, dets in zip(batches, got):
            assert np.array_equal(dets, reference_det_ld(mats))


class TestRowBlocks:
    """A pass of ``run_suite`` is ``_pass_trials(n)`` trials: the oracle's
    entry ``_det_ld`` sees at most that many matrices per call, which bounds
    its longdouble copies and every float64 temporary of the pass."""

    @pytest.mark.parametrize("n", [2, 6, 12, 30])
    def test_kernels_see_at_most_one_block_per_call(self, monkeypatch, n):
        shapes = []
        kernel = geometry._det_ld

        def spy(mats, *args):
            shapes.append(mats.shape)
            return kernel(mats, *args)

        monkeypatch.setattr(geometry, "_det_ld", spy)
        step = harness._pass_trials(n)
        report = run_suite(TrialPlan(suite="affine", n=n, trials=2 * step + 5, seed=1))
        assert report.passed, report.violations[:3]
        assert {shape[1:] for shape in shapes} == {(n, n), (n + 1, n)}
        assert max(rows for rows, _, _ in shapes) == step


def _relative_errors(mats):
    errors = []
    for mat, got in zip(mats, _det_ld(mats)):
        exact = exact_det(mat)
        errors.append(float(abs(Fraction(*got.as_integer_ratio()) - exact) / abs(exact)))
    return np.array(errors)


class TestOracleCalibration:
    """The oracle against exact rational determinants of the same float64
    matrices.  Where longdouble is plain float64 these bounds fail, which
    is the point: the suites' tolerances assume the extended format."""

    @pytest.mark.parametrize("m", range(2, 9))
    def test_random_matrices(self, m):
        worst = _relative_errors(_rng(50 + m).uniform(-1, 1, size=(25, m, m))).max()
        assert worst <= 1e-16, (worst, np.finfo(np.longdouble))

    def test_flattest_cevian_simplices(self):
        verts, wts = _draw("theorem1", 6, range(400))
        flattest = np.argsort(wts.min(1))[:40]
        batch = CevianBatch(verts[flattest], wts[flattest])
        worst = _relative_errors(_edges(batch.feet)).max()
        assert worst <= 1e-15, (worst, np.finfo(np.longdouble))


def _minor_errors(stacks):
    """Relative errors of every maximal minor of (B, m+1, m) stacks."""
    errors = []
    for mat, minors in zip(stacks, _det_ld(stacks)):
        for c, got in enumerate(minors):
            exact = exact_det(np.delete(mat, c, axis=0))
            errors.append(float(abs(Fraction(*got.as_integer_ratio()) - exact) / abs(exact)))
    return np.array(errors)


def _assert_subsets_match(stacks, whole):
    """Corner subsets, unsorted and repeated ones too, equal the same
    columns of all minors bit for bit, signs of zeros included."""
    m = stacks.shape[-1]
    for subset in [(m,), (0,), (m, 1), (2, 0, 2), (m - 1, 1, 0)]:
        got, want = _det_ld(stacks, subset), whole[:, subset]
        assert np.array_equal(got, want), subset
        assert np.array_equal(np.signbit(got), np.signbit(want)), subset


def _corner_stacks(batch):
    return batch.feet - batch.point[:, None, :]


class TestCornerMinors:
    """``_det_ld`` on (B, m+1, m) stacks: every maximal minor from one
    elimination of the transpose plus a Hessenberg sweep per minor."""

    @pytest.mark.parametrize("m", range(2, 9))
    def test_random_stacks_against_exact(self, m):
        worst = _minor_errors(_rng(60 + m).uniform(-1, 1, size=(25, m + 1, m))).max()
        assert worst <= 1e-16, (worst, np.finfo(np.longdouble))

    @pytest.mark.parametrize("n, count", [(6, 40), (12, 8)])
    def test_sampled_corner_stacks_against_exact(self, n, count):
        # eq2's stacks, weights floored at 1e-3, stay as accurate as random
        # ones.  theorem1's flattest, weights down to 1e-5 here, lose about
        # eps * kappa, kappa growing like 1 / min(w): 1.1e-15 at n = 6 and
        # 5.1e-15 at n = 12, against 1.9e-16 and 3.7e-16 for one LU per
        # corner.  Either is far below the 1e-9 of the suites that read
        # every corner.
        verts, wts = _draw("eq2", n, range(count))
        worst = _minor_errors(_corner_stacks(CevianBatch(verts, wts))).max()
        assert worst <= 1e-16, (worst, np.finfo(np.longdouble))
        verts, wts = _draw("theorem1", n, range(400))
        flattest = np.argsort(wts.min(1))[:count]
        batch = CevianBatch(verts[flattest], wts[flattest])
        worst = _minor_errors(_corner_stacks(batch)).max()
        assert worst <= 1e-14, (worst, np.finfo(np.longdouble))

    @pytest.mark.parametrize("n", [2, 3, 6, 12, 30])
    def test_last_corner_is_the_lu_of_the_first_m_columns(self, n):
        # minor m reads column m of no sweep, so it eliminates m columns:
        # the square LU of the same transpose, bit for bit
        verts, wts = _draw("theorem2", n, range(50))
        batch = CevianBatch(verts, wts)
        stacks = batch.feet - batch.point[:, None, :]
        square = _det_ld(stacks[:, :n].transpose(0, 2, 1))
        assert np.array_equal(_det_ld(stacks, (n,))[:, 0], square)
        assert np.array_equal(_det_ld(stacks)[:, n], square)

    def test_batch_split_invariance(self):
        # a batch larger than two passes against one stack at a time, and
        # any subset of rows against the same columns of all of them
        stacks = _rng(61).uniform(-1, 1, size=(2 * PASS + 77, 5, 4))
        whole = _det_ld(stacks)
        assert whole.shape == (len(stacks), 5) and whole.dtype == np.longdouble
        rows = np.concatenate([_det_ld(stacks[i : i + 1]) for i in range(len(stacks))])
        assert np.array_equal(whole, rows)
        for subset in [(4,), (0,), (3, 1), (4, 0, 2)]:
            assert np.array_equal(_det_ld(stacks, subset), whole[:, subset])

    def test_empty_batch(self):
        for subset in [None, (4,), (1, 2)]:
            got = _det_ld(np.zeros((0, 5, 4)), subset)
            assert got.shape == (0, 5 if subset is None else len(subset))
            assert got.dtype == np.longdouble

    @pytest.mark.parametrize("zero", range(5))
    def test_zero_row(self, zero):
        # a foot at the apex: only the minor without it survives
        stacks = _rng(62).uniform(-1, 1, size=(20, 5, 4))
        stacks[:, zero] = 0.0
        got = _det_ld(stacks)
        assert np.all(np.delete(got, zero, axis=1) == 0.0)
        for mat, minor in zip(stacks, got[:, zero]):
            exact = exact_det(np.delete(mat, zero, axis=0))
            assert abs(Fraction(*minor.as_integer_ratio()) - exact) <= 1e-16 * abs(exact)
        _assert_subsets_match(stacks, got)

    def test_zero_column(self):
        # every foot and the apex share one coordinate: all minors vanish
        stacks = _rng(63).uniform(-1, 1, size=(20, 5, 4))
        for col in range(4):
            flat = stacks.copy()
            flat[:, :, col] = 0.0
            assert np.all(_det_ld(flat) == 0.0)

    @pytest.mark.parametrize("values, m", [((-1.0, 0.0, 1.0), 4), ((-1.0, 1.0), 6)])
    def test_ties_in_pivot_magnitude(self, values, m):
        # entries of one magnitude tie in the LU's columns and between the
        # carried and the next row of the sweeps; minors are integers of
        # magnitude at most m^(m/2)
        stacks = _rng(64).choice(values, size=(300, m + 1, m))
        whole = _det_ld(stacks)
        for mat, minors in zip(stacks, whole):
            for c, got in enumerate(minors):
                exact = exact_det(np.delete(mat, c, axis=0))
                assert abs(Fraction(*got.as_integer_ratio()) - exact) <= 1e-15
        _assert_subsets_match(stacks, whole)

    def test_corner_ratios_never_read_feet_det(self, monkeypatch):
        # the decomposition check sums the corners against feet_det; a
        # corner route through feet_det would make it a tautology
        def unread(batch):
            raise AssertionError("det_corner_ratios read feet_det")

        verts, wts = _draw("decomposition", 4, range(50))
        monkeypatch.setattr(CevianBatch, "feet_det", property(unread))
        batch = CevianBatch(verts, wts)
        assert geometry.det_corner_ratios(batch).shape == (50, 5)
        assert geometry.det_corner_ratios(batch, (4,)).shape == (50, 1)
        with pytest.raises(AssertionError, match="feet_det"):
            batch.feet_det


class TestTrialPlan:
    def test_defaults_per_suite(self):
        for suite in SUITES:
            plan = TrialPlan(suite=suite, n=2, trials=10, seed=0)
            assert plan.tol == DEFAULT_TOLERANCES[suite]

    def test_validation(self):
        with pytest.raises(ValueError):
            TrialPlan(suite="nope", n=2, trials=10, seed=0)
        with pytest.raises(UnsupportedDimensionError):
            TrialPlan(suite="theorem1", n=1, trials=10, seed=0)
        with pytest.raises(ValueError):
            TrialPlan(suite="moebius", n=3, trials=10, seed=0)
        with pytest.raises(ValueError):
            TrialPlan(suite="theorem1", n=2, trials=0, seed=0)
        with pytest.raises(ValueError):
            TrialPlan(suite="theorem1", n=2, trials=10, seed=-1)
        with pytest.raises(ValueError):
            TrialPlan(suite="theorem1", n=2, trials=10, seed=2**64)
        for tol in (0.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                TrialPlan(suite="theorem1", n=2, trials=10, seed=0, tol=tol)
        for bad in ({"n": 3.0}, {"trials": 10.0}, {"seed": 1.5}):
            with pytest.raises(TypeError):
                TrialPlan(**{"suite": "theorem1", "n": 3, "trials": 10, "seed": 1, **bad})
        # kappa_F >= n for every simplex, so the sampler's sigma law has no
        # room past n = KAPPA_MAX = 999
        with pytest.raises(ValueError, match="n <= 999"):
            TrialPlan(suite="theorem1", n=1000, trials=1, seed=0)
        assert TrialPlan(suite="theorem1", n=999, trials=1, seed=0).n == 999
        plan = TrialPlan("theorem1", np.int64(3), np.int32(10), seed=np.uint64(1))
        assert (plan.n, plan.trials, plan.seed) == (3, 10, 1)
        assert type(plan.seed) is int
        assert run_suite(plan) == run_suite(TrialPlan("theorem1", 3, 10, seed=1))


class TestSuites:
    @pytest.mark.parametrize("suite", SUITES)
    @pytest.mark.parametrize("n", [2, 3])
    def test_suites_pass_at_small_scale(self, suite, n):
        if suite == "moebius" and n != 2:
            pytest.skip("moebius is n=2 only")
        plan = TrialPlan(suite=suite, n=n, trials=1500, seed=314)
        report = run_suite(plan)
        assert report.passed
        assert report.violations == ()
        assert report.worst_margin < 0.0
        allowed = (report.bound or 0.0) + plan.tol
        assert report.worst_margin == report.max_ratio_observed - allowed
        if suite == "theorem1":
            assert report.bound == theorem1_bound(n)
            assert report.max_ratio_observed <= report.bound + plan.tol
        elif suite == "theorem2":
            assert report.bound == theorem2_value(n)
            assert report.max_ratio_observed <= report.bound + plan.tol
        else:
            assert report.bound is None
            assert report.max_ratio_observed <= plan.tol

    def test_higher_dimension_spot_check(self):
        for suite in ("theorem1", "eq2", "decomposition", "segment_ratio"):
            report = run_suite(TrialPlan(suite=suite, n=6, trials=800, seed=9))
            assert report.passed, suite

    @pytest.mark.parametrize("suite", [s for s in SUITES if s != "moebius"])
    @pytest.mark.parametrize("n", [12, 30])
    def test_every_trial_sampled_at_higher_n(self, suite, n):
        # the conditioning filter must not decay with n like a volume
        report = run_suite(TrialPlan(suite=suite, n=n, trials=100, seed=12))
        assert report.passed, report.violations[:3]

    @pytest.mark.parametrize("suite", SUITES)
    def test_impossible_tolerance_reports_violations(self, suite, monkeypatch):
        if SUITE_TABLE[suite].bound is not None:
            # no tol makes a bound impossible: allow only tol above 0
            monkeypatch.setitem(
                SUITE_TABLE, suite,
                dataclasses.replace(SUITE_TABLE[suite], bound=lambda n: 0.0),
            )
        n = 2 if suite == "moebius" else 3
        plan = TrialPlan(suite=suite, n=n, trials=200, seed=1, tol=1e-18)
        report = run_suite(plan)
        assert not report.passed
        assert len(report.violations) > 0
        assert report.worst_margin > 0.0
        assert report.worst_margin == max(v.margin for v in report.violations)
        allowed = (report.bound or 0.0) + plan.tol
        assert report.worst_margin == report.max_ratio_observed - allowed
        indices = [v.trial_index for v in report.violations]
        assert indices == sorted(indices)
        digest = report.violations[0].inputs_digest
        assert len(digest) == 16 and int(digest, 16) >= 0

    def test_decomposition_holds_determinant_route_to_tol(self, monkeypatch):
        # a determinant route off by a relative 1e-10, far above the
        # suite's tol of 1e-12, must not pass
        det_corner_ratios = geometry.det_corner_ratios
        monkeypatch.setattr(
            geometry, "det_corner_ratios",
            lambda *args: det_corner_ratios(*args) * (1.0 + 1e-10),
        )
        report = run_suite(TrialPlan(suite="decomposition", n=3, trials=200, seed=1))
        assert len(report.violations) == 200
        assert report.max_ratio_observed > 1e-11

    @pytest.mark.parametrize("n", [2, 3, 6, 7, 12, 30])
    def test_distances_match_the_batch_first_reference(self, n):
        # coordinates added from the left are numpy's sum order under 8
        # terms: bit for bit to n = 7, and within rounding past it, on the
        # scale of the edges for the off-line distances, rounding noise
        batch = CevianBatch(*_draw("segment_ratio", n, range(300)))
        got = geometry.cevian_distances(batch)
        want = reference_cevian_distances(batch.vertices, batch.feet, batch.point)
        for g, w in zip(got, want):
            if n <= 7:
                assert np.array_equal(g, w)
            assert np.all(np.abs(g - w) <= 1e-14 * n * max(np.abs(w).max(), 1.0))

    @pytest.mark.parametrize("n", [2, 3, 6])
    def test_segment_ratio_sees_feet_off_their_cevians(self, monkeypatch, n):
        # each foot turned about M, 1e-6 of the edge scale off its cevian
        # line, keeps |M - N_i|: only the distance of M from line A_i N_i
        # can see it
        feet = CevianBatch.feet.func

        def turned(batch):
            point = batch.point[:, None, :]
            spoke = feet(batch) - point
            length = np.linalg.norm(spoke, axis=-1, keepdims=True)
            unit = spoke / length
            normal = np.eye(n)[np.abs(unit).argmin(-1)]
            normal -= (normal * unit).sum(-1, keepdims=True) * unit
            normal /= np.linalg.norm(normal, axis=-1, keepdims=True)
            pairs = batch.vertices[:, :, None] - batch.vertices[:, None]
            edge = np.linalg.norm(pairs, axis=-1).max((1, 2))[:, None, None]
            tilted = unit + 1e-6 * edge / length * normal
            tilted /= np.linalg.norm(tilted, axis=-1, keepdims=True)
            return point + length * tilted

        monkeypatch.setattr(CevianBatch, "feet", property(turned))
        tol = DEFAULT_TOLERANCES["segment_ratio"]
        batch = CevianBatch(*_draw("segment_ratio", n, range(200)))
        to_vertex, to_foot, off_line = geometry.cevian_distances(batch)
        expected = batch.weights / (1.0 - batch.weights)
        assert (np.abs(to_foot / to_vertex - expected) / expected).max() < tol / 100
        assert off_line.max(1).min() > tol
        report = run_suite(TrialPlan("segment_ratio", n, 200, seed=1))
        assert [v.trial_index for v in report.violations] == list(range(200))

    def test_report_round_trip_fields(self):
        plan = TrialPlan(suite="theorem1", n=2, trials=100, seed=5)
        payload = run_suite(plan).to_dict()
        assert set(payload) == {
            "suite",
            "n",
            "trials",
            "seed",
            "tol",
            "passed",
            "worst_margin",
            "max_ratio_observed",
            "bound",
            "violations",
        }
        assert "elapsed" not in payload

    def test_reproducible_and_batch_invariant(self, monkeypatch):
        plan = TrialPlan(suite="decomposition", n=3, trials=257, seed=77)
        a = run_suite(plan)
        b = run_suite(plan)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )
        for batch in (1, 7, 64, 10_000):
            monkeypatch.setattr(harness, "_pass_trials", lambda n: batch)
            c = run_suite(plan)
            assert json.dumps(c.to_dict(), sort_keys=True) == json.dumps(
                a.to_dict(), sort_keys=True
            )

    def test_affine_reproducible_and_batch_invariant(self, monkeypatch):
        plan = TrialPlan(suite="affine", n=10, trials=257, seed=77)
        want = json.dumps(run_suite(plan).to_dict(), sort_keys=True)
        for batch in (1, 7, 64, 4096, 4096):
            monkeypatch.setattr(harness, "_pass_trials", lambda n: batch)
            got = run_suite(plan).to_dict()
            assert json.dumps(got, sort_keys=True) == want

    @pytest.mark.parametrize("suite", ["eq2", "decomposition", "affine"])
    @pytest.mark.parametrize("n", [12, 30])
    def test_equality_suites_at_larger_n(self, suite, n):
        # all n+1 corners of every trial come from one elimination; the
        # float64 inputs' error budget, about 1.1e-10, keeps a margin
        report = run_suite(TrialPlan(suite=suite, n=n, trials=500, seed=3))
        assert report.passed, report.violations[:3]
        assert report.max_ratio_observed <= report.plan.tol / 4

    def test_affine_samples_every_trial_at_n40(self):
        report = run_suite(TrialPlan(suite="affine", n=40, trials=200, seed=1))
        assert report.passed, report.violations[:3]

    @pytest.mark.parametrize("suite", ["theorem1", "eq2", "affine"])
    def test_suites_pass_at_n100(self, suite):
        # box-uniform vertices with a redraw filter passed 0.5% of simplices
        # here and none at n=150
        report = run_suite(TrialPlan(suite=suite, n=100, trials=3, seed=1))
        assert report.passed, report.violations

    def test_different_seeds_differ(self):
        a = run_suite(TrialPlan(suite="eq2", n=2, trials=50, seed=0))
        b = run_suite(TrialPlan(suite="eq2", n=2, trials=50, seed=1))
        assert a.max_ratio_observed != b.max_ratio_observed

    def test_pass_sizes_at_the_gated_dimensions(self):
        # the at-scale gates and the benchmark run 2048-trial passes
        for n in range(2, 7):
            assert harness._pass_trials(n) == PASS == 2048

    def test_pass_is_one_block_at_every_n(self):
        # the most trials, up to 2048, whose (n+1) x (n+1) entries fit 2048
        # 12 x 12 matrices, and one trial where none fit
        sizes = {n: harness._pass_trials(n) for n in range(2, 1000)}
        for n, trials in sizes.items():
            entries = (n + 1) ** 2
            assert 1 <= trials <= 2048
            assert trials * entries <= 2048 * 12**2 or trials == 1
            assert (trials + 1) * entries > 2048 * 12**2 or trials == 2048
        assert [sizes[n] for n in (2, 6, 11, 12, 30, 60, 999)] == [
            2048, 2048, 2048, 1745, 306, 79, 1
        ]


def _cpus(monkeypatch, count):
    """Pretend the affinity mask holds ``count`` CPUs."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def _in_children(monkeypatch, action, in_caller=lambda: None):
    """Run ``action`` in every forked pass process, and ``in_caller`` on the
    caller's own passes, before each cevian determinant of the theorem1
    suite."""
    caller = os.getpid()
    kernel = geometry.det_cevian_ratios

    def misbehave(batch):
        (in_caller if os.getpid() == caller else action)()
        return kernel(batch)

    monkeypatch.setattr(geometry, "det_cevian_ratios", misbehave)
    _cpus(monkeypatch, 2)


TWO_PASSES = TrialPlan(suite="theorem1", n=3, trials=PASS + 1, seed=1)


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(sys.platform != "linux", reason="passes fork on Linux only")
class TestPassProcesses:
    """A plan of several passes shares them with forked children, one per
    CPU of the affinity mask; the caller merges their results in pass order."""

    @pytest.mark.parametrize(
        "plan",
        [
            TrialPlan("eq2", 6, 3 * PASS + 100, seed=1, tol=1e-300),
            TrialPlan("decomposition", 3, 2 * PASS, seed=7919),
            TrialPlan("moebius", 2, PASS + 1, seed=7919, tol=1e-300),
            TrialPlan("affine", 30, 2 * harness._pass_trials(30) + 7, seed=1),
            # every margin NaN past float64 underflow, passes of 12, 12 and 1 trials
            TrialPlan("eq2", 150, 2 * harness._pass_trials(150) + 1, seed=1),
        ],
        ids=["eq2-violations", "decomposition", "moebius", "affine-n30", "eq2-nan"],
    )
    def test_report_independent_of_process_count(self, monkeypatch, plan):
        _cpus(monkeypatch, 1)
        want = json.dumps(run_suite(plan).to_dict(), sort_keys=True)
        for cpus in (2, 3):
            _cpus(monkeypatch, cpus)
            assert json.dumps(run_suite(plan).to_dict(), sort_keys=True) == want
        _assert_no_child_left()

    @pytest.mark.parametrize("forked", [False, True], ids=["serial", "forked"])
    def test_every_pass_reports_its_violations(self, monkeypatch, forked):
        # tol=1e-300 makes every trial a violation, so each of three passes
        # must bring every one of its trials to the report, in order
        forks = []
        fork = os.fork

        def counting_fork():
            pid = fork()
            forks.extend([pid] if pid else [])
            return pid

        monkeypatch.setattr(os, "fork", counting_fork)
        if forked:
            _cpus(monkeypatch, 3)
        else:
            monkeypatch.setattr(harness, "_pass_processes", lambda passes: 1)
        plan = TrialPlan("eq2", 6, 2 * PASS + 100, seed=1, tol=1e-300)
        report = run_suite(plan)
        assert len(forks) == (2 if forked else 0)
        assert [v.trial_index for v in report.violations] == list(range(plan.trials))
        _assert_no_child_left()

    def test_child_exception_keeps_its_type(self, monkeypatch):
        def fail():
            raise ValueError("planted in a pass process")

        _in_children(monkeypatch, fail)
        with pytest.raises(ValueError, match="planted in a pass process"):
            run_suite(TWO_PASSES)
        _assert_no_child_left()

    def test_child_exit_without_results_names_pid_and_status(self, monkeypatch):
        pids = []
        fork = os.fork

        def recording_fork():
            pid = fork()
            pids.append(pid)
            return pid

        _in_children(monkeypatch, lambda: os._exit(3))
        monkeypatch.setattr(os, "fork", recording_fork)
        with pytest.raises(ChildProcessError) as failure:
            run_suite(TWO_PASSES)
        assert str(failure.value).startswith(
            f"pass process {pids[0]} exited with status 3 "
        ), failure.value
        _assert_no_child_left()

    @pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
    def test_caller_error_kills_and_reaps_children(self, monkeypatch, error):
        # the child would run for a minute; only a kill ends it this soon
        def interrupt():
            raise error("planted in the caller")

        _in_children(monkeypatch, lambda: time.sleep(60), in_caller=interrupt)
        start = time.perf_counter()
        with pytest.raises(error, match="planted in the caller"):
            run_suite(TWO_PASSES)
        _assert_no_child_left()
        assert time.perf_counter() - start < 30

    def test_calls_that_never_fork(self, monkeypatch):
        def refuse():
            raise AssertionError("forked")

        _cpus(monkeypatch, 2)
        want = run_suite(TWO_PASSES).to_dict()
        monkeypatch.setattr(os, "fork", refuse)
        # one pass
        assert run_suite(TrialPlan("theorem1", 3, PASS, seed=1)).passed
        # one CPU in the mask
        _cpus(monkeypatch, 1)
        assert run_suite(TWO_PASSES).to_dict() == want
        # another Python thread running
        _cpus(monkeypatch, 2)
        got = []
        caller = threading.Thread(target=lambda: got.append(run_suite(TWO_PASSES)))
        caller.start()
        caller.join(timeout=60)
        assert not caller.is_alive()
        assert [report.to_dict() for report in got] == [want]


class TestDeskScaleGuarantee:
    """Zero violations at 1e5 trials for n = 2..6.

    theorem1, decomposition, and moebius already run at this scale in the
    acceptance module; this covers the remaining suites of the guarantee.
    """

    @pytest.mark.parametrize("suite", ["theorem2", "eq2", "segment_ratio", "affine"])
    def test_full_scale_pass(self, suite):
        for n in range(2, 7):
            plan = TrialPlan(suite=suite, n=n, trials=100_000, seed=4000 + n)
            report = run_suite(plan)
            assert report.passed, (
                f"{suite} n={n}: {len(report.violations)} violations, "
                f"worst margin {report.worst_margin:.3e}"
            )


class TestSharpnessProbes:
    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_centroid_attains_cevian_bound(self, n):
        centroid = np.full(n + 1, 1.0 / (n + 1))
        assert abs(cevian_ratio(centroid) - theorem1_bound(n)) <= 1e-12

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_extremal_point_attains_corner_bound(self, n):
        t = theta(n)
        w = np.append(np.full(n, t), 1.0 - n * t)
        assert abs(F(w) - theorem2_value(n)) <= 1e-12
