"""Samplers, trial substreams, and the verification suites."""
import json
import math

import numpy as np
import pytest

from cevians import (
    BarycentricPoint,
    SUITES,
    TrialPlan,
    UnsupportedDimensionError,
    cevian_ratio,
    random_simplex,
    run_suite,
    sample_interior,
    theorem1_bound,
    theorem2_value,
    theta,
    volume,
)
from cevians.geometry import DELTA_DEGENERACY, _det_ld, max_edge_length
from cevians.harness import (
    DEFAULT_TOLERANCES,
    SUITE_TABLE,
    _draw_trial,
    _philox4x32,
    _TrialStream,
)
from cevians.optimize import F

from oracles import cofactor_det


def _rng(seed=0):
    return np.random.default_rng(seed)


class TestSampleInterior:
    def test_basic_contract(self):
        rng = _rng(1)
        for n in (2, 3, 6):
            b = sample_interior(n, rng)
            assert isinstance(b, BarycentricPoint)
            assert b.weights.shape == (n + 1,)
            assert abs(b.weights.sum() - 1.0) <= 1e-12
            assert b.weights.min() > 0.0
        with pytest.raises(UnsupportedDimensionError):
            sample_interior(1, rng)

    def test_mean_matches_flat_dirichlet(self):
        # each weight has mean 1/(n+1); check within 3 standard errors
        rng = _rng(2)
        n, trials = 3, 40000
        total = np.zeros(n + 1)
        for _ in range(trials):
            total += sample_interior(n, rng).weights
        mean = total / trials
        p = 1.0 / (n + 1)
        se = math.sqrt(p * (1 - p) / (n + 2) / trials)
        assert np.all(np.abs(mean - p) <= 3 * se)

    def test_first_weight_marginal_is_beta(self):
        # for n=2 the marginal CDF is 1 - (1-t)^2; Kolmogorov distance < 0.01
        rng = _rng(3)
        trials = 100000
        xs = np.sort([sample_interior(2, rng).weights[0] for _ in range(trials)])
        cdf = 1.0 - (1.0 - xs) ** 2
        steps = np.arange(trials + 1) / trials
        ks = max(
            np.abs(cdf - steps[1:]).max(),
            np.abs(cdf - steps[:-1]).max(),
        )
        assert ks < 0.01


class TestRandomSimplex:
    def test_always_nondegenerate(self):
        rng = _rng(4)
        for n in (2, 3, 5):
            for _ in range(50):
                s = random_simplex(n, rng)
                assert volume(s) > 0.0
                det = abs(np.linalg.det(s.vertices[:-1] - s.vertices[-1]))
                assert det > DELTA_DEGENERACY * max_edge_length(s.vertices) ** n

    def test_triangle_vertices_not_collinear(self):
        rng = _rng(5)
        for _ in range(100):
            s = random_simplex(2, rng)
            a, b, c = s.vertices
            cross = (b - a)[0] * (c - a)[1] - (b - a)[1] * (c - a)[0]
            assert abs(cross) > 0.0

    def test_coordinates_in_unit_box(self):
        rng = _rng(6)
        s = random_simplex(4, rng)
        assert np.all(np.abs(s.vertices) <= 1.0)


class _RoundCounter(_TrialStream):
    """A trial stream that records how many redraw rounds a draw took."""

    def for_trial(self, trials, attempt):
        self.rounds = attempt + 1
        return super().for_trial(trials, attempt)


def _draw(suite, n, trials, seed=11, stream=None):
    stream = _TrialStream(seed) if stream is None else stream
    return _draw_trial(stream, SUITE_TABLE[suite], n, np.asarray(trials))


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
    def _uniforms(seed, trial, attempt, size=8):
        gen = _TrialStream(seed).for_trial(np.array([trial]), attempt)
        return gen.uniform(-1.0, 1.0, (1, size))[0]

    def test_same_key_and_counter_reproduce(self):
        assert np.array_equal(self._uniforms(987, 5, 2), self._uniforms(987, 5, 2))

    def test_trials_seeds_and_attempts_differ(self):
        base = self._uniforms(7, 5, 0)
        for other in (self._uniforms(7, 6, 0), self._uniforms(8, 5, 0),
                      self._uniforms(7, 5, 1), self._uniforms(7, 2**32 + 5, 0)):
            assert not np.array_equal(base, other)

    def test_largest_seed(self):
        seed = 2**64 - 1
        u = self._uniforms(seed, 3, 0, size=1000)
        assert np.all((-1.0 <= u) & (u < 1.0))
        assert not np.array_equal(u, self._uniforms(seed - 1, 3, 0, size=1000))
        assert run_suite(TrialPlan(suite="theorem1", n=2, trials=20, seed=seed)).passed

    def test_accepted_row_is_independent_of_the_batch(self):
        # affine n=3 redraws often, so a batch mixes rows of different rounds
        rounds = {}
        for trial in range(60):
            counter = _RoundCounter(11)
            _draw("affine", 3, [trial], stream=counter)
            rounds[trial] = counter.rounds
        quick = min(rounds, key=rounds.get)
        slow = max(rounds, key=rounds.get)
        assert rounds[quick] == 1 and rounds[slow] >= 3
        ok_all, whole = _draw("affine", 3, range(1000))
        ok_pair, pair = _draw("affine", 3, [quick, slow])
        assert ok_all.all() and ok_pair.all()
        for at, trial in enumerate((quick, slow)):
            ok_one, alone = _draw("affine", 3, [trial])
            assert ok_one.all()
            for a, b, c in zip(alone, whole, pair):
                assert np.array_equal(a[0], b[trial])
                assert np.array_equal(a[0], c[at])


class TestBatchedSampler:
    """The distribution of ``_draw_trial`` output (mirrors TestSampleInterior)."""

    @pytest.fixture(scope="class")
    def triangles(self):
        ok, (verts, wts) = _draw("theorem1", 2, range(100_000), seed=3)
        assert ok.all()
        return verts, wts

    def test_vertices_uniform_in_box(self, triangles):
        coords = triangles[0].ravel()
        assert coords.min() >= -1.0 and coords.max() < 1.0
        count = coords.size
        assert abs(coords.mean()) <= 3 * math.sqrt(1 / 3 / count)
        # Var(x^2) = 1/5 - 1/9 for x uniform on [-1, 1)
        assert abs((coords**2).mean() - 1 / 3) <= 3 * math.sqrt(4 / 45 / count)

    def test_mean_matches_flat_dirichlet(self):
        n, trials = 3, 40000
        ok, (_, wts) = _draw("theorem1", n, range(trials), seed=2)
        assert ok.all()
        p = 1.0 / (n + 1)
        se = math.sqrt(p * (1 - p) / (n + 2) / trials)
        assert np.all(np.abs(wts.mean(0) - p) <= 3 * se)

    def test_first_weight_marginal_is_beta(self, triangles):
        xs = np.sort(triangles[1][:, 0])
        cdf = 1.0 - (1.0 - xs) ** 2
        steps = np.arange(xs.size + 1) / xs.size
        ks = max(np.abs(cdf - steps[1:]).max(), np.abs(cdf - steps[:-1]).max())
        assert ks < 0.01

    @pytest.mark.parametrize("suite", ["theorem1", "eq2"])
    def test_weights_finite_and_above_floor(self, suite):
        ok, (_, wts) = _draw(suite, 3, range(5000))
        assert ok.all()
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
        rng = _rng(8)
        mats = rng.uniform(-1, 1, size=(30, 4, 4))
        whole = _det_ld(mats)
        parts = np.concatenate([_det_ld(mats[:11]), _det_ld(mats[11:])])
        assert np.array_equal(whole, parts)

    def test_singular_matrix(self):
        mats = np.zeros((1, 3, 3))
        assert _det_ld(mats)[0] == 0.0


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
        with pytest.raises(ValueError):
            TrialPlan(suite="theorem1", n=2, trials=10, seed=0, tol=0.0)


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

    def test_impossible_tolerance_reports_violations(self):
        plan = TrialPlan(suite="eq2", n=3, trials=200, seed=1, tol=1e-18)
        report = run_suite(plan)
        assert not report.passed
        assert len(report.violations) > 0
        assert report.worst_margin > 0.0
        assert report.worst_margin == max(v.margin for v in report.violations)
        indices = [v.trial_index for v in report.violations]
        assert indices == sorted(indices)
        digest = report.violations[0].inputs_digest
        assert len(digest) == 16 and int(digest, 16) >= 0

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

    def test_reproducible_and_batch_invariant(self):
        plan = TrialPlan(suite="decomposition", n=3, trials=257, seed=77)
        a = run_suite(plan)
        b = run_suite(plan)
        assert json.dumps(a.to_dict(), sort_keys=True) == json.dumps(
            b.to_dict(), sort_keys=True
        )
        for batch in (1, 7, 64, 10_000):
            c = run_suite(plan, batch_size=batch)
            assert json.dumps(c.to_dict(), sort_keys=True) == json.dumps(
                a.to_dict(), sort_keys=True
            )

    def test_affine_reproducible_and_batch_invariant(self):
        # affine redraws often, so batches mix rows of different rounds
        plan = TrialPlan(suite="affine", n=3, trials=257, seed=77)
        want = json.dumps(run_suite(plan).to_dict(), sort_keys=True)
        for batch in (1, 7, 64, 4096, 4096):
            got = run_suite(plan, batch_size=batch).to_dict()
            assert json.dumps(got, sort_keys=True) == want

    def test_different_seeds_differ(self):
        a = run_suite(TrialPlan(suite="eq2", n=2, trials=50, seed=0))
        b = run_suite(TrialPlan(suite="eq2", n=2, trials=50, seed=1))
        assert a.max_ratio_observed != b.max_ratio_observed

    def test_batch_size_validation(self):
        plan = TrialPlan(suite="theorem1", n=2, trials=10, seed=0)
        with pytest.raises(ValueError):
            run_suite(plan, batch_size=0)


class TestDeskScaleGuarantee:
    """Zero violations at 1e5 trials for n = 2..6.

    theorem1, decomposition, and moebius already run at this scale in the
    acceptance module; this covers the remaining suites of the guarantee.
    """

    @pytest.mark.parametrize("suite", ["theorem2", "eq2", "segment_ratio"])
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
