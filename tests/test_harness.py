"""Samplers, trial substreams, and the verification suites."""
import gc
import json
import math
import os
import subprocess
import sys
import threading
import weakref
from concurrent.futures import ThreadPoolExecutor, wait
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
from cevians import geometry
from cevians.geometry import (
    SPLIT_MIN_ROWS,
    CevianBatch,
    _det_ld,
    _edges,
)
from cevians.harness import (
    COND_DET,
    DEFAULT_TOLERANCES,
    PHILOX_ROW_BLOCK,
    SUITE_TABLE,
    _draw_trial,
    _floored_weights,
    _philox4x32,
    _TrialStream,
)
from cevians.optimize import F

from oracles import cofactor_det, exact_det, reference_det_ld


def _rng(seed=0):
    return np.random.default_rng(seed)


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

    @pytest.mark.parametrize("n", [6, 30])
    def test_row_blocks_match_row_by_row_draws(self, n):
        # each call runs Philox over row blocks of PHILOX_ROW_BLOCK
        # counters; the rows must be bit-identical to one row at a time
        counters = (n + 2) // 2  # per row of standard_exponential((rows, n + 1))
        rows = 3 * (PHILOX_ROW_BLOCK // counters) + 5
        assert rows > 3 * max(1, PHILOX_ROW_BLOCK // ((n + 1) * n // 2))
        trials = np.arange(2**32 - 7, 2**32 - 7 + rows)

        def draws(gen, count):
            return (gen.uniform(-1.0, 1.0, (count, n + 1, n)),
                    gen.standard_exponential((count, n + 1)))

        whole = draws(_TrialStream(5).for_trial(trials, 2), rows)
        for at, trial in enumerate(trials):
            one = draws(_TrialStream(5).for_trial(trials[at : at + 1], 2), 1)
            for a, b in zip(one, whole):
                assert np.array_equal(a[0], b[at]), trial

    def test_accepted_row_is_independent_of_the_batch(self):
        # affine n=40 redraws often (both simplices must pass the filter), so
        # a batch mixes rows of different rounds
        rounds = {}
        for trial in range(60):
            counter = _RoundCounter(11)
            _draw("affine", 40, [trial], stream=counter)
            rounds[trial] = counter.rounds
        quick = min(rounds, key=rounds.get)
        slow = max(rounds, key=rounds.get)
        assert rounds[quick] == 1 and rounds[slow] >= 3
        ok_all, whole = _draw("affine", 40, range(1000))
        ok_pair, pair = _draw("affine", 40, [quick, slow])
        assert ok_all.all() and ok_pair.all()
        for at, trial in enumerate((quick, slow)):
            ok_one, alone = _draw("affine", 40, [trial])
            assert ok_one.all()
            for a, b, c in zip(alone, whole, pair):
                assert np.array_equal(a[0], b[trial])
                assert np.array_equal(a[0], c[at])


class TestBatchedSampler:
    """The distribution and conditioning of ``_draw_trial`` output."""

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

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_accepted_simplices_meet_the_condition_floor(self, n):
        counter = _RoundCounter(11)
        ok, (verts, _) = _draw("theorem1", n, range(2000), stream=counter)
        assert ok.all() and counter.rounds >= 2  # the filter rejected some rows
        ok_affine, (base, _, image) = _draw("affine", n, range(2000))
        assert ok_affine.all()
        for simplices in (verts, base, image):
            edges = simplices[:, :-1] - simplices[:, -1:]
            assert np.all(np.linalg.cond(edges, "fro") <= (1 / COND_DET) * (1 + 1e-9))

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
        # large enough to split on two cores or more
        mats = _rng(8).uniform(-1, 1, size=(2 * SPLIT_MIN_ROWS + 77, 4, 4))
        whole = _det_ld(mats)
        rows = np.concatenate([_det_ld(mats[i : i + 1]) for i in range(len(mats))])
        assert np.array_equal(whole, rows)

    def test_singular_matrix(self):
        mats = np.zeros((1, 3, 3))
        assert _det_ld(mats)[0] == 0.0

    @pytest.mark.parametrize("m, extra", [(6, 904), (8, 123)])
    def test_bit_identical_to_reference_on_split_batches(self, m, extra):
        mats = _rng(9).uniform(-1, 1, size=(2 * SPLIT_MIN_ROWS + extra, m, m))
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
        for mats in [
            np.zeros((0, m, m)),
            rng.uniform(-1, 1, (1, m, m)),
            np.zeros((4, m, m)),
            zero_first_column,
            pivoting,
            np.concatenate([pivoting, np.zeros((2, m, m)), zero_first_column]),
        ]:
            got = _det_ld(mats)
            assert got.shape == (len(mats),) and got.dtype == np.longdouble
            assert np.array_equal(got, reference_det_ld(mats))
        assert np.all(_det_ld(zero_first_column) == 0.0)

    def test_worker_exception_reaches_caller(self, monkeypatch):
        kernel = geometry._lu_det
        in_worker = threading.Event()

        def failing_off_caller(mats):
            if threading.current_thread() is not threading.main_thread():
                in_worker.set()
                raise FloatingPointError("worker slice")
            # hold the caller's block until a pool worker has taken the other
            assert in_worker.wait(10)
            return kernel(mats)

        monkeypatch.setattr(geometry, "_cores", lambda: 2)
        monkeypatch.setattr(geometry, "_lu_det", failing_off_caller)
        with pytest.raises(FloatingPointError, match="worker slice"):
            _det_ld(np.ones((2 * SPLIT_MIN_ROWS, 3, 3)))

    def test_concurrent_callers(self, monkeypatch):
        # more callers and slices than cores, a short switch interval and a
        # pool made under contention: every caller gets its own rows back
        monkeypatch.setattr(geometry, "_cores", lambda: 4)
        monkeypatch.setattr(geometry, "_POOL", None)
        batches = [_rng(20 + i).uniform(-1, 1, (4 * SPLIT_MIN_ROWS, 3, 3)) for i in range(5)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(len(batches)) as callers:
                futures = [callers.submit(_det_ld, mats) for mats in batches]
                got = [future.result(timeout=60) for future in futures]
        finally:
            sys.setswitchinterval(interval)
            geometry._POOL.shutdown()
        for mats, dets in zip(batches, got):
            assert np.array_equal(dets, reference_det_ld(mats))

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_recomputes_split_batches(self):
        # a child forked after the pool ran has none of its threads; it
        # must split afresh, not wait on the parent's pool forever
        script = """
import os, signal
import numpy as np
from cevians import geometry
geometry._cores = lambda: 2
mats = np.random.default_rng(3).uniform(-1, 1, (2 * geometry.SPLIT_MIN_ROWS, 6, 6))
want = geometry._det_ld(mats)
pid = os.fork()
if pid == 0:
    signal.alarm(20)
    os._exit(0 if np.array_equal(geometry._det_ld(mats), want) else 1)
print(os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
"""
        path = os.pathsep.join(
            filter(None, [os.path.dirname(os.path.dirname(geometry.__file__)),
                          os.environ.get("PYTHONPATH")])
        )
        proc = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=path),
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert proc.stdout.strip() == "0"


class TestRowBlocks:
    """``_row_blocks`` with the pool's only worker held busy, and on one core.
    Its one user is ``_det_ld``; the sampler's kernels never start the pool."""

    def test_busy_worker_leaves_the_caller_all_blocks(self, monkeypatch):
        monkeypatch.setattr(geometry, "_cores", lambda: 2)
        monkeypatch.setattr(geometry, "_POOL", None)
        rows = 3 * SPLIT_MIN_ROWS + 5
        mats = _rng(30).uniform(-1, 1, (rows, 5, 5))
        want = reference_det_ld(mats)

        def call():
            # a fresh batch the caller alone refers to
            batch = mats.copy()
            return _det_ld(batch), weakref.ref(batch)

        busy, release = threading.Event(), threading.Event()
        pool = geometry._pool()
        blocker = pool.submit(lambda: busy.set() or release.wait(60))
        try:
            assert busy.wait(10)
            with ThreadPoolExecutor(1) as caller:
                dets, ref = caller.submit(call).result(timeout=60)
            # the worker's queued offers are still pending here
            assert ref() is None
        finally:
            release.set()
            blocker.result(timeout=10)
            pool.shutdown()
        assert np.array_equal(dets, want)

    def test_caller_error_waits_for_the_workers_block(self, monkeypatch):
        monkeypatch.setattr(geometry, "_cores", lambda: 2)
        monkeypatch.setattr(geometry, "_POOL", None)
        in_worker, raised, release = threading.Event(), threading.Event(), threading.Event()
        ran = {"worker": [], "caller": []}

        def kernel(lo, hi):
            if threading.current_thread().name.startswith("cevians-rows"):
                in_worker.set()
                release.wait(60)
                ran["worker"].append(lo)
                return
            ran["caller"].append(lo)
            assert in_worker.wait(10)
            raised.set()
            raise ValueError("caller block")

        try:
            with ThreadPoolExecutor(1) as caller:
                call = caller.submit(geometry._row_blocks, kernel, 4 * SPLIT_MIN_ROWS,
                                     SPLIT_MIN_ROWS)
                assert raised.wait(10)
                # the error waits for the block the worker still runs
                assert not wait([call], timeout=0.2).done
                release.set()
                with pytest.raises(ValueError, match="caller block"):
                    call.result(timeout=60)
            assert ran == {"worker": [0], "caller": [3 * SPLIT_MIN_ROWS]}
        finally:
            release.set()
            geometry._POOL.shutdown()

    def test_caller_error_leaves_queued_offers_without_the_batch(self, monkeypatch):
        monkeypatch.setattr(geometry, "_cores", lambda: 2)
        monkeypatch.setattr(geometry, "_POOL", None)
        rows = 3 * SPLIT_MIN_ROWS + 5

        def call():
            # a batch the caller alone refers to; its second block fails
            batch = np.zeros(rows)

            def kernel(lo, hi):
                if lo == 2 * SPLIT_MIN_ROWS:
                    raise ValueError("caller block")
                batch[lo:hi] = 1.0

            with pytest.raises(ValueError, match="caller block"):
                geometry._row_blocks(kernel, rows, SPLIT_MIN_ROWS)
            return weakref.ref(batch)

        busy, release = threading.Event(), threading.Event()
        pool = geometry._pool()
        blocker = pool.submit(lambda: busy.set() or release.wait(60))
        try:
            assert busy.wait(10)
            with ThreadPoolExecutor(1) as caller:
                ref = caller.submit(call).result(timeout=60)
            # the three cancelled offers are still queued behind the worker;
            # collect the cycle through the error's traceback
            assert not blocker.done()
            gc.collect()
            assert ref() is None
        finally:
            release.set()
            blocker.result(timeout=10)
            pool.shutdown()

    def test_one_core_never_starts_the_pool(self, monkeypatch):
        monkeypatch.setattr(geometry, "_cores", lambda: 1)
        monkeypatch.setattr(geometry, "_POOL", None)
        mats = _rng(33).uniform(-1, 1, (2 * SPLIT_MIN_ROWS + 5, 5, 5))
        # three blocks, all on the calling thread
        assert np.array_equal(_det_ld(mats), reference_det_ld(mats))
        assert geometry._POOL is None

    def test_sampler_never_starts_the_pool(self, monkeypatch):
        # Philox and the conditioning test run their row blocks on the
        # calling thread; only the oracle's LU hands blocks to the pool
        monkeypatch.setattr(geometry, "_cores", lambda: 2)
        monkeypatch.setattr(geometry, "_POOL", None)
        try:
            ok, _ = _draw("affine", 6, np.arange(3 * SPLIT_MIN_ROWS))
            assert ok.all()
            assert geometry._POOL is None
            _det_ld(np.ones((2 * SPLIT_MIN_ROWS, 3, 3)))
            assert geometry._POOL is not None
        finally:
            if geometry._POOL is not None:
                geometry._POOL.shutdown()


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
        ok, (verts, wts) = _draw("theorem1", 6, range(400))
        assert ok.all()
        flattest = np.argsort(wts.min(1))[:40]
        batch = CevianBatch(verts[flattest], wts[flattest])
        worst = _relative_errors(_edges(batch.feet)).max()
        assert worst <= 1e-15, (worst, np.finfo(np.longdouble))


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
        # kappa_F >= n for every simplex, so no simplex passes the
        # conditioning cap 1/COND_DET past n = 1000
        with pytest.raises(ValueError, match="n <= 1000"):
            TrialPlan(suite="theorem1", n=1001, trials=1, seed=0)
        assert TrialPlan(suite="theorem1", n=1000, trials=1, seed=0).n == 1000
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
        # at n=10 about one affine trial in ten is redrawn, so batches mix
        # rows of different rounds
        plan = TrialPlan(suite="affine", n=10, trials=257, seed=77)
        counter = _RoundCounter(plan.seed)
        _draw("affine", plan.n, range(plan.trials), stream=counter)
        assert counter.rounds >= 3
        want = json.dumps(run_suite(plan).to_dict(), sort_keys=True)
        for batch in (1, 7, 64, 4096, 4096):
            got = run_suite(plan, batch_size=batch).to_dict()
            assert json.dumps(got, sort_keys=True) == want

    def test_reports_do_not_depend_on_the_core_count(self, monkeypatch):
        # the first default batch of 4096 rows splits the oracle's LU into
        # two blocks, which a second core shares through the pool
        monkeypatch.setattr(geometry, "_POOL", None)
        plans = [TrialPlan(suite, 2 if suite == "moebius" else 6,
                           2 * SPLIT_MIN_ROWS + 100, seed=13) for suite in SUITES]
        reports = {}
        try:
            for cores in (1, 2):
                monkeypatch.setattr(geometry, "_cores", lambda: cores)
                reports[cores] = [run_suite(plan).to_dict() for plan in plans]
            assert geometry._POOL is not None
        finally:
            if geometry._POOL is not None:
                geometry._POOL.shutdown()
        assert reports[1] == reports[2]

    def test_affine_samples_every_trial_at_n40(self):
        # both simplices must pass the filter, and 42% of n=40 rounds do
        report = run_suite(TrialPlan(suite="affine", n=40, trials=200, seed=1))
        assert report.passed, report.violations[:3]

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
