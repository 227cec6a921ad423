"""Seeded randomized suites confronting every closed form with determinant
oracles.

Each suite draws (simplex, interior point) configurations, evaluates a
closed-form quantity from ``ratios`` and an independent Cartesian-determinant
quantity from the batched kernels of ``geometry`` per trial, and records any
discrepancy beyond the plan tolerance.  Trials are reproducible and
schedule-independent: every random number of trial t in a run with seed s
comes from the Philox4x32-10 block function (Salmon et al., SC'11) keyed by
the two 32-bit words of s, at counter (block, attempt, t & 0xffffffff,
t >> 32).  A block gives two uniforms of 53 bits, ((w0 << 32 | w1) >> 11)
* 2^-53; vertex coordinates are 2u - 1 and exponentials -log1p(-u).  The
draws of a trial depend only on (s, t, attempt), so reports are
byte-identical for any batch size or execution order.  Switching to this
layout from numpy's per-trial Philox4x64 generator changed every drawn
input once, so reports made before the switch differ draw for draw.

A suite is one ``Suite`` record in ``SUITE_TABLE`` (default tolerance,
weight floor, allowed n, bound, second simplex, per-batch check); ``SUITES``
and ``DEFAULT_TOLERANCES`` derive from it.  The checks:

* ``theorem1``       cevian-simplex / base volume ratio (determinant and
                     closed form) stays at most n^-n, within absolute slack
                     ``tol`` on the ratio scale;
* ``theorem2``       last-corner ratio stays at most f(theta_n), same slack;
* ``eq2``            every corner ratio: closed form vs determinant volume,
                     relative error at most ``tol``;
* ``decomposition``  sum of the n+1 corner ratios equals the cevian ratio:
                     closed forms within ``tol``, determinant route within
                     max(tol, DET_ROUTE_TOL);
* ``moebius``        (n=2) |4pqr - x^2(p+q+r+x)| at most ``tol`` * S^3;
* ``segment_ratio``  distance ratios |M-N_i| / |M-A_i| match w_i/(1-w_i)
                     within relative ``tol``, and A_i, M, N_i are collinear
                     within COLLINEARITY_TOL of the edge scale;
* ``affine``         determinant volume ratios are equal (relative ``tol``)
                     on two drawn simplices with the same weights: the
                     unique invertible affine map between them carries one
                     cevian configuration onto the other.

Sampling keeps the oracle's rounding far below the tolerances: every
simplex, both of the affine suite's included, must have an edge condition
number of at most 1/COND_DET (``is_well_conditioned``), and the weights
are drawn without rejection from the flat Dirichlet conditioned on every
weight being at least the suite's floor, which the relative-tolerance
suites raise to COND_WEIGHT.  A batch of trials is drawn and filtered as arrays; rejected
rows are redrawn with the next attempt number, up to MAX_REJECTIONS rounds,
and redraws do not count as trials.  Oracle determinants are evaluated in
extended precision (80-bit on x86) by a batched pivoted-LU routine, which
keeps the oracle's relative error far below the suite tolerances even for
the very flat cevian simplices that near-boundary points produce (against
exact rational determinants: below 1e-15 on the flattest of 400 sampled
n=6 cevian simplices).  The Philox draws and the conditioning test run over
row blocks on the calling thread; the determinants' row blocks are offered
as futures to a thread pool (``geometry._row_blocks``) with one worker per
other core, and the calling thread runs every offer it can still cancel,
from the last, while workers take the first.  Every row is computed alone,
so reports do not depend on the blocks or on which thread ran them.
"""
from __future__ import annotations

import hashlib
import math
import operator
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import geometry as oracle
from . import ratios as closed
from .errors import UnsupportedDimensionError
from .geometry import CevianBatch
from .geometry import _det_ld  # noqa: F401  (the benchmark traces it here)

# Conditioning filter: condition-number floor for is_well_conditioned in
# all suites, plus a weight floor for the relative-tolerance suites.  The
# float64 inputs then keep the determinant routes' relative error near
# 2^-53 / (COND_DET * COND_WEIGHT) = 1.1e-10, under 1e-9.
COND_DET = 1e-3
COND_WEIGHT = 1e-3
# Floor for determinant-route equality checks (the oracle itself cannot do
# relative 1e-12 on flat sub-simplices).
DET_ROUTE_TOL = 1e-9
# Collinearity slack for A_i, M, N_i, relative to the edge scale.
COLLINEARITY_TOL = 1e-9
# Redraw rounds per trial before it is reported as a sampling failure.
MAX_REJECTIONS = 1000
# Philox counters per row block of a draw.  Their uint64 words and
# temporaries (about 1 MB) stay in a 2 MB L2: on a 2-core Xeon, a 4096-row
# batch of n=6 vertices took 10 ms at once and 6 ms in 1024-row blocks.
PHILOX_ROW_BLOCK = 16384


# Checks: (batch, tol, bound, *second simplex) -> per-trial (margin,
# observed); margin > 0 is a violation, observed the headline quantity.


def _theorem1(batch, tol, bound):
    observed = np.maximum(
        oracle.det_cevian_ratios(batch), closed.cevian_ratios(batch.weights)
    )
    return observed - (bound + tol), observed


def _theorem2(batch, tol, bound):
    last = (batch.weights.shape[1] - 1,)
    observed = np.maximum(
        oracle.det_corner_ratios(batch, last)[:, 0],
        closed.corner_ratios(batch.weights, last)[:, 0],
    )
    return observed - (bound + tol), observed


def _eq2(batch, tol, bound):
    corners = closed.corner_ratios(batch.weights)
    observed = (np.abs(oracle.det_corner_ratios(batch) - corners) / corners).max(1)
    return observed - tol, observed


def _decomposition(batch, tol, bound):
    cev_closed = closed.cevian_ratios(batch.weights)
    cev_det = oracle.det_cevian_ratios(batch)
    corners_closed = closed.corner_ratios(batch.weights).sum(1)
    closed_rel = np.abs(corners_closed - cev_closed) / cev_closed
    det_rel = np.abs(oracle.det_corner_ratios(batch).sum(1) - cev_det) / cev_det
    margins = np.maximum(closed_rel - tol, det_rel - max(tol, DET_ROUTE_TOL))
    return margins, closed_rel


def _moebius(batch, tol, bound):
    areas = oracle.det_moebius_areas(batch)
    resid = np.abs(closed.moebius_residual(areas))
    s3 = areas.S**3
    return (resid - tol * s3).astype(float), (resid / s3).astype(float)


def _segment_ratio(batch, tol, bound):
    to_vertex, to_foot, off_line = oracle.cevian_distances(batch)
    expected = closed.segment_ratios(batch.weights)
    rel = (np.abs(to_foot / to_vertex - expected) / expected).max(1)
    return np.maximum(rel - tol, off_line.max(1) - COLLINEARITY_TOL), rel


def _det_ratios(batch):
    return np.concatenate(
        [oracle.det_cevian_ratios(batch)[:, None], oracle.det_corner_ratios(batch)], 1
    )


def _affine(batch, tol, bound, image):
    before = _det_ratios(batch)
    after = _det_ratios(CevianBatch(image, batch.weights))
    observed = (np.abs(before - after) / np.maximum(before, after)).max(1)
    return observed - tol, observed


@dataclass(frozen=True)
class Suite:
    """Everything the harness knows about one suite.  ``tol`` is absolute on
    the ratio scale for bound suites, else relative; ``max_n`` None: any n."""

    name: str
    tol: float
    check: Callable
    weight_floor: float = oracle.EPS_BOUNDARY
    max_n: int | None = None
    bound: Callable[[int], float] | None = None
    affine: bool = False


SUITE_TABLE = {
    suite.name: suite
    for suite in (
        Suite("theorem1", 1e-12, _theorem1, bound=closed.theorem1_bound),
        Suite("theorem2", 1e-12, _theorem2, bound=closed.theorem2_value),
        Suite("eq2", 1e-9, _eq2, weight_floor=COND_WEIGHT),
        Suite("decomposition", 1e-12, _decomposition, weight_floor=COND_WEIGHT),
        Suite("moebius", 1e-10, _moebius, max_n=2),
        Suite("segment_ratio", 1e-9, _segment_ratio, weight_floor=COND_WEIGHT),
        Suite("affine", 1e-9, _affine, weight_floor=COND_WEIGHT, affine=True),
    )
}
SUITES = tuple(SUITE_TABLE)
DEFAULT_TOLERANCES = {name: suite.tol for name, suite in SUITE_TABLE.items()}


@dataclass(frozen=True)
class TrialPlan:
    """What to run: suite, dimension, trial count, seed, and tolerance.

    ``tol=None`` picks the suite default from DEFAULT_TOLERANCES.  ``n``,
    ``trials`` and ``seed`` must be integers (numpy ones are stored as int);
    anything else raises TypeError.
    """

    suite: str
    n: int
    trials: int
    seed: int
    tol: float | None = None

    def __post_init__(self) -> None:
        for name in ("n", "trials", "seed"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        suite = SUITE_TABLE.get(self.suite)
        if suite is None:
            raise ValueError(f"unknown suite {self.suite!r}; pick one of {SUITES}")
        if self.n < 2:
            raise UnsupportedDimensionError(f"suites require n >= 2, got {self.n}")
        if COND_DET * self.n > 1.0:  # the sampler would reject every simplex
            raise ValueError(f"suites need n <= {1 / COND_DET:.0f}: kappa_F(E) >= n "
                             "> 1/COND_DET for every edge matrix E")
        if suite.max_n is not None and self.n > suite.max_n:
            raise ValueError(f"the {suite.name} suite needs n <= {suite.max_n}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.tol is None:
            object.__setattr__(self, "tol", suite.tol)
        if not 0.0 < self.tol < math.inf:
            raise ValueError(f"tol must be positive and finite, got {self.tol}")


@dataclass(frozen=True)
class Violation:
    trial_index: int
    inputs_digest: str
    margin: float


@dataclass(frozen=True)
class VerificationReport:
    """Suite outcome: violations (empty when passed) plus the worst margins.

    ``worst_margin`` is the maximum over trials of (observed - allowed);
    negative when the suite passes, and consistent with the violation list
    (a violation is exactly a trial with positive margin).
    ``max_ratio_observed`` is the suite's headline observable: the largest
    volume ratio for the inequality suites, the largest relative (or
    S^3-scaled) discrepancy for the equality suites.  ``bound`` is the
    inequality bound where one exists, None otherwise.  ``elapsed`` (seconds)
    is excluded from serialized reports so reruns compare byte-identical.
    """

    plan: TrialPlan
    violations: tuple
    worst_margin: float
    max_ratio_observed: float
    bound: float | None
    passed: bool
    elapsed: float = field(compare=False)

    def to_dict(self) -> dict:
        """JSON-shaped report; field set fixed, elapsed deliberately absent."""
        return {
            "suite": self.plan.suite,
            "n": self.plan.n,
            "trials": self.plan.trials,
            "seed": self.plan.seed,
            "tol": self.plan.tol,
            "passed": self.passed,
            "worst_margin": self.worst_margin,
            "max_ratio_observed": self.max_ratio_observed,
            "bound": self.bound,
            "violations": [asdict(v) for v in self.violations],
        }


def _floored_weights(raw: np.ndarray, floor: float) -> np.ndarray:
    """The flat Dirichlet conditioned on every weight >= f = floor, exactly
    and without rejection: f + (1 - k f) E / sum(E) for k exponentials E."""
    k = raw.shape[-1]
    return floor + (1.0 - k * floor) * (raw / raw.sum(-1, keepdims=True))


# Philox4x32-10 (Salmon et al., SC'11): round multipliers and Weyl key bumps.
_PHILOX_M = (0xD2511F53, 0xCD9E8D57)
_PHILOX_W = (0x9E3779B9, 0xBB67AE85)
_MASK32 = 0xFFFFFFFF


def _philox4x32(counter: tuple, key: tuple) -> tuple:
    """The Philox4x32-10 block function on arrays of counters.

    counter: four broadcastable uint64 arrays of 32-bit words; key: two
    ints below 2**32.  Returns the four output words as uint64 arrays.
    Words are held in uint64 so each 32x32-bit product is exact.
    """
    c0, c1, c2, c3 = counter
    k0, k1 = key
    for _ in range(10):
        # in place where the operand is a fresh array, to spare allocations
        p0 = c0 * _PHILOX_M[0]
        p1 = c2 * _PHILOX_M[1]
        c0 = (p1 >> 32) ^ c1
        c0 ^= k0
        c2 = (p0 >> 32) ^ c3
        c2 ^= k1
        p1 &= _MASK32
        p0 &= _MASK32
        c1, c3 = p1, p0
        k0 = (k0 + _PHILOX_W[0]) & _MASK32
        k1 = (k1 + _PHILOX_W[1]) & _MASK32
    return c0, c1, c2, c3


class _RoundDraws:
    """The draws of one redraw round for a set of trials, one row per trial.

    Each call takes the next counter blocks of every row's substream,
    starting on a fresh block; a block gives two uniforms of 53 bits.  The
    rows go through Philox in blocks of about PHILOX_ROW_BLOCK counters, on
    the calling thread; counters are independent, so the bits do not depend
    on the blocks.
    """

    def __init__(self, key: tuple, trials: np.ndarray, attempt: int) -> None:
        trials = trials.astype(np.uint64)[:, None]
        self._key = key
        self._attempt = np.uint64(attempt)
        self._low, self._high = trials & _MASK32, trials >> 32
        self._block = 0

    def _unit(self, size: tuple) -> np.ndarray:
        rows, count = size[0], math.prod(size[1:])
        blocks = (count + 1) // 2
        index = np.arange(self._block, self._block + blocks, dtype=np.uint64)
        self._block += blocks
        out = np.empty((rows, count))
        step = max(1, PHILOX_ROW_BLOCK // blocks)
        for lo in range(0, rows, step):
            hi = min(lo + step, rows)
            w0, w1, w2, w3 = _philox4x32(
                (index, self._attempt, self._low[lo:hi], self._high[lo:hi]), self._key
            )
            for word, low in ((w0, w1), (w2, w3)):  # (word << 32 | low) >> 11
                word <<= 32
                word |= low
                word >>= 11
            bits = np.stack([w0, w2], axis=-1).reshape(hi - lo, 2 * blocks)
            np.multiply(bits[:, :count], 2.0**-53, out=out[lo:hi])
        return out.reshape(size)

    def uniform(self, low: float, high: float, size: tuple) -> np.ndarray:
        return low + (high - low) * self._unit(size)

    def standard_exponential(self, size: tuple) -> np.ndarray:
        return -np.log1p(-self._unit(size))


class _TrialStream:
    """Counter-based substreams of one seed: Philox4x32-10 with the seed's
    two 32-bit words as key and counter (block, attempt, trial low word,
    trial high word)."""

    def __init__(self, seed: int) -> None:
        self.key = (seed & _MASK32, seed >> 32)

    def for_trial(self, trials: np.ndarray, attempt: int) -> _RoundDraws:
        """The draws of redraw round ``attempt`` for the given trials."""
        return _RoundDraws(self.key, trials, attempt)


def _draw_trial(stream: _TrialStream, suite: Suite, n: int, trials: np.ndarray):
    """Accepted inputs of a batch of trials, drawn with the conditioning
    filter: (accepted mask over ``trials``, [vertices, weights] plus the
    second simplex's vertices for an affine suite, rows of the accepted
    trials only).

    A round draws a whole candidate per pending trial (vertices, then the
    exponentials, then an affine suite's second vertices) and redraws the
    rejected rows in the next round, so the accepted draw of a trial depends
    only on its substream.  Trials still rejected after MAX_REJECTIONS
    rounds are left unaccepted.
    """
    k = n + 1
    shapes = [(k, n), (k,)] + ([(k, n)] if suite.affine else [])
    out = [np.zeros((len(trials), *shape)) for shape in shapes]
    accepted = np.zeros(len(trials), dtype=bool)
    pending = np.arange(len(trials))
    for attempt in range(MAX_REJECTIONS):
        if not pending.size:
            break
        gen = stream.for_trial(trials[pending], attempt)
        rows = pending.size
        verts = gen.uniform(-1.0, 1.0, (rows, k, n))
        wts = _floored_weights(gen.standard_exponential((rows, k)), suite.weight_floor)
        ok = oracle.is_well_conditioned(verts, COND_DET)
        drawn = [verts, wts]
        if suite.affine:
            image = gen.uniform(-1.0, 1.0, (rows, k, n))
            ok[ok] = oracle.is_well_conditioned(image[ok], COND_DET)
            drawn.append(image)
        done = pending[ok]
        for dest, part in zip(out, drawn):
            dest[done] = part[ok]
        accepted[done] = True
        pending = pending[~ok]
    return accepted, out if accepted.all() else [a[accepted] for a in out]


def _evaluate(
    suite: Suite, tol: float, bound: float | None, verts, wts, *image
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial (margin, observed) for one batch: the suite's own check."""
    return suite.check(CevianBatch(verts, wts), tol, bound, *image)


def _digest(suite: str, seed: int, trial: int, *arrays: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(suite.encode())
    h.update(seed.to_bytes(8, "little"))
    h.update(trial.to_bytes(8, "little"))
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def run_suite(plan: TrialPlan, batch_size: int = 4096) -> VerificationReport:
    """Run every trial of the plan and aggregate the report.

    ``batch_size`` only controls how many trials are evaluated per
    vectorized pass; any value produces the identical report.  Sampling
    failures are recorded as violations with infinite margin rather than
    raised.
    """
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    start = time.perf_counter()
    suite = SUITE_TABLE[plan.suite]
    bound = None if suite.bound is None else suite.bound(plan.n)
    stream = _TrialStream(plan.seed)

    violations: list[Violation] = []
    worst = -math.inf
    observed_max = -math.inf

    for chunk_start in range(0, plan.trials, batch_size):
        chunk = np.arange(chunk_start, min(chunk_start + batch_size, plan.trials))
        accepted, inputs = _draw_trial(stream, suite, plan.n, chunk)
        for trial in chunk[~accepted]:
            violations.append(Violation(int(trial), "sampling-failure", math.inf))
            worst = math.inf
        trials = chunk[accepted]
        if not trials.size:
            continue
        margins, observed = _evaluate(suite, plan.tol, bound, *inputs)
        worst = max(worst, float(margins.max()))
        observed_max = max(observed_max, float(observed.max()))
        for pos in np.flatnonzero(margins > 0.0):
            trial = int(trials[pos])
            digest = _digest(plan.suite, plan.seed, trial, *(a[pos] for a in inputs))
            violations.append(Violation(trial, digest, float(margins[pos])))

    violations.sort(key=lambda v: v.trial_index)
    return VerificationReport(
        plan=plan,
        violations=tuple(violations),
        worst_margin=worst,
        max_ratio_observed=observed_max,
        bound=bound,
        passed=not violations,
        elapsed=time.perf_counter() - start,
    )
