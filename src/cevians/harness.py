"""Seeded randomized suites confronting every closed form with determinant
oracles.

Each suite draws (simplex, interior point) configurations, evaluates a
closed-form quantity from ``ratios`` or ``constants`` and an independent
Cartesian-determinant quantity from the batched kernels of ``geometry`` per
trial, and records any discrepancy beyond the plan tolerance.  Trials are reproducible and
schedule-independent: every random number of trial t in a run with seed s
comes from the Philox4x32-10 block function (Salmon et al., SC'11) keyed by
the two 32-bit words of s, at counter (block low, block high, t low, t high).
A block gives two uniforms ((w0 << 32 | w1) >> 11) * 2^-53, which become
coordinates 2u - 1, exponentials -log1p(-u) and Box-Muller Gaussians.  The
draws of a trial depend only on (s, t), so reports are byte-identical for
any pass size or execution order.

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

Sampling keeps the oracle's rounding far below the tolerances.  A simplex
has edges E = Q diag(sigma), Q random orthogonal, so kappa_F(E) <=
KAPPA_MAX by construction (``_simplex``); weights are the flat Dirichlet
conditioned on the suite's floor, COND_WEIGHT for relative tolerances.  Oracle
determinants are evaluated in extended precision (80-bit on x86): the base
and cevian simplices by one batched pivoted LU each, and all corners of a
trial as the maximal minors of one pivoted elimination (``geometry._det_ld``).
That keeps the oracle's relative error far below the suite tolerances even
for the very flat simplices that near-boundary points produce (against
exact rational determinants: below 1e-15 on the flattest of 400 sampled
n=6 cevian simplices, 1.1e-15 on their corners).  A pass of trials is one
of the oracle's row blocks, ``geometry._block_rows(n + 1)`` trials, and
every draw and kernel works on the whole pass, so every temporary of a pass
is as small as the block; every row is computed alone, so reports do not
depend on the pass size.  Every kernel runs on the calling thread.
"""
from __future__ import annotations

import math
import operator
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import geometry as oracle
from . import ratios as closed
from .constants import theorem1_bound, theorem2_value
from .errors import UnsupportedDimensionError
from .geometry import CevianBatch
from .geometry import _det_ld  # noqa: F401  (the benchmark traces it here)

# Conditioning: drawn simplices have kappa_F(E) <= KAPPA_MAX, 0.1% under
# 1/COND_DET, which leaves is_well_conditioned's rounding far behind, and
# the relative-tolerance suites floor the weights at COND_WEIGHT.  The
# float64 inputs then keep the determinant routes' relative error near
# 2^-53 / (COND_DET * COND_WEIGHT) = 1.1e-10, under 1e-9.
COND_DET = 1e-3
COND_WEIGHT = 1e-3
KAPPA_MAX = 0.999 / COND_DET
# Floor for determinant-route equality checks (the oracle itself cannot do
# relative 1e-12 on flat sub-simplices).
DET_ROUTE_TOL = 1e-9
# Collinearity slack for A_i, M, N_i, relative to the edge scale.
COLLINEARITY_TOL = 1e-9


def _pass_trials(n: int) -> int:
    """Trials per pass of run_suite: one oracle row block of (n+1) x (n+1)
    entries, holding the pass's square LUs and its (n+1) x n corner minors."""
    return oracle._block_rows(n + 1)


def _checked_seed(seed) -> int:
    """An integer seed in [0, 2**64), the range of Philox's two key words."""
    seed = operator.index(seed)
    if not 0 <= seed < 2**64:
        raise ValueError("seed must be an unsigned 64-bit integer")
    return seed


# Checks: (batch, tol, bound, *second simplex) -> per-trial (margin,
# observed); a margin > 0 or NaN is a violation, observed the headline
# quantity.


def _relative_error(value, reference, scale):
    """|value - reference| / scale.  Past float64 underflow (n >~ 140) the
    scale is 0 and the quotient inf or NaN, which run_suite counts as a
    violation, so the division's warning would only repeat the verdict."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.abs(value - reference) / scale


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
    observed = _relative_error(oracle.det_corner_ratios(batch), corners, corners).max(1)
    return observed - tol, observed


def _decomposition(batch, tol, bound):
    cev_closed = closed.cevian_ratios(batch.weights)
    cev_det = oracle.det_cevian_ratios(batch)
    corners_closed = closed.corner_ratios(batch.weights).sum(1)
    closed_rel = _relative_error(corners_closed, cev_closed, cev_closed)
    det_rel = _relative_error(oracle.det_corner_ratios(batch).sum(1), cev_det, cev_det)
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
    observed = _relative_error(before, after, np.maximum(before, after)).max(1)
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
        Suite("theorem1", 1e-12, _theorem1, bound=theorem1_bound),
        Suite("theorem2", 1e-12, _theorem2, bound=theorem2_value),
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
        for name in ("n", "trials"):
            object.__setattr__(self, name, operator.index(getattr(self, name)))
        suite = SUITE_TABLE.get(self.suite)
        if suite is None:
            raise ValueError(f"unknown suite {self.suite!r}; pick one of {SUITES}")
        if self.n < 2:
            raise UnsupportedDimensionError(f"suites require n >= 2, got {self.n}")
        _log_sigma_range(self.n)
        if suite.max_n is not None and self.n > suite.max_n:
            raise ValueError(f"the {suite.name} suite needs n <= {suite.max_n}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        object.__setattr__(self, "seed", _checked_seed(self.seed))
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
    (a violation is exactly a trial with positive or NaN margin, and a NaN
    margin makes ``worst_margin`` NaN).
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
            **asdict(self.plan),
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


class _TrialDraws:
    """The draws of a set of trials, one row per trial.

    Each call takes the next counter blocks of every row's substream,
    starting on a fresh block; a block gives two uniforms of 53 bits.  All
    rows go through one Philox call on the calling thread; counters are
    independent, so a row's bits do not depend on the other rows.
    """

    def __init__(self, key: tuple, trials: np.ndarray) -> None:
        trials = trials.astype(np.uint64)[:, None]
        self._key = key
        self._low, self._high = trials & _MASK32, trials >> 32
        self._block = 0

    def _unit(self, size: tuple) -> np.ndarray:
        rows, count = size[0], math.prod(size[1:])
        blocks = (count + 1) // 2
        index = np.arange(self._block, self._block + blocks, dtype=np.uint64)
        self._block += blocks
        counter = (index & _MASK32, index >> 32, self._low, self._high)
        w0, w1, w2, w3 = _philox4x32(counter, self._key)
        for word, low in ((w0, w1), (w2, w3)):  # (word << 32 | low) >> 11
            word <<= 32
            word |= low
            word >>= 11
        bits = np.stack([w0, w2], axis=-1).reshape(rows, 2 * blocks)
        return (bits[:, :count] * 2.0**-53).reshape(size)

    def uniform(self, low: float, high: float, size: tuple) -> np.ndarray:
        return low + (high - low) * self._unit(size)

    def standard_exponential(self, size: tuple) -> np.ndarray:
        return -np.log1p(-self._unit(size))

    def standard_normal(self, size: tuple) -> np.ndarray:
        """Box-Muller pairs sqrt(-2 log(1 - u)) (cos, sin)(pi (2v - 1))."""
        rows, count = size[0], math.prod(size[1:])
        u, v = self._unit((rows, 2, (count + 1) // 2)).transpose(1, 0, 2)
        radius, angle = np.sqrt(-2.0 * np.log1p(-u)), np.pi * (2.0 * v - 1.0)
        pairs = np.concatenate([radius * np.cos(angle), radius * np.sin(angle)], 1)
        return pairs[:, :count].reshape(size)


class _TrialStream:
    """Counter-based substreams of one seed: Philox4x32-10 keyed by the seed's
    two 32-bit words at counter (block low, block high, trial low, trial high)."""

    def __init__(self, seed: int) -> None:
        seed = _checked_seed(seed)
        self.key = (seed & _MASK32, seed >> 32)

    def for_trial(self, trials: np.ndarray) -> _TrialDraws:
        """The draws of the given trials."""
        return _TrialDraws(self.key, trials)


def _log_sigma_range(n: int) -> float:
    """Range R of log sigma.  Over [c e^-R, c]^n, kappa_F(E)^2 = sum(sigma^2)
    sum(sigma^-2) is convex in each sigma_i^2 and peaks with half the sigma
    at each end, at n^2 + 4 (n // 2) (n - n // 2) sinh(R)^2 = KAPPA_MAX^2."""
    room = KAPPA_MAX**2 - n * n
    if room < 0.0:
        raise ValueError(f"suites need n <= {KAPPA_MAX:.0f}: kappa_F(E) >= n")
    return math.asinh(math.sqrt(room / (4 * (n * n // 4))))


def _scaled_orthogonal(normals: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    """Q diag(sigma), (B, n, n), rows of Gram Q diag(sigma^2) Q^T, from B rows
    of n(n+1)/2 - 1 Gaussians: Q = H_0 ... H_{n-2} D (Stewart, SIAM J. Numer.
    Anal. 17(3), 1980), H_k maps its n - k Gaussians x onto e_k and D_kk =
    -sign(x_0) (Mezzadri, Notices AMS 54(5), 2007); D's last sign would only
    mirror the simplex.  Updates run in numpy's own loops, not BLAS, so a
    row's bits depend on neither the batch nor the BLAS build."""
    n = sigma.shape[1]
    out = sigma[:, :, None] * np.eye(n)
    for k in range(n - 2, -1, -1):  # H_k meets only the block at (k, k)
        start = k * n - k * (k - 1) // 2
        v = normals[:, start : start + n - k].copy()
        out[:, k, k] *= -np.copysign(1.0, v[:, 0])
        v[:, 0] += np.copysign(np.sqrt((v * v).sum(-1)), v[:, 0])
        w = np.einsum("bij,bj->bi", out[:, k:, k:], v) * (2.0 / (v * v).sum(-1))[:, None]
        out[:, k:, k:] -= np.einsum("bi,bj->bij", w, v)
    return out.transpose(0, 2, 1)


def _simplex(gen: _TrialDraws, rows: int, n: int) -> np.ndarray:
    """(rows, n+1, n) vertices: apex + E_i for i < n, then the apex, uniform in
    [-1, 1)^n.  log sigma = log(2 sqrt(n)) + R (clip(1.5 s, -1, 1) - 1) / 2, s
    uniform in [-1, 1), puts a third of the sigma at the ends.  Sigma up to
    the box's diagonal keeps the apex's rounding small: eq2 erred by 1.4e-11
    at n = 100 (seed 1, 10 trials), by 2.3e-10 with sigma at most 1."""
    apex, s = gen.uniform(-1.0, 1.0, (rows, 2, n)).transpose(1, 0, 2)
    log_sigma = 0.5 * _log_sigma_range(n) * (np.clip(1.5 * s, -1.0, 1.0) - 1.0)
    sigma = 2.0 * math.sqrt(n) * np.exp(log_sigma)
    edges = _scaled_orthogonal(gen.standard_normal((rows, n * (n + 1) // 2 - 1)), sigma)
    return np.concatenate([apex[:, None, :] + edges, apex[:, None, :]], 1)


def _draw_trial(stream: _TrialStream, suite: Suite, n: int, trials: np.ndarray):
    """Inputs of a batch of trials, one row per trial: [vertices, weights]
    plus the second simplex's vertices for an affine suite, drawn in that
    order from each trial's substream."""
    gen, rows = stream.for_trial(trials), len(trials)
    verts = _simplex(gen, rows, n)
    wts = _floored_weights(gen.standard_exponential((rows, n + 1)), suite.weight_floor)
    return [verts, wts, _simplex(gen, rows, n)] if suite.affine else [verts, wts]


def _evaluate(
    suite: Suite, tol: float, bound: float | None, verts, wts, *image
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial (margin, observed) for one batch: the suite's own check."""
    return suite.check(CevianBatch(verts, wts), tol, bound, *image)


def _digest(suite: str, seed: int, trial: int, *arrays: np.ndarray) -> str:
    import hashlib  # only violations need it, and it maps OpenSSL's libcrypto

    h = hashlib.sha256()
    h.update(suite.encode())
    h.update(seed.to_bytes(8, "little"))
    h.update(trial.to_bytes(8, "little"))
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def run_suite(plan: TrialPlan) -> VerificationReport:
    """Run every trial of the plan and aggregate the report.

    Trials are evaluated in vectorized passes of ``_pass_trials(n)``; any
    pass size produces the identical report.
    """
    start = time.perf_counter()
    suite = SUITE_TABLE[plan.suite]
    bound = None if suite.bound is None else suite.bound(plan.n)
    stream = _TrialStream(plan.seed)

    violations: list[Violation] = []
    worst = -math.inf
    observed_max = -math.inf

    step = _pass_trials(plan.n)
    for chunk_start in range(0, plan.trials, step):
        trials = np.arange(chunk_start, min(chunk_start + step, plan.trials))
        inputs = _draw_trial(stream, suite, plan.n, trials)
        margins, observed = _evaluate(suite, plan.tol, bound, *inputs)
        # np.max keeps a NaN, where max(-inf, nan) is -inf
        worst = float(np.max((worst, margins.max())))
        observed_max = float(np.max((observed_max, observed.max())))
        for pos in np.flatnonzero(~(margins <= 0.0)):
            trial = int(trials[pos])
            digest = _digest(plan.suite, plan.seed, trial, *(a[pos] for a in inputs))
            violations.append(Violation(trial, digest, float(margins[pos])))

    return VerificationReport(
        plan=plan,
        violations=tuple(violations),
        worst_margin=worst,
        max_ratio_observed=observed_max,
        bound=bound,
        passed=not violations,
        elapsed=time.perf_counter() - start,
    )
