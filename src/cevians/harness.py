"""Seeded randomized suites confronting every closed form with determinant
oracles.

Each suite draws (simplex, interior point) configurations, evaluates a
closed-form quantity from ``ratios`` and an independent Cartesian-determinant
quantity from the batched kernels of ``geometry`` per trial, and records any
discrepancy beyond the plan tolerance.  Trials are reproducible and
schedule-independent: trial t of a run with seed s draws every random number
from its own counter-based Philox substream keyed by (s, t), so reports are
byte-identical for any batch size or execution order.

A suite is one ``Suite`` record in ``SUITE_TABLE`` (default tolerance,
weight floor, allowed n, bound, affine draws, per-batch check); ``SUITES``
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
* ``affine``         determinant volume ratios are unchanged (relative
                     ``tol``) under a random invertible affine map.

Sampling applies a conditioning filter so the determinant oracle's own
rounding stays far below the tolerances: every suite requires the base
simplex to pass ``is_well_conditioned`` at COND_DET, and the suites that
compare routes at relative tolerance raise their weight floor to
COND_WEIGHT.  Filtered draws are resampled from the same trial substream
and do not count as trials.  Oracle determinants are evaluated in extended
precision (80-bit on x86) by a batched pivoted-LU routine, which keeps the
oracle's relative error near 1e-12 even for the very flat cevian simplices
that near-boundary points produce.
"""
from __future__ import annotations

import hashlib
import math
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import geometry as oracle
from . import ratios as closed
from .errors import (
    DegenerateSimplexError,
    NotInteriorError,
    SamplingError,
    UnsupportedDimensionError,
)
from .geometry import BarycentricPoint, CartesianSimplex, CevianBatch
from .geometry import _det_ld  # noqa: F401  (the benchmark traces it here)

# Conditioning filter: base-simplex floor for is_well_conditioned in all
# suites, plus a weight floor for the relative-tolerance suites, calibrated
# so the extended-precision determinant oracle keeps three orders of
# magnitude of headroom under a 1e-9 relative tolerance.
COND_DET = 1e-3
COND_WEIGHT = 1e-3
# Floor for determinant-route equality checks (the oracle itself cannot do
# relative 1e-12 on flat sub-simplices).
DET_ROUTE_TOL = 1e-9
# Collinearity slack for A_i, M, N_i, relative to the edge scale.
COLLINEARITY_TOL = 1e-9
# Minimum determinant of the random affine map in the affine suite.
AFFINE_MIN_DET = 1e-6

# Retry budget for rejection sampling, per trial and per sampler call.
MAX_REJECTIONS = 1000


# Checks: (batch, tol, bound, *affine map and shift) -> per-trial (margin,
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


def _affine(batch, tol, bound, amats, shifts):
    mapped = np.einsum("bij,bvj->bvi", amats, batch.vertices) + shifts[:, None, :]
    before = _det_ratios(batch)
    after = _det_ratios(CevianBatch(mapped, batch.weights))
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

    ``tol=None`` picks the suite default from DEFAULT_TOLERANCES.
    """

    suite: str
    n: int
    trials: int
    seed: int
    tol: float | None = None

    def __post_init__(self) -> None:
        suite = SUITE_TABLE.get(self.suite)
        if suite is None:
            raise ValueError(f"unknown suite {self.suite!r}; pick one of {SUITES}")
        if self.n < 2:
            raise UnsupportedDimensionError(f"suites require n >= 2, got {self.n}")
        if suite.max_n is not None and self.n > suite.max_n:
            raise ValueError(f"the {suite.name} suite needs n <= {suite.max_n}")
        if self.trials < 1:
            raise ValueError(f"trials must be >= 1, got {self.trials}")
        if not 0 <= self.seed < 2**64:
            raise ValueError("seed must be an unsigned 64-bit integer")
        if self.tol is None:
            object.__setattr__(self, "tol", suite.tol)
        if not self.tol > 0.0:
            raise ValueError(f"tol must be positive, got {self.tol}")


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


def sample_interior(n: int, rng: np.random.Generator) -> BarycentricPoint:
    """Uniform sample from the open standard simplex in n+1 weights.

    Normalizes n+1 independent standard exponentials (the flat Dirichlet);
    resamples in the astronomically rare event a weight lands inside the
    EPS_BOUNDARY margin.
    """
    if n < 2:
        raise UnsupportedDimensionError(f"need n >= 2, got {n}")
    for _ in range(MAX_REJECTIONS):
        try:
            return BarycentricPoint(rng.standard_exponential(n + 1))
        except NotInteriorError:
            continue
    raise SamplingError(f"no interior point in {MAX_REJECTIONS} draws")


def random_simplex(n: int, rng: np.random.Generator) -> CartesianSimplex:
    """Random nondegenerate simplex with vertex coordinates uniform in [-1, 1].

    Resamples until the degeneracy guard passes; nearly every draw is
    accepted for n <= 6.
    """
    if n < 2:
        raise UnsupportedDimensionError(f"need n >= 2, got {n}")
    for _ in range(MAX_REJECTIONS):
        try:
            return CartesianSimplex(rng.uniform(-1.0, 1.0, size=(n + 1, n)))
        except DegenerateSimplexError:
            continue
    raise SamplingError(f"no nondegenerate simplex in {MAX_REJECTIONS} draws")


class _TrialStream:
    """One reusable Philox generator, reset per trial to key (seed, trial)."""

    def __init__(self) -> None:
        self._bitgen = np.random.Philox(key=0)
        self.generator = np.random.Generator(self._bitgen)

    def for_trial(self, seed: int, trial: int) -> np.random.Generator:
        self._bitgen.state = {
            "bit_generator": "Philox",
            "state": {
                "counter": np.zeros(4, dtype=np.uint64),
                "key": np.array([seed, trial], dtype=np.uint64),
            },
            "buffer": np.zeros(4, dtype=np.uint64),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        return self.generator


def _draw_trial(gen: np.random.Generator, suite: Suite, n: int) -> tuple:
    """One trial's accepted inputs, drawn with the conditioning filter:
    (vertices, weights), plus (map, shift) for an affine suite.

    The whole candidate is redrawn together until every filter passes, so
    the accepted draw depends only on the trial substream.
    """
    k = n + 1
    for _ in range(MAX_REJECTIONS):
        verts = gen.uniform(-1.0, 1.0, size=(k, n))
        raw = gen.standard_exponential(k)
        maps = (
            (gen.uniform(-1.0, 1.0, size=(n, n)), gen.uniform(-1.0, 1.0, size=n))
            if suite.affine
            else ()
        )
        wts = raw / raw.sum()
        if not oracle.is_interior(wts, suite.weight_floor):
            continue
        if not oracle.is_well_conditioned(verts, COND_DET):
            continue
        if maps and not (
            abs(np.linalg.det(maps[0])) >= AFFINE_MIN_DET
            and oracle.is_well_conditioned(verts @ maps[0].T + maps[1], COND_DET)
        ):
            continue
        return (verts, wts, *maps)
    raise SamplingError(f"conditioning filter rejected {MAX_REJECTIONS} draws")


def _evaluate(
    suite: Suite, tol: float, bound: float | None, verts, wts, *maps
) -> tuple[np.ndarray, np.ndarray]:
    """Per-trial (margin, observed) for one batch: the suite's own check."""
    return suite.check(CevianBatch(verts, wts), tol, bound, *maps)


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
    stream = _TrialStream()

    violations: list[Violation] = []
    worst = -math.inf
    observed_max = -math.inf

    for chunk_start in range(0, plan.trials, batch_size):
        trials, drawn = [], []
        for trial in range(chunk_start, min(chunk_start + batch_size, plan.trials)):
            gen = stream.for_trial(plan.seed, trial)
            try:
                drawn.append(_draw_trial(gen, suite, plan.n))
            except SamplingError:
                violations.append(Violation(trial, "sampling-failure", math.inf))
                worst = math.inf
                continue
            trials.append(trial)
        if not trials:
            continue
        inputs = [np.stack(parts) for parts in zip(*drawn)]
        margins, observed = _evaluate(suite, plan.tol, bound, *inputs)
        worst = max(worst, float(margins.max()))
        observed_max = max(observed_max, float(observed.max()))
        for pos in np.flatnonzero(margins > 0.0):
            trial = trials[pos]
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
