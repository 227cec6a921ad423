"""Seeded randomized suites confronting every closed form with determinant
oracles.

Each suite draws (simplex, interior point) configurations, evaluates a
closed-form quantity from ``ratios`` or ``constants`` and an independent
Cartesian-determinant quantity from the batched kernels of ``geometry`` per
trial, and reduces them to one observed float64 per trial.  ``run_suite``
alone judges it: it allows ``(bound or 0) + tol`` and records a violation
wherever the margin, observed - allowed, is positive or NaN.

Trials are reproducible and schedule-independent: every random number of
trial t in a run with seed s comes from the Philox4x32-10 block function
(Salmon et al., SC'11) keyed by the two 32-bit words of s, at counter
(block low, block high, t low, t high).  A block gives two uniforms
((w0 << 32 | w1) >> 11) * 2^-53, which become coordinates 2u - 1,
exponentials -log1p(-u) and Box-Muller Gaussians.  The draws of a trial
depend only on (s, t), so reports are byte-identical for any pass size or
execution order.

A suite is one ``Suite`` record in ``SUITE_TABLE`` (default tolerance,
weight floor, allowed n, bound, second simplex, per-batch check); ``SUITES``
and ``DEFAULT_TOLERANCES`` derive from it.  What each check observes:

* ``theorem1``       the larger of the determinant and closed-form
                     cevian-simplex / base volume ratios, against n^-n
                     (``tol`` absolute on the ratio scale);
* ``theorem2``       the same for the last corner, against f(theta_n);
* ``eq2``            the largest relative error of a closed-form corner
                     ratio against its determinant;
* ``decomposition``  the relative error of the sum of the n+1 corner
                     ratios against the cevian ratio, by closed forms and
                     by determinants;
* ``moebius``        (n=2) |4pqr - x^2(p+q+r+x)| / S^3;
* ``segment_ratio``  the relative error of |M-N_i| / |M-A_i| against
                     w_i/(1-w_i), and the distance of M from line A_i N_i
                     over the edge scale;
* ``affine``         the relative difference of the determinant volume
                     ratios on two drawn simplices with the same weights:
                     the unique invertible affine map between them carries
                     one cevian configuration onto the other.

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
n=6 cevian simplices, 1.1e-15 on their corners).  A pass is
``_pass_trials(n)`` trials, and every draw and kernel works on the whole
pass, so the pass size bounds every temporary.  The reflections and the
cevian distances run batch-last like the oracle, summing in fixed orders;
every row is computed alone, so reports do not depend on the pass size.

A plan of two or more passes runs them in P = min(CPUs in the affinity
mask, passes) processes on Linux (``_pass_processes``): the caller runs
passes 0, P, 2P, ... on the calling thread, and each of P - 1 children
forked at the start of the call runs the passes congruent to its own index
mod P and pipes their results back.  The caller merges them in pass order,
so reports do not depend on P either.  No thread is started.
"""
from __future__ import annotations

import math
import operator
import os
import pickle
import sys
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Callable

import numpy as np

from . import errors
from . import geometry as oracle
from . import ratios as closed
from .constants import theorem1_bound, theorem2_value
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


def _pass_trials(n: int) -> int:
    """Trials per pass of run_suite: at most 2048, and at most 2048 * 12^2
    entries of (n+1) x (n+1), so 2048 up to n = 11.  This is the one size
    budget: every draw and kernel works on the whole pass, so it bounds the
    oracle's longdouble copies, 4.7 MB against 118 MB for 2048 60x60
    matrices, and every float64 temporary of a pass with them: on one core,
    4096 30x30 matrices took 0.66-0.72 s in passes against 0.79-0.95 s at
    once."""
    return max(1, min(2048, 2048 * 12**2 // (n + 1) ** 2))


# Checks: (batch, *second simplex) -> the per-trial float64 discrepancy
# observed; run_suite alone allows (bound or 0) + tol of it.


def _relative_error(value, reference, scale):
    """|value - reference| / scale.  Past float64 underflow (n >~ 140) the
    scale is 0 and the quotient inf or NaN, which run_suite counts as a
    violation, so the division's warning would only repeat the verdict."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.abs(value - reference) / scale


def _theorem1(batch):
    return np.maximum(
        oracle.det_cevian_ratios(batch), closed.cevian_ratios(batch.weights)
    )


def _theorem2(batch):
    last = (batch.weights.shape[1] - 1,)
    return np.maximum(
        oracle.det_corner_ratios(batch, last)[:, 0],
        closed.corner_ratios(batch.weights, last)[:, 0],
    )


def _eq2(batch):
    corners = closed.corner_ratios(batch.weights)
    return _relative_error(oracle.det_corner_ratios(batch), corners, corners).max(1)


def _decomposition(batch):
    cev_closed = closed.cevian_ratios(batch.weights)
    cev_det = oracle.det_cevian_ratios(batch)
    corners_closed = closed.corner_ratios(batch.weights).sum(1)
    closed_rel = _relative_error(corners_closed, cev_closed, cev_closed)
    det_rel = _relative_error(oracle.det_corner_ratios(batch).sum(1), cev_det, cev_det)
    return np.maximum(closed_rel, det_rel)


def _moebius(batch):
    areas = oracle.det_moebius_areas(batch)
    return (np.abs(closed.moebius_residual(areas)) / areas.S**3).astype(float)


def _segment_ratio(batch):
    to_vertex, to_foot, off_line = oracle.cevian_distances(batch)
    expected = closed.segment_ratios(batch.weights)
    rel = _relative_error(to_foot / to_vertex, expected, expected)
    return np.maximum(rel, off_line).max(1)


def _det_ratios(batch):
    return np.concatenate(
        [oracle.det_cevian_ratios(batch)[:, None], oracle.det_corner_ratios(batch)], 1
    )


def _affine(batch, image):
    before = _det_ratios(batch)
    after = _det_ratios(CevianBatch(image, batch.weights))
    return _relative_error(before, after, np.maximum(before, after)).max(1)


@dataclass(frozen=True)
class Suite:
    """Everything the harness knows about one suite.  ``check`` maps a batch
    (and an affine suite's second simplex) to the observed float64 per
    trial; ``tol`` is absolute on the ratio scale for bound suites, else
    relative; ``max_n`` None: any n."""

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
        errors.dimension(self.n)
        _log_sigma_range(self.n)
        if suite.max_n is not None and self.n > suite.max_n:
            raise ValueError(f"the {suite.name} suite needs n <= {suite.max_n}")
        errors.positive_count("trials", self.trials)
        object.__setattr__(self, "seed", errors.seed(self.seed))
        if self.tol is None:
            object.__setattr__(self, "tol", suite.tol)
        errors.tolerance(self.tol)


@dataclass(frozen=True)
class Violation:
    trial_index: int
    inputs_digest: str
    margin: float


@dataclass(frozen=True)
class VerificationReport:
    """Suite outcome: violations (empty when passed) plus the worst margins.

    With allowed = (bound or 0) + tol, a trial's margin is observed -
    allowed and a violation is exactly a trial with positive or NaN margin.
    ``max_ratio_observed`` is the largest observed value, NaN if any is:
    the largest volume ratio for the inequality suites, the largest
    relative (or S^3-scaled) discrepancy for the equality suites.
    ``worst_margin`` is exactly ``max_ratio_observed - allowed``, the
    largest margin, since rounding x - allowed is monotone in x; it is
    negative when the suite passes.  ``bound`` is the inequality bound
    where one exists, None otherwise.  ``elapsed`` (seconds) is excluded
    from serialized reports so reruns compare byte-identical.
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
        seed = errors.seed(seed)
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
    mirror the simplex.  It runs batch-last and sums in fixed orders, norms
    from the left and each block-vector product as even plus odd terms (numpy's
    sum and einsum orders under 8 terms), so a row's bits depend on neither
    the batch nor numpy's loops; its Gaussians' Box-Muller radii take np.log1p,
    whose SIMD loop numpy picks by CPU, so they can differ between hosts."""
    n = sigma.shape[1]
    out = sigma.T[:, None] * np.eye(n)[:, :, None]
    for k in range(n - 2, -1, -1):  # H_k meets only the block at (k, k)
        start = k * n - k * (k - 1) // 2
        v = normals[:, start : start + n - k].T.copy()
        out[k, k] *= -np.copysign(1.0, v[0])
        v[0] += np.copysign(np.sqrt(oracle._sum_in_order(v * v)), v[0])
        block = out[k:, k:]
        w = (block * v).transpose(1, 0, 2)  # the terms of block @ v, j first
        w = oracle._sum_in_order(w[0::2]) + oracle._sum_in_order(w[1::2])
        w *= 2.0 / oracle._sum_in_order(v * v)
        block -= w[:, None] * v
    return out.transpose(2, 1, 0)


def _simplex(gen: _TrialDraws, rows: int, n: int) -> np.ndarray:
    """(rows, n+1, n) vertices: apex + E_i for i < n, then the apex, uniform in
    [-1, 1)^n.  log sigma = log(2 sqrt(n)) + R (clip(1.5 s, -1, 1) - 1) / 2, s
    uniform in [-1, 1), puts a third of the sigma at the ends.  Sigma up to
    the box's diagonal keeps the apex's rounding small: eq2 erred by 1.4e-11
    at n = 100 (seed 1, 10 trials), by 2.3e-10 with sigma at most 1.  Each
    trial is stored column by column, the layout M's einsum sums even/odd."""
    apex, s = gen.uniform(-1.0, 1.0, (rows, 2, n)).transpose(1, 0, 2)
    log_sigma = 0.5 * _log_sigma_range(n) * (np.clip(1.5 * s, -1.0, 1.0) - 1.0)
    sigma = 2.0 * math.sqrt(n) * np.exp(log_sigma)
    edges = _scaled_orthogonal(gen.standard_normal((rows, n * (n + 1) // 2 - 1)), sigma)
    columns = np.empty((rows, n, n + 1))
    np.add(apex[:, :, None], edges.transpose(0, 2, 1), out=columns[:, :, :n])
    columns[:, :, n] = apex
    return columns.transpose(0, 2, 1)


def _draw_trial(stream: _TrialStream, suite: Suite, n: int, trials: np.ndarray):
    """Inputs of a batch of trials, one row per trial: [vertices, weights]
    plus the second simplex's vertices for an affine suite, drawn in that
    order from each trial's substream."""
    gen, rows = stream.for_trial(trials), len(trials)
    verts = _simplex(gen, rows, n)
    wts = _floored_weights(gen.standard_exponential((rows, n + 1)), suite.weight_floor)
    return [verts, wts, _simplex(gen, rows, n)] if suite.affine else [verts, wts]


def _evaluate(suite: Suite, verts, wts, *image) -> np.ndarray:
    """Per-trial observed discrepancy of one batch: the suite's own check."""
    return suite.check(CevianBatch(verts, wts), *image)


def _digest(suite: str, seed: int, trial: int, *arrays: np.ndarray) -> str:
    import hashlib  # only violations need it, and it maps OpenSSL's libcrypto

    h = hashlib.sha256()
    h.update(suite.encode())
    h.update(seed.to_bytes(8, "little"))
    h.update(trial.to_bytes(8, "little"))
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()[:16]


def _run_pass(plan: TrialPlan, suite: Suite, allowed, stream, trials) -> tuple:
    """(largest observed, violations) of one pass of trials: a violation is
    a trial whose margin, observed - allowed, is positive or NaN."""
    inputs = _draw_trial(stream, suite, plan.n, trials)
    observed = _evaluate(suite, *inputs)
    margins = observed - allowed
    violations = []
    for pos in np.flatnonzero(~(margins <= 0.0)):
        trial = int(trials[pos])
        digest = _digest(plan.suite, plan.seed, trial, *(a[pos] for a in inputs))
        violations.append(Violation(trial, digest, float(margins[pos])))
    return float(observed.max()), violations


def _pass_processes(passes: int) -> int:
    """Processes that share a plan's passes: min(CPUs in the affinity mask,
    passes) on Linux.  One pass, another platform (macOS's Accelerate BLAS is
    not fork-safe, Windows has no fork) or another running Python thread,
    which a fork would not copy and whose locks it could leave held, keep
    every pass on the calling thread."""
    if passes < 2 or sys.platform != "linux" or threading.active_count() > 1:
        return 1
    return min(len(os.sched_getaffinity(0)), passes)


def _child_share(run: Callable, items: list, write: int) -> None:
    """A forked child's passes: their results, or the exception that stopped
    them, pickled to the pipe ``write``.  It leaves through os._exit, so no
    frame of the caller unwinds here; status 0 means the result was sent."""
    status = 1
    try:
        try:
            payload = (True, [run(item) for item in items])
        except BaseException as exc:  # the caller raises it with its type
            payload = (False, exc)
        with os.fdopen(write, "wb") as out:
            pickle.dump(payload, out, pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _map_passes(run: Callable, items: list) -> list:
    """[run(item) for item in items] over P = _pass_processes(len(items))
    processes: the caller runs items 0, P, 2P, ... and child k, forked here,
    items k, k + P, ...  No child outlives the call: any error or interrupt
    kills and reaps every child left, a child's exception is raised here
    with its type, and a child that exits without its results raises
    ChildProcessError."""
    procs = _pass_processes(len(items))
    results = [None] * len(items)
    children = {}  # pid -> read end of its pipe, until the child is reaped
    try:
        for k in range(1, procs):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child_share(run, items[k::procs], write)
            os.close(write)
            children[pid] = read
        results[::procs] = [run(item) for item in items[::procs]]
        for k, pid in enumerate(list(children), 1):
            chunks = []
            while chunk := os.read(children[pid], 1 << 20):
                chunks.append(chunk)
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            os.close(children.pop(pid))
            if status != 0:
                raise ChildProcessError(
                    f"pass process {pid} exited with status {status} before "
                    "sending its results"
                )
            done, value = pickle.loads(b"".join(chunks))
            if not done:
                raise value
            results[k::procs] = value
    finally:
        if children:
            import signal  # only a failed or interrupted call gets here

            for pid, read in children.items():
                os.close(read)
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return results


def run_suite(plan: TrialPlan) -> VerificationReport:
    """Run every trial of the plan and aggregate the report.

    Trials are evaluated in vectorized passes of ``_pass_trials(n)``, spread
    over processes by ``_map_passes``; any pass size and process count
    produce the identical report.
    """
    start = time.perf_counter()
    suite = SUITE_TABLE[plan.suite]
    bound = None if suite.bound is None else suite.bound(plan.n)
    allowed = (bound or 0.0) + plan.tol
    stream = _TrialStream(plan.seed)
    step = _pass_trials(plan.n)
    passes = _map_passes(
        lambda trials: _run_pass(plan, suite, allowed, stream, trials),
        [np.arange(s, min(s + step, plan.trials)) for s in range(0, plan.trials, step)],
    )
    # np.max keeps a NaN, where max() may drop it; rounding x - allowed is
    # monotone in x, so the largest margin is the largest observed - allowed
    observed_max = float(np.max([pass_observed for pass_observed, _ in passes]))
    violations = tuple(v for _, pass_violations in passes for v in pass_violations)

    return VerificationReport(
        plan=plan,
        violations=violations,
        worst_margin=observed_max - allowed,
        max_ratio_observed=observed_max,
        bound=bound,
        passed=not violations,
        elapsed=time.perf_counter() - start,
    )
