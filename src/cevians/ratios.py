"""Closed-form volume ratios of cevian configurations, and their bounds.

All ratios are expressed purely in the barycentric weights w_0..w_n of the
interior point M, normalized by the volume of the base simplex:

* corner k (apex M, all feet except foot k):
      corner_ratio = w_k * prod_{i != k} w_i / (1 - w_i)
* full cevian simplex (all n+1 feet):
      cevian_ratio = n * prod_i w_i / prod_i (1 - w_i)

The corner ratios sum to the cevian ratio, mirroring the decomposition of
the cevian simplex into the n+1 corner sub-simplices around M.  The cevian
ratio is at most n^-n (equality exactly at the centroid) and every corner
ratio is at most f(theta_n) with f(x) = (x/(1-x))^n (1-nx).

The kernels take weights of shape (..., n+1); the scalar API is a batch of
one over them.  Only the record types ``BarycentricPoint`` and
``MoebiusAreas`` come from ``geometry``, never a volume or determinant: the
suites check these closed forms against that oracle.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import (
    metallic,
    metallic_cf,
    metallic_hyperbolic,
    theta,
    theta_cf,
    theta_hyperbolic,
)
from .errors import UnsupportedDimensionError
from .geometry import BarycentricPoint, MoebiusAreas


def _as_weights(m) -> np.ndarray:
    w = m.weights if isinstance(m, BarycentricPoint) else np.asarray(m, dtype=float)
    if w.ndim != 1 or w.shape[0] < 3:
        raise UnsupportedDimensionError("need a weight vector of length n+1, n >= 2")
    return w


def segment_ratios(w: np.ndarray) -> np.ndarray:
    """|M - N_i| / |M - A_i| = w_i / (1 - w_i) per cevian; (..., n+1) -> (..., n+1)."""
    return w / (1.0 - w)


def corner_ratios(w: np.ndarray, corners=None) -> np.ndarray:
    """Closed-form corner ratios w_c * prod_{i != c} w_i / (1 - w_i).

    (..., n+1) -> (..., len(corners)); ``corners`` defaults to all n+1.
    """
    g = segment_ratios(w)
    corners = range(w.shape[-1]) if corners is None else corners
    out = np.empty(w.shape[:-1] + (len(corners),))
    for j, c in enumerate(corners):
        # np.delete and np.prod, minus the call overhead that dominates the
        # optimizer's one-point calls
        others = np.concatenate((g[..., :c], g[..., c + 1 :]), -1)
        out[..., j] = w[..., c] * np.multiply.reduce(others, -1)
    return out


def cevian_ratios(w: np.ndarray) -> np.ndarray:
    """Closed-form cevian ratio n prod w_i / prod (1 - w_i); (..., n+1) -> (...)."""
    return (w.shape[-1] - 1) * np.prod(w, -1) / np.prod(1.0 - w, -1)


def corner_ratio(m, k: int) -> float:
    """Volume(corner sub-simplex k) / Volume(base simplex).

    Corner k is spanned by the interior point and every cevian foot except
    foot k; its ratio is w_k * prod_{i != k} w_i / (1 - w_i).
    """
    w = _as_weights(m)
    n = w.shape[0] - 1
    if not 0 <= k <= n:
        raise IndexError(f"corner index {k} out of range 0..{n}")
    return float(corner_ratios(w, (k,))[0])


def cevian_ratio(m) -> float:
    """Volume(cevian simplex N_0...N_n) / Volume(base simplex).

    Equals n * prod_i w_i / prod_i (1 - w_i): the absolute determinant of
    the feet's barycentric matrix.  Cross-validated against the Cartesian
    determinant oracle by the verification suites rather than assumed.
    """
    return float(cevian_ratios(_as_weights(m)))


def theorem1_bound(n: int) -> float:
    """The sharp cevian-simplex volume bound n^-n.

    Underflows to 0.0 for n >~ 143; use theorem1_bound_log there.
    """
    if n < 2:
        raise UnsupportedDimensionError(f"bound requires n >= 2, got {n}")
    return float(n) ** (-n)


def theorem1_bound_log(n: int) -> float:
    """log(n^-n) = -n log n, usable far beyond double-precision underflow."""
    if n < 2:
        raise UnsupportedDimensionError(f"bound requires n >= 2, got {n}")
    return -n * math.log(n)


def theorem2_value(n: int) -> float:
    """The sharp corner-volume bound f(theta_n), f(x) = (x/(1-x))^n (1-nx).

    Evaluated as (theta/(1-theta))^n * theta * (1-theta), using the exact
    identity 1 - n*theta_n = theta_n (1 - theta_n) that follows from the
    defining quadratic; this avoids the cancellation in 1 - n*theta_n for
    large n.  Underflows to 0.0 for n >~ 150; use theorem2_value_log there.
    """
    t = theta(n)
    return (t / (1.0 - t)) ** n * t * (1.0 - t)


def theorem2_value_log(n: int) -> float:
    """log f(theta_n) = (n+1) log(theta_n) + (1-n) log(1-theta_n)."""
    t = theta(n)
    return (n + 1) * math.log(t) + (1 - n) * math.log1p(-t)


@dataclass(frozen=True)
class BoundAudit:
    """Raw comparison of the displayed corner-bound coefficient with f(theta_n).

    ``paper_value`` is the displayed general-form coefficient
    (n+1)^2 / (n - theta_n)^(n+3) exactly as printed; ``direct_value`` is
    f(theta_n) computed directly; ``ratio`` their quotient; and
    ``direct_times_power`` is f(theta_n) * (n - theta_n)^(n+3), i.e. the
    numerator that would make the displayed form agree with the direct
    value.  No judgment is encoded; the fields are raw inputs for a report.
    """

    n: int
    paper_value: float
    direct_value: float
    ratio: float
    direct_times_power: float


def audit_bound(n: int) -> BoundAudit:
    """Compare the displayed closed-form corner bound against f(theta_n).

    (n - theta_n)^(n+3) overflows from n = 141, so it is never formed:
    f(theta_n) (n - theta_n)^(n+3) is regrouped per factor, and the ratio
    is (n+1)^2 over that product.
    """
    t = theta(n)
    base = n - t
    direct_times_power = (t / (1.0 - t) * base) ** n * t * (1.0 - t) * base**3
    return BoundAudit(
        n=n,
        paper_value=(n + 1) ** 2 * base ** -(n + 3),
        direct_value=theorem2_value(n),
        ratio=(n + 1) ** 2 / direct_times_power,
        direct_times_power=direct_times_power,
    )


def moebius_residual(areas: MoebiusAreas) -> float:
    """4pqr - x^2 (p+q+r+x); zero (to rounding) for cevian configurations.

    Elementwise, so a record of batched areas gives one residual per trial.
    """
    return 4.0 * areas.p * areas.q * areas.r - areas.x**2 * (
        areas.p + areas.q + areas.r + areas.x
    )


@dataclass(frozen=True)
class RatioBreakdown:
    """All closed-form ratios for one interior point, plus their bounds."""

    n: int
    corner_ratios: np.ndarray
    cevian_ratio: float
    theorem1_bound: float
    theorem2_value: float


def ratio_breakdown(m) -> RatioBreakdown:
    """Evaluate every corner ratio, the cevian ratio, and both bounds."""
    w = _as_weights(m)
    n = w.shape[0] - 1
    corners = corner_ratios(w)
    corners.flags.writeable = False
    return RatioBreakdown(
        n=n,
        corner_ratios=corners,
        cevian_ratio=float(cevian_ratios(w)),
        theorem1_bound=theorem1_bound(n),
        theorem2_value=theorem2_value(n),
    )


@dataclass(frozen=True)
class ConstantsRow:
    """Per-n summary: theta_n in all three forms, the extremal value, the
    displayed bound coefficient, and the metallic mean in all three forms.

    Lives here rather than in the constants module because f(theta_n) and
    the displayed coefficient are bound formulas, not representations of
    theta itself.
    """

    n: int
    theta: float
    theta_cf: float
    theta_hyp: float
    f_theta: float
    log_f_theta: float
    paper_eq3_value: float
    metallic: float
    metallic_cf: float
    metallic_hyp: float


def constants_row(n: int, depth: int = 40) -> ConstantsRow:
    """Assemble the summary row for one n (convergents at the given depth)."""
    return ConstantsRow(
        n=n,
        theta=theta(n),
        theta_cf=theta_cf(n, depth),
        theta_hyp=theta_hyperbolic(n),
        f_theta=theorem2_value(n),
        log_f_theta=theorem2_value_log(n),
        paper_eq3_value=audit_bound(n).paper_value,
        metallic=metallic(n),
        metallic_cf=metallic_cf(n, depth),
        metallic_hyp=metallic_hyperbolic(n),
    )
