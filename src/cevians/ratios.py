"""Closed-form volume ratios of cevian configurations.

All ratios are expressed purely in the barycentric weights w_0..w_n of the
interior point M, normalized by the volume of the base simplex:

* corner k (apex M, all feet except foot k):
      corner_ratio = w_k * prod_{i != k} w_i / (1 - w_i)
* full cevian simplex (all n+1 feet):
      cevian_ratio = n * prod_i w_i / prod_i (1 - w_i)

The corner ratios sum to the cevian ratio, mirroring the decomposition of
the cevian simplex into the n+1 corner sub-simplices around M.  The
segment ratios |M - N_i| / |M - A_i| = w_i / (1 - w_i) are the factors of
both products, and ``moebius_residual`` is Moebius' relation
4pqr = x^2 (p+q+r+x) among the four areas three cevians cut from a
triangle.  The bounds these ratios satisfy, n^-n and
f(theta_n), are scalars of n and live in ``constants``.

The kernels take weights of shape (..., n+1); the scalar API is a batch of
one over them.  Only the record types ``BarycentricPoint`` and
``MoebiusAreas`` come from ``geometry``, never a volume or determinant: the
suites check these closed forms against that oracle.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .constants import theorem1_bound, theorem2_value
from .errors import corner
from .geometry import BarycentricPoint, MoebiusAreas


def _as_point(m) -> BarycentricPoint:
    """Raw weights as a ``BarycentricPoint``: renormalized, finite, interior."""
    return m if isinstance(m, BarycentricPoint) else BarycentricPoint(m)


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
    point = _as_point(m)
    return float(corner_ratios(point.weights, (corner(k, point.n),))[0])


def cevian_ratio(m) -> float:
    """Volume(cevian simplex N_0...N_n) / Volume(base simplex).

    Equals n * prod_i w_i / prod_i (1 - w_i): the absolute determinant of
    the feet's barycentric matrix.  Cross-validated against the Cartesian
    determinant oracle by the verification suites rather than assumed.
    """
    return float(cevian_ratios(_as_point(m).weights))


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
    point = _as_point(m)
    corners = corner_ratios(point.weights)
    corners.flags.writeable = False
    return RatioBreakdown(
        n=point.n,
        corner_ratios=corners,
        cevian_ratio=float(cevian_ratios(point.weights)),
        theorem1_bound=theorem1_bound(point.n),
        theorem2_value=theorem2_value(point.n),
    )
