"""Simplex geometry kernel: barycentric coordinates, volumes, cevian feet,
and the determinant oracle the suites check the closed forms against.

Conventions used throughout the package:

* an n-simplex lives in R^n and is given by n+1 vertices, one per row of an
  (n+1, n) array; indices are 0-based, so vertex i pairs with barycentric
  weight i and with cevian foot i (the foot on the facet opposite vertex i);
* arrays are float64, except the oracle's determinants and Moebius areas
  (``_det_ld``, ``det_moebius_areas``), which are longdouble;
* the records ``BarycentricPoint``, ``CartesianSimplex``,
  ``CevianConfiguration``, ``CevianBatch`` and ``MoebiusAreas`` are frozen;
  the arrays of the first three and a batch's cached arrays are read-only.

The oracle kernels work on a ``CevianBatch`` of B configurations, and a
configuration is a view of its batch of one.  Nothing here imports
``ratios``: the suites compare the two, so they must stay independent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    DegenerateSimplexError,
    DimensionMismatchError,
    NotInteriorError,
    UnsupportedDimensionError,
)

# Interior margin for barycentric weights: points with any weight below this
# are rejected so that downstream formulas never divide by a vanishing
# complement 1 - weight.
EPS_BOUNDARY = 1e-9

# Degeneracy guard: the edge matrix's Frobenius condition number must be
# at most 1 / DELTA_DEGENERACY.
DELTA_DEGENERACY = 1e-9

# Row block of the oracle's LU: at most SPLIT_MIN_ROWS m x m matrices and
# BLOCK_ENTRIES entries, so 2048 rows up to m = 12.  The blocks bound the
# LU's longdouble copy, 4.7 MB against 118 MB for 2048 60x60 matrices, and
# keep it nearer the cache: on one core, 4096 30x30 matrices took 0.66-0.72 s
# in blocks against 0.79-0.95 s at once.
SPLIT_MIN_ROWS = 2048
BLOCK_ENTRIES = SPLIT_MIN_ROWS * 12**2


def _block_rows(m: int) -> int:
    return max(1, min(SPLIT_MIN_ROWS, BLOCK_ENTRIES // (m * m or 1)))


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _frozen(a) -> np.ndarray:
    return _read_only(np.ascontiguousarray(a, dtype=float))


def _edges(points: np.ndarray) -> np.ndarray:
    """Edge vectors from the last point to the others; (..., m+1, d) -> (..., m, d)."""
    return points[..., :-1, :] - points[..., -1:, :]


def max_edge_length(points: np.ndarray):
    """Largest pairwise distance between rows: (..., m, d) -> (...)."""
    squared = [
        ((points[..., i + 1 :, :] - points[..., i : i + 1, :]) ** 2).sum(-1).max(-1)
        for i in range(points.shape[-2] - 1)
    ]
    return np.sqrt(np.max(squared, axis=0))


def _exponent(vertices: np.ndarray) -> np.ndarray:
    """Per simplex, the e with largest |coordinate| * 2^-e in [1/2, 1);
    (..., k, d) -> (...).  Rescaling by 2^-e is exact, keeps squared
    distances finite and nonzero at any float64 scale, and leaves simplices
    whose largest coordinate is in [1/2, 1) unchanged."""
    return np.frexp(np.abs(vertices).max((-2, -1)))[1]


def is_well_conditioned(vertices: np.ndarray, floor: float = DELTA_DEGENERACY):
    """The conditioning test: floor * ||E||_F ||E^-1||_F <= 1 for the edge
    matrix E; (..., n+1, n) vertices -> (...).

    The condition number is scale-free, infinite for a singular E and NaN,
    so never well conditioned, for vertices holding NaN or inf.  It grows
    only polynomially with n on random simplices, where |det| decays like a
    volume.  The power-of-two rescale of ``_exponent`` keeps E and its
    inverse finite at any float64 scale.
    """
    vertices = np.asarray(vertices, dtype=float)
    flat = vertices.reshape(-1, *vertices.shape[-2:])
    edges = _edges(np.ldexp(flat, -_exponent(flat)[:, None, None]))
    kappa = np.linalg.cond(edges, "fro")
    return (floor * kappa <= 1.0).reshape(vertices.shape[:-2])


@dataclass(frozen=True)
class BarycentricPoint:
    """Interior point of an n-simplex as positive weights summing to 1.

    The constructor renormalizes the weights by their sum (hand-entered
    weights rarely sum to 1 exactly) and rejects anything within
    EPS_BOUNDARY of the boundary.
    """

    weights: np.ndarray

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1:
            raise DimensionMismatchError("weights must be a flat vector")
        if w.shape[0] < 3:
            raise UnsupportedDimensionError(
                f"need n >= 2, i.e. at least 3 weights, got {w.shape[0]}"
            )
        if not np.all(np.isfinite(w)):
            raise NotInteriorError("weights must be finite")
        total = float(w.sum())
        if total <= 0.0:
            raise NotInteriorError(f"weights must have positive sum, got {total}")
        w = w / total
        if w.min() < EPS_BOUNDARY:
            raise NotInteriorError(
                f"weight {w.min():.3e} below the interior margin {EPS_BOUNDARY:.0e}"
            )
        object.__setattr__(self, "weights", _frozen(w))

    @property
    def n(self) -> int:
        """Dimension of the ambient simplex (= number of weights - 1)."""
        return self.weights.shape[0] - 1


@dataclass(frozen=True)
class CartesianSimplex:
    """n+1 vertices (rows) of a nondegenerate n-simplex in R^n."""

    vertices: np.ndarray

    def __post_init__(self) -> None:
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[0] != v.shape[1] + 1:
            raise DimensionMismatchError(
                f"expected (n+1, n) vertex array, got {v.shape}"
            )
        if v.shape[1] < 2:
            raise UnsupportedDimensionError("need dimension n >= 2")
        if not np.all(np.isfinite(v)):
            raise DegenerateSimplexError("vertices must be finite")
        if not is_well_conditioned(v):
            raise DegenerateSimplexError(
                f"edge condition number above the guard 1/{DELTA_DEGENERACY:.0e}"
            )
        object.__setattr__(self, "vertices", _frozen(v))

    @property
    def dim(self) -> int:
        return self.vertices.shape[1]


@dataclass(frozen=True)
class CevianConfiguration:
    """A simplex, an interior point, and the n+1 cevians through it.

    Only ``simplex`` and ``point`` are stored; the arrays are read-only
    row-0 views of ``batch``, their ``CevianBatch`` of one, made on first
    use.  ``feet`` holds the barycentric coordinates of the cevian feet, one
    per row; row i has an exact zero in column i (foot i lies on the facet
    opposite vertex i).  ``dist_to_vertices[i]`` is the distance from the
    interior point to vertex i and ``dist_to_feet[i]`` the distance from the
    interior point to foot i, so ``dist_to_feet[i] / dist_to_vertices[i]``
    equals ``weights[i] / (1 - weights[i])``.
    """

    simplex: CartesianSimplex
    point: BarycentricPoint

    def __post_init__(self) -> None:
        if self.point.n != self.simplex.dim:
            raise DimensionMismatchError(
                f"point n={self.point.n} against simplex n={self.simplex.dim}"
            )

    @cached_property
    def batch(self) -> CevianBatch:
        return CevianBatch(self.simplex.vertices[None], self.point.weights[None])

    @cached_property
    def feet(self) -> np.ndarray:
        return _read_only(feet_weights(self.batch.weights))[0]

    @cached_property
    def _distances(self) -> tuple[np.ndarray, ...]:
        return tuple(_read_only(d)[0] for d in cevian_distances(self.batch)[:2])

    point_cart = property(lambda self: self.batch.point[0])
    feet_cart = property(lambda self: self.batch.feet[0])
    dist_to_vertices = property(lambda self: self._distances[0])
    dist_to_feet = property(lambda self: self._distances[1])


@dataclass(frozen=True)
class MoebiusAreas:
    """The four areas cut from a triangle by three cevians through one point.

    p, q, r are the corner triangles (vertex i together with the two feet
    on its adjacent sides), x the inner cevian triangle, S the base
    triangle.  Valid records satisfy p + q + r + x = S; Moebius' theorem
    additionally gives 4pqr = x^2 (p+q+r+x) when the four areas come from
    an actual cevian configuration.  The fields are floats, or arrays of
    one shape for a batch of triangles.
    """

    p: float
    q: float
    r: float
    x: float
    S: float

    def __post_init__(self) -> None:
        for name in ("p", "q", "r", "x", "S"):
            if not np.all(getattr(self, name) > 0.0):
                raise ValueError(f"area {name} must be positive")
        if np.any(abs(self.p + self.q + self.r + self.x - self.S) > 1e-9 * self.S):
            raise ValueError("areas must satisfy p + q + r + x = S")


def _det_ld(mats: np.ndarray) -> np.ndarray:
    """Batched determinants in extended precision via pivoted LU.

    mats: (B, m, m) in any float dtype; returns (B,) longdouble.  Each
    determinant depends only on its own matrix, so results do not depend on
    the ``_block_rows(m)`` blocks the LU runs over.
    """
    rows = mats.shape[0]
    out = np.empty(rows, dtype=np.longdouble)
    step = _block_rows(mats.shape[-1])
    for lo in range(0, rows, step):
        out[lo : lo + step] = _lu_det(mats[lo : lo + step])
    return out


def _pivot(a: np.ndarray, col: int, first: int) -> np.ndarray:
    """Partial pivoting on a contiguous batch-last (m, w, B) array: moves
    the first argmax of |a[col:, col]| of each lane into row col.  Only the
    lanes that pivot swap, and only in columns first:, by flat take/put
    indices.  Returns the mask of lanes that swapped."""
    _, w, b = a.shape
    piv = np.abs(a[col:, col]).argmax(axis=0)
    lanes = np.flatnonzero(piv)
    if lanes.size:
        # Flat indices of columns first: of row col and of the pivot row.
        flat = a.reshape(-1)
        top = (np.arange(col * w + first, (col + 1) * w) * b)[:, None] + lanes
        low = top + piv[lanes] * (w * b)
        saved = flat[top]
        flat[top] = flat[low]
        flat[low] = saved
    return piv != 0


def _lu_det(mats: np.ndarray) -> np.ndarray:
    """The pivoted LU of ``_det_ld`` on a batch-last (m, m, B) copy, so
    every step works on contiguous lanes.  ``_pivot`` swaps columns col:.
    Only a[col+1:, col+1:] is updated, by a rounded product and then a
    subtraction; column col below the diagonal is never read again."""
    b, m, _ = mats.shape
    a = np.empty((m, m, b), dtype=np.longdouble)
    a[...] = mats.transpose(1, 2, 0)
    det = np.ones(b, dtype=np.longdouble)
    for col in range(m):
        np.negative(det, out=det, where=_pivot(a, col, col))
        pivots = a[col, col]
        det *= pivots
        factors = a[col + 1 :, col] / np.where(pivots == 0.0, 1.0, pivots)
        a[col + 1 :, col + 1 :] -= factors[:, None] * a[col, col + 1 :]
    return det


def feet_weights(weights: np.ndarray) -> np.ndarray:
    """Barycentric feet, foot i in row i; (..., k) -> (..., k, k).

    Foot i lies on line (vertex i, M) and on the facet opposite vertex i:
    weight i zeroed (exactly) and the rest renormalized by 1 - w_i.
    """
    x = weights[..., None, :] / (1.0 - weights)[..., :, None]
    idx = np.arange(weights.shape[-1])
    x[..., idx, idx] = 0.0
    return x


@dataclass(frozen=True)
class CevianBatch:
    """B cevian configurations: (B, n+1, n) vertices and (B, n+1) weights.

    Cartesian feet and point and the base and feet determinants are
    computed once, on first use, as read-only arrays all kernels share.
    """

    vertices: np.ndarray
    weights: np.ndarray

    @cached_property
    def feet(self) -> np.ndarray:
        return _read_only(feet_weights(self.weights) @ self.vertices)

    @cached_property
    def point(self) -> np.ndarray:
        return _read_only(np.einsum("bj,bjd->bd", self.weights, self.vertices))

    @cached_property
    def base_det(self) -> np.ndarray:
        return _read_only(_det_ld(_edges(self.vertices)))

    @cached_property
    def feet_det(self) -> np.ndarray:
        return _read_only(_det_ld(_edges(self.feet)))


def det_cevian_ratios(batch: CevianBatch) -> np.ndarray:
    """Volume(N_0 ... N_n) / Volume(base) by determinants; (B,)."""
    return np.abs(batch.feet_det / batch.base_det).astype(float)


def _spans(feet: np.ndarray, apex: np.ndarray, corners):
    """Edge matrices of the simplices spanned by ``apex`` (B, n) and every
    foot but foot c, one (B, n, n) stack per c in ``corners``, made one at a
    time from feet moved to the apex once."""
    rel = feet - apex[:, None, :]
    return (np.delete(rel, c, axis=1) for c in corners)


def det_corner_ratios(batch: CevianBatch, corners=None) -> np.ndarray:
    """Volume(corner c) / Volume(base) by determinants; (B, len(corners)).

    Corner c is spanned by M and every foot but foot c; default: all n+1.
    """
    k = batch.weights.shape[1]
    spans = _spans(batch.feet, batch.point, range(k) if corners is None else corners)
    dets = [_det_ld(span) for span in spans]
    return np.abs(np.stack(dets, axis=1) / batch.base_det[:, None]).astype(float)


def det_moebius_areas(batch: CevianBatch) -> MoebiusAreas:
    """Moebius areas of B triangles, each field (B,) and kept in longdouble
    so the residual built from them inherits the oracle's accuracy."""
    p, q, r = (
        np.abs(_det_ld(span)) / 2.0
        for i in range(3)
        for span in _spans(batch.feet, batch.vertices[:, i], [i])
    )
    return MoebiusAreas(
        p, q, r, x=np.abs(batch.feet_det) / 2.0, S=np.abs(batch.base_det) / 2.0
    )


def _norms(x: np.ndarray) -> np.ndarray:
    return np.sqrt((x**2).sum(-1))


def cevian_distances(batch: CevianBatch) -> tuple[np.ndarray, ...]:
    """Per cevian i: |M - A_i|, |M - N_i|, and the distance of M from the
    line A_i N_i relative to the max edge length; each (B, n+1).

    The differences are rescaled by the exact power of two of
    ``_exponent`` before they are squared and the distances scaled back,
    so squaring neither overflows nor underflows at any scale.
    """
    shift = -_exponent(batch.vertices)[:, None, None]
    edge = max_edge_length(np.ldexp(batch.vertices, shift))
    point = batch.point[:, None, :]
    to_vertex, to_foot, direction = (
        np.ldexp(d, shift, out=d)
        for d in (batch.vertices - point, batch.feet - point, batch.feet - batch.vertices)
    )
    direction /= _norms(direction)[:, :, None]
    along = (-to_vertex * direction).sum(-1)
    off_line = -to_vertex - along[:, :, None] * direction
    unshift = -shift[:, :, 0]
    return (
        np.ldexp(_norms(to_vertex), unshift),
        np.ldexp(_norms(to_foot), unshift),
        _norms(off_line) / edge[:, None],
    )


def simplex_volume(vertices: np.ndarray) -> float:
    """Unsigned volume of the simplex spanned by the given (m+1, m) vertices:
    |det(A_i - A_last)| / m!, a batch of one over ``_det_ld``.

    No degeneracy guard: flat simplices return (near-)zero volume.  This is
    the raw determinant evaluation used as an oracle for possibly degenerate
    sub-simplices; use :func:`volume` for guarded top-level simplices.
    """
    v = np.asarray(vertices, dtype=float)
    if v.ndim != 2 or v.shape[0] != v.shape[1] + 1:
        raise DimensionMismatchError(f"expected (m+1, m) vertex array, got {v.shape}")
    det = np.abs(_det_ld(_edges(v)[None])[0])
    # m! overflows float64 from m = 171: divide by its top 64 bits, then 2^shift
    factorial = math.factorial(v.shape[1])
    shift = max(factorial.bit_length() - 64, 0)
    return float(np.ldexp(det / (factorial >> shift), -shift))


def volume(s: CartesianSimplex) -> float:
    """Volume of a nondegenerate simplex: |det(A_i - A_last)| / n!."""
    return simplex_volume(s.vertices)


def to_cartesian(weights, s: CartesianSimplex) -> np.ndarray:
    """Map barycentric weights to the Cartesian point sum_i w_i A_i.

    Accepts a BarycentricPoint or any weight vector of length n+1 (cevian
    feet carry a zero entry and are passed as plain arrays).
    """
    w = weights.weights if isinstance(weights, BarycentricPoint) else np.asarray(weights, dtype=float)
    if w.shape != (s.vertices.shape[0],):
        raise DimensionMismatchError(
            f"{w.shape[0] if w.ndim == 1 else w.shape} weights against "
            f"{s.vertices.shape[0]} vertices"
        )
    return w @ s.vertices


def to_barycentric(p, s: CartesianSimplex) -> BarycentricPoint:
    """Barycentric coordinates of a point strictly inside the simplex.

    Solves the (n+1) x (n+1) linear system [vertices^T; row of ones] w =
    [p; 1].  Raises NotInteriorError if any solved weight falls below
    EPS_BOUNDARY.
    """
    p = np.asarray(p, dtype=float)
    n = s.dim
    if p.shape != (n,):
        raise DimensionMismatchError(f"point shape {p.shape} against dimension {n}")
    a = np.empty((n + 1, n + 1))
    a[:n, :] = s.vertices.T
    a[n, :] = 1.0
    rhs = np.append(p, 1.0)
    try:
        w = np.linalg.solve(a, rhs)
    except np.linalg.LinAlgError as exc:  # guarded at construction; belt and braces
        raise DegenerateSimplexError(str(exc)) from exc
    return BarycentricPoint(w)


def build_configuration(s: CartesianSimplex, m: BarycentricPoint) -> CevianConfiguration:
    """The cevian configuration of simplex s and point m."""
    return CevianConfiguration(s, m)


def moebius_areas(config: CevianConfiguration) -> MoebiusAreas:
    """Measure the four Moebius areas of a triangle cevian configuration."""
    if config.simplex.dim != 2:
        raise UnsupportedDimensionError("Moebius areas are defined for n = 2 only")
    areas = det_moebius_areas(config.batch)
    return MoebiusAreas(**{name: float(a[0]) for name, a in vars(areas).items()})


def corner_simplex_vertices(config: CevianConfiguration, k: int) -> np.ndarray:
    """Vertices of corner sub-simplex k, read-only: the interior point plus
    every foot except foot k."""
    n = config.simplex.dim
    if not 0 <= k <= n:
        raise IndexError(f"corner index {k} out of range 0..{n}")
    keep = [j for j in range(n + 1) if j != k]
    return _read_only(np.vstack([config.feet_cart[keep], config.point_cart[None, :]]))
