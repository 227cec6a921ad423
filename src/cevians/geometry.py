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
configuration is a view of its batch of one.  ``_det_ld`` is the oracle's
one entry point.  A base or cevian simplex is one pivoted LU of its m x m
edge matrix.  The n+1 corner simplices share M and all but one foot, so
their volumes are the maximal minors of the (n+1) x n feet relative to M,
all taken from one pivoted elimination of its transpose plus a Hessenberg
sweep per minor: O(n^3) per trial where n+1 LUs take O(n^4).  The base and
cevian determinants never come from the minors, so the decomposition
check's two sides stay independent.  The cevian distances run on rows of
B contiguous lanes too, adding coordinates from the left.  Nothing here
imports ``ratios``: the suites compare the two, so they must stay independent.
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
    corner,
    dimension,
)

# Interior margin for barycentric weights: points with any weight below this
# are rejected so that downstream formulas never divide by a vanishing
# complement 1 - weight.
EPS_BOUNDARY = 1e-9

# Degeneracy guard: the edge matrix's Frobenius condition number must be
# at most 1 / DELTA_DEGENERACY.
DELTA_DEGENERACY = 1e-9


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _frozen(a) -> np.ndarray:
    """A read-only float64 copy, never the caller's own array."""
    return _read_only(np.array(a, dtype=float, order="C"))


def _edges(points: np.ndarray) -> np.ndarray:
    """Edge vectors from the last point to the others; (..., m+1, d) -> (..., m, d)."""
    return points[..., :-1, :] - points[..., -1:, :]


def _lanes(a: np.ndarray) -> np.ndarray:
    """A batch-last copy, (B, ...) -> (..., B): rows of B contiguous lanes."""
    return np.moveaxis(a, 0, -1).copy()


def _sum_in_order(terms) -> np.ndarray:
    """terms[0] + terms[1] + ..., added from the left, elementwise."""
    total = terms[0].copy()
    for term in terms[1:]:
        total += term
    return total


def _norms(x: np.ndarray) -> np.ndarray:
    """Norms over axis -2, squares added from the left; (..., d, B) -> (..., B)."""
    return np.sqrt(_sum_in_order(np.moveaxis(x * x, -2, 0)))


def _cartesian(weights: np.ndarray, vertices: np.ndarray) -> np.ndarray:
    """The Cartesian point sum_j w_j A_j; (..., k), (..., k, d) -> (..., d)."""
    return np.einsum("...j,...jd->...d", weights, vertices)


def max_edge_length(points: np.ndarray) -> np.ndarray:
    """Largest distance between rows of batch-last points; (m, d, B) -> (B,)."""
    lengths = [_norms(points[i + 1 :] - points[i]).max(0) for i in range(len(points) - 1)]
    return np.max(lengths, axis=0)


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
        dimension(w.shape[0] - 1)
        if not np.all(np.isfinite(w)):
            raise NotInteriorError("weights must be finite")
        # The exact power of two of _exponent keeps the sum finite at any scale.
        scaled = np.ldexp(w, -np.frexp(np.abs(w).max())[1])
        total = float(scaled.sum())
        if total <= 0.0:
            raise NotInteriorError(f"weights must have positive sum, got {sum(w.tolist())}")
        w = scaled / total
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
        dimension(v.shape[1])
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


def _det_ld(mats: np.ndarray, rows=None) -> np.ndarray:
    """Batched determinants in extended precision via pivoted elimination.

    mats: (B, m, m) in any float dtype returns the (B,) longdouble
    determinants, and ``rows`` is unused.  mats: (B, m+1, m) returns the
    (B, len(rows)) maximal minors, minor c the determinant of mats with row
    c deleted, for every c in ``rows`` (default all m+1), from ``_minors``.
    Each result depends only on its own matrix, so results do not depend on
    the batch.  A square batch is eliminated on a batch-last (m, m, B) copy,
    so every step works on contiguous lanes.
    """
    b, k, m = mats.shape
    if k != m:
        return _minors(mats, range(k) if rows is None else rows)
    a = np.empty((m, m, b), dtype=np.longdouble)
    a[...] = mats.transpose(1, 2, 0)
    prefix, odd = _eliminate(a)
    return np.negative(prefix[m], out=prefix[m], where=odd)


def _pivot(a: np.ndarray, col: int) -> np.ndarray:
    """Partial pivoting on a contiguous batch-last (m, w, B) array: moves
    the first argmax of |a[col:, col]| of each lane into row col.  Only the
    lanes that pivot swap, and only in columns col:, by flat take/put
    indices.  Returns the mask of lanes that swapped."""
    _, w, b = a.shape
    piv = np.fabs(a[col:, col]).argmax(axis=0)
    lanes = np.flatnonzero(piv)
    if lanes.size:
        # Flat indices of columns col: of row col and of the pivot row.
        flat = a.reshape(-1)
        top = (np.arange(col * w + col, (col + 1) * w) * b)[:, None] + lanes
        low = top + piv[lanes] * (w * b)
        saved = flat[top]
        flat[top] = flat[low]
        flat[low] = saved
    return piv != 0


def _eliminate(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Pivoted elimination, in place, of the m columns of a batch-last
    (m, w, B) longdouble array, w >= m: a[:, :] becomes U of P A = L U on
    and above the diagonal.  ``_pivot`` swaps columns col:.  Only
    a[col+1:, col+1:] is updated, by a rounded product and then a
    subtraction; column col below the diagonal is never read again.
    Returns the products of the first c pivots, (m+1, B), and the lanes
    with an odd number of swaps."""
    m, _, b = a.shape
    prefix = np.ones((m + 1, b), dtype=np.longdouble)
    odd = np.zeros(b, dtype=bool)
    for col in range(m):
        odd ^= _pivot(a, col)
        pivots = a[col, col]
        np.multiply(prefix[col], pivots, out=prefix[col + 1])
        factors = a[col + 1 :, col] / np.where(pivots == 0.0, 1.0, pivots)
        a[col + 1 :, col + 1 :] -= factors[:, None] * a[col, col + 1 :]
    return prefix, odd


def _minors(mats: np.ndarray, rows) -> np.ndarray:
    """The maximal minors of ``_det_ld`` for a (B, m+1, m) batch, all from
    one elimination of the batch-last transposes A = mats^T, (m, m+1) each.

    A row swap flips the sign of every maximal minor of A and a row
    addition keeps them all, so with U from ``_eliminate``, minor c (column c of A deleted) is that sign times
    u_00 ... u_(c-1)(c-1) times det H_c, H_c = U[c:, c+1:] upper Hessenberg.
    det H_c is one sweep of adjacent-row pivoting: a carried row, H_c's row
    j after elimination (U's columns r+1: at r = c + j), meets U[r+1, r+1:]
    and keeps the larger leading entry, the carried one on a tie, as its
    pivot.  The sweeps of every c from min(rows) on run side by side, a
    carry joining at r = c, and each touches only its own rows.  H_m is
    empty: minor m needs no sweep.  All of it is O(m^3) per matrix, against
    O(m^4) for m+1 separate LUs.
    """
    b, _, m = mats.shape
    start = min(rows)
    width = m + (start < m)  # only the sweeps read column m
    a = np.empty((m, width, b), dtype=np.longdouble)
    a[...] = mats[:, :width].transpose(2, 1, 0)
    prefix, odd = _eliminate(a)
    carry = np.empty((0, m - start, b), dtype=np.longdouble)
    det = np.empty((0, b), dtype=np.longdouble)
    for r in range(start, m):
        carry = np.concatenate([carry, a[r, None, r + 1 :]])  # corner r joins
        det = np.concatenate([det, prefix[r, None]])
        top = carry[:, 0]
        if r == m - 1:
            det *= top
            break
        low = a[r + 1, r + 1 :]
        swap = np.fabs(low[0]) > np.fabs(top)
        pivots = np.where(swap, low[0], top)
        det *= pivots
        np.negative(det, out=det, where=swap)
        factors = np.where(swap, top, low[0]) / np.where(pivots == 0.0, 1.0, pivots)
        pivot_rows = np.where(swap[:, None], low[1:], carry[:, 1:])
        carry = np.where(swap[:, None], carry[:, 1:], low[1:])
        carry -= factors[:, None] * pivot_rows
    out = np.concatenate([det, prefix[m, None]]).T.take(np.subtract(rows, start), axis=1)
    return np.negative(out, out=out, where=odd[:, None])


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
        return _read_only(_cartesian(self.weights, self.vertices))

    @cached_property
    def base_det(self) -> np.ndarray:
        return _read_only(_det_ld(_edges(self.vertices)))

    @cached_property
    def feet_det(self) -> np.ndarray:
        return _read_only(_det_ld(_edges(self.feet)))


def det_cevian_ratios(batch: CevianBatch) -> np.ndarray:
    """Volume(N_0 ... N_n) / Volume(base) by determinants; (B,)."""
    return np.abs(batch.feet_det / batch.base_det).astype(float)


def det_corner_ratios(batch: CevianBatch, corners=None) -> np.ndarray:
    """Volume(corner c) / Volume(base) by determinants; (B, len(corners)).

    Corner c is spanned by M and every foot but foot c; default: all n+1.
    Its volume is the minor of the feet relative to M with row c deleted,
    so all corners come from one elimination; ``feet_det`` is never read.
    """
    minors = _det_ld(batch.feet - batch.point[:, None, :], corners)
    return np.abs(minors / batch.base_det[:, None]).astype(float)


def det_moebius_areas(batch: CevianBatch) -> MoebiusAreas:
    """Moebius areas of B triangles, each field (B,) and kept in longdouble
    so the residual built from them inherits the oracle's accuracy.  Corner
    i is spanned by vertex i and the feet but foot i: the minor of the feet
    relative to vertex i with row i deleted."""
    p, q, r = (
        np.abs(_det_ld(batch.feet - batch.vertices[:, i, None], (i,))[:, 0]) / 2.0
        for i in range(3)
    )
    return MoebiusAreas(
        p, q, r, x=np.abs(batch.feet_det) / 2.0, S=np.abs(batch.base_det) / 2.0
    )


def cevian_distances(batch: CevianBatch) -> tuple[np.ndarray, ...]:
    """Per cevian i: |M - A_i|, |M - N_i|, and the distance of M from the
    line A_i N_i relative to the max edge length; each (B, n+1).

    It works on batch-last copies, its norms and dot products adding the
    coordinates from the left.  The differences are rescaled by the exact
    power of two of ``_exponent`` before they are squared and the distances
    scaled back, so squaring neither overflows nor underflows at any scale.
    """
    shift = -_exponent(batch.vertices)
    vertices, point = _lanes(batch.vertices), _lanes(batch.point)
    edge = max_edge_length(np.ldexp(vertices, shift))
    feet = _lanes(batch.feet)
    direction = np.ldexp(feet - vertices, shift)
    direction /= _norms(direction)[:, None]
    for a in (vertices, feet):  # in place: A_i - M and N_i - M, rescaled
        np.ldexp(np.subtract(a, point, out=a), shift, out=a)
    to_vertex, to_foot = (np.ldexp(_norms(a), -shift) for a in (vertices, feet))
    off_line = np.negative(vertices, out=vertices)  # M - A_i, less its projection
    along = _sum_in_order(np.moveaxis(off_line * direction, 1, 0))
    off_line -= along[:, None] * direction
    return to_vertex.T, to_foot.T, (_norms(off_line) / edge).T


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
    return _cartesian(w, s.vertices)


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
    corner(k, n)
    keep = [j for j in range(n + 1) if j != k]
    return _read_only(np.vstack([config.feet_cart[keep], config.point_cart[None, :]]))
