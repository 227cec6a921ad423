"""Independent oracles used by the tests.

Everything here is deliberately written from first principles, without
importing the package's own implementations of the quantities being
checked: determinants by recursive cofactor expansion or in exact rational
arithmetic, the scalar extremum by dense grid plus golden-section
refinement on a locally defined formula.  ``reference_det_ld`` is the
package's earlier batch-first extended-precision kernel, kept so the
batch-last one can be checked against it bit for bit.
"""
from __future__ import annotations

import math
from fractions import Fraction

import numpy as np


def cofactor_det(a) -> float:
    """Determinant by recursive cofactor expansion along the first row."""
    a = [[float(x) for x in row] for row in np.asarray(a)]
    m = len(a)
    if m == 1:
        return a[0][0]
    total = 0.0
    for col in range(m):
        minor = [row[:col] + row[col + 1 :] for row in a[1:]]
        total += (-1.0) ** col * a[0][col] * cofactor_det(minor)
    return total


def exact_det(a) -> Fraction:
    """Exact determinant of a float matrix by fraction-valued elimination."""
    rows = [[Fraction(float(x)) for x in row] for row in np.asarray(a)]
    det = Fraction(1)
    for col in range(len(rows)):
        piv = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            rows[col], rows[piv] = rows[piv], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [x - factor * y for x, y in zip(rows[r], rows[col])]
    return det


def reference_det_ld(mats: np.ndarray) -> np.ndarray:
    """Batched pivoted-LU determinants in longdouble, batch first: at each
    column, swap whole rows to the first argmax of |a[:, col:, col]|,
    multiply the pivot into the determinant and eliminate below it."""
    a = mats.astype(np.longdouble)
    b, m, _ = a.shape
    det = np.ones(b, dtype=np.longdouble)
    rows = np.arange(b)
    for col in range(m):
        piv = np.abs(a[:, col:, col]).argmax(axis=1) + col
        swapped = piv != col
        pivot_rows = a[rows, piv].copy()
        a[rows, piv] = a[:, col]
        a[:, col] = pivot_rows
        det = np.where(swapped, -det, det)
        pivots = a[:, col, col]
        det = det * pivots
        safe = np.where(pivots == 0.0, 1.0, pivots)
        factors = a[:, col + 1 :, col] / safe[:, None]
        a[:, col + 1 :, col:] -= factors[:, :, None] * a[:, col : col + 1, col:]
    return det


def simplex_volume_cofactor(vertices) -> float:
    """Unsigned simplex volume via the cofactor determinant."""
    v = np.asarray(vertices, dtype=float)
    n = v.shape[1]
    return abs(cofactor_det(v[:-1] - v[-1])) / math.factorial(n)


def reduced_objective(x: float, n: int) -> float:
    """(x/(1-x))^n (1-nx), written out locally for oracle independence."""
    return (x / (1.0 - x)) ** n * (1.0 - n * x)


def grid_golden_max(n: int, grid_points: int = 200001) -> tuple[float, float]:
    """Brute-force maximum of the reduced objective on (0, 1/n).

    Dense grid scan, then golden-section refinement between the grid
    neighbors of the best point.  Returns (argmax, value).
    """
    xs = np.linspace(0.0, 1.0 / n, grid_points)[1:-1]
    vals = (xs / (1.0 - xs)) ** n * (1.0 - n * xs)
    best = int(np.argmax(vals))
    lo = xs[max(best - 1, 0)]
    hi = xs[min(best + 1, xs.size - 1)]
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - inv_phi * (hi - lo)
    d = lo + inv_phi * (hi - lo)
    fc, fd = reduced_objective(c, n), reduced_objective(d, n)
    while hi - lo > 1e-13:
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + inv_phi * (hi - lo)
            fd = reduced_objective(d, n)
        else:
            hi, d, fd = d, c, fc
            c = hi - inv_phi * (hi - lo)
            fc = reduced_objective(c, n)
    x = 0.5 * (lo + hi)
    return x, reduced_objective(x, n)


def finite_difference_points(rng: np.random.Generator, count: int, step: float = 1e-6):
    """Random (n, x) pairs where a relative f'-vs-central-difference check
    at the given step is well posed.

    Three exclusions, all inherent to the comparison rather than to the
    derivative: near the left endpoint the truncation term
    (n-1)(n-2)/6 * (step/x)^2 exceeds the target, near the right endpoint
    the domain itself ends within one step, and near the stationary point
    x = theta_n the denominator f'(x) crosses zero.
    """
    out = []
    while len(out) < count:
        n = int(rng.integers(2, 11))
        curvature = max((n - 1) * (n - 2), 1)
        lo = max(2e-3 / n, step * math.sqrt(curvature / 1.8e-6))
        hi = (1.0 - 2e-3) / n
        x = rng.uniform(lo, hi)
        stationary = (n + 1 - math.sqrt(n * n + 2 * n - 3)) / 2
        if abs(x - stationary) < 1e-3 / n:
            continue
        out.append((n, x))
    return out


def conditioned_configuration(rng: np.random.Generator, n: int,
                              min_weight: float = 1e-3,
                              min_det: float = 1e-3):
    """Random (vertices, weights) passing the same conditioning the
    verification suites use, for oracle-equivalence spot checks."""
    while True:
        verts = rng.uniform(-1.0, 1.0, size=(n + 1, n))
        raw = rng.standard_exponential(n + 1)
        w = raw / raw.sum()
        if w.min() < min_weight:
            continue
        diff = verts[:, None, :] - verts[None, :, :]
        scale = math.sqrt(float((diff * diff).sum(-1).max()))
        if abs(np.linalg.det(verts[:-1] - verts[-1])) > min_det * scale**n:
            return verts, w
