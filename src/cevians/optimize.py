"""Maximization of the corner-volume objective, 1-D and over the simplex.

The objective F(w) = w_n * prod_{i<n} w_i / (1 - w_i) (the last corner
ratio) attains its interior maximum at w_0 = ... = w_{n-1} = theta_n,
w_n = 1 - n*theta_n.  Along the symmetric slice w = (x, ..., x, 1-nx) it
reduces to the scalar function

    f(x) = (x / (1-x))^n * (1 - nx),   0 < x < 1/n.

Both maximizers here are numerical and independent of the closed form for
theta_n, so agreement with constants.theta is a genuine cross-check:

* maximize_f_1d brackets the scalar maximum by golden-section search and
  refines it by bisection on the sign of f'.
* maximize_F_simplex removes the simplex constraint by an exponential
  normalization (softmax with the last coordinate pinned to 0) and runs a
  seeded multi-start Nelder-Mead direct search; derivative-free on purpose,
  so it doubles as an independence check on the closed-form derivative.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, OutOfDomainError, UnsupportedDimensionError
from .geometry import BarycentricPoint
from .ratios import corner_ratio

# Shared iteration cap per optimizer start.
MAX_ITERATIONS = 10_000
# Margin from the open-interval endpoints of the 1-D domain.
DOMAIN_MARGIN = 1e-12
# A converged result must have first-order residual at most this.
GRADIENT_TOL = 1e-6

_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def f(x: float, n: int) -> float:
    """Reduced objective (x/(1-x))^n * (1-nx) on the open interval (0, 1/n)."""
    if n < 2:
        raise UnsupportedDimensionError(f"need n >= 2, got {n}")
    if not 0.0 < x < 1.0 / n:
        raise OutOfDomainError(f"x = {x} outside (0, 1/{n})")
    return (x / (1.0 - x)) ** n * (1.0 - n * x)


def f_prime(x: float, n: int) -> float:
    """Derivative of f: (x/(1-x))^n * n (x^2 - (n+1)x + 1) / (x (1-x)).

    Positive left of theta_n, negative right of it; the sign is carried
    entirely by the quadratic factor.
    """
    if n < 2:
        raise UnsupportedDimensionError(f"need n >= 2, got {n}")
    if not 0.0 < x < 1.0 / n:
        raise OutOfDomainError(f"x = {x} outside (0, 1/{n})")
    quad = x * x - (n + 1.0) * x + 1.0
    return (x / (1.0 - x)) ** n * n * quad / (x * (1.0 - x))


def F(m) -> float:
    """Optimization objective: the corner ratio at the last index.

    Identical to ratios.corner_ratio(m, n); re-exported here as the thing
    being maximized.
    """
    w = m.weights if isinstance(m, BarycentricPoint) else np.asarray(m, dtype=float)
    return corner_ratio(w, w.shape[0] - 1)


@dataclass(frozen=True)
class OptimizerResult:
    """Outcome of one maximization run.

    ``argmax`` is a scalar x for the 1-D problem and a BarycentricPoint for
    the simplex problem.  ``value`` is the objective re-evaluated at argmax.
    ``converged`` requires both the optimizer's own stopping criterion and a
    first-order residual of at most GRADIENT_TOL.  ``restart_log`` records
    (restart index, value, converged, iterations, argmax tuple) per start so
    distinct converged points stay observable.
    """

    argmax: object
    value: float
    iterations: int
    restarts_used: int
    converged: bool
    first_order_residual: float
    restart_log: tuple = field(default=(), repr=False)


def maximize_f_1d(n: int, tol: float = 1e-10) -> OptimizerResult:
    """Locate the scalar maximizer of f on (0, 1/n) to within tol.

    Golden-section search first shrinks the bracket, then bisection on the
    sign of f' (an exact sign signal: f' crosses zero only at the maximum)
    polishes it to width min(tol, 1e-12).  Raises ConvergenceError if the
    iteration cap lands first, which only happens for tolerances below
    what float64 can represent.
    """
    if n < 2:
        raise UnsupportedDimensionError(f"need n >= 2, got {n}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    lo = DOMAIN_MARGIN
    hi = 1.0 / n - DOMAIN_MARGIN
    iterations = 0

    # Golden-section: maximize f, keep a shrinking 4-point bracket.
    c = hi - _INV_GOLDEN * (hi - lo)
    d = lo + _INV_GOLDEN * (hi - lo)
    fc, fd = f(c, n), f(d, n)
    while hi - lo > 1e-6 / n and iterations < MAX_ITERATIONS:
        iterations += 1
        if fc < fd:
            lo, c, fc = c, d, fd
            d = lo + _INV_GOLDEN * (hi - lo)
            fd = f(d, n)
        else:
            hi, d, fd = d, c, fc
            c = hi - _INV_GOLDEN * (hi - lo)
            fc = f(c, n)

    # Bisection on sign(f'): f' > 0 left of the maximizer, < 0 right of it.
    target = min(tol, 1e-12)
    while hi - lo > target and iterations < MAX_ITERATIONS:
        iterations += 1
        mid = 0.5 * (lo + hi)
        if f_prime(mid, n) > 0.0:
            lo = mid
        else:
            hi = mid
    if hi - lo > tol:
        raise ConvergenceError(
            f"bracket width {hi - lo:.3e} above tol {tol:.3e} "
            f"after {iterations} iterations"
        )

    x = 0.5 * (lo + hi)
    residual = abs(f_prime(x, n))
    return OptimizerResult(
        argmax=x,
        value=f(x, n),
        iterations=iterations,
        restarts_used=1,
        converged=residual <= GRADIENT_TOL,
        first_order_residual=residual,
        restart_log=((0, f(x, n), True, iterations, (x,)),),
    )


def _softmax_weights(u: np.ndarray) -> np.ndarray:
    """Map the free vector u in R^n to simplex weights (last coord pinned 0)."""
    z = np.append(u, 0.0)
    z -= z.max()
    w = np.exp(z)
    return w / w.sum()


def _objective_from_free(u: np.ndarray) -> float:
    """F in the unconstrained parameterization; 0 outside the safe region.

    Clipping to 0 when any of the first n weights reaches 1 - 1e-12 is
    consistent: F -> 0 on the boundary, and the maximizer's weights stay
    near theta_n, far inside.
    """
    w = _softmax_weights(u)
    if w[:-1].max() >= 1.0 - 1e-12:
        return 0.0
    return F(w)


def _restart_rng(seed: int, restart: int) -> np.random.Generator:
    """Independent substream per restart, keyed by (seed, restart index)."""
    return np.random.Generator(np.random.Philox(key=[seed, restart]))


def maximize_F_simplex(
    n: int,
    restarts: int = 16,
    tol: float = 1e-9,
    seed: int = 0,
) -> OptimizerResult:
    """Maximize F over the open standard simplex by multi-start Nelder-Mead.

    Each restart draws its starting point from its own (seed, restart)
    substream, so results are identical no matter how restarts are
    scheduled.  The best restart wins; ties break toward the lowest restart
    index.  Raises ConvergenceError if no restart converges.
    """
    if n < 2:
        raise UnsupportedDimensionError(f"need n >= 2, got {n}")
    if restarts < 1:
        raise ValueError(f"restarts must be >= 1, got {restarts}")
    if not tol > 0.0:
        raise ValueError(f"tol must be positive, got {tol}")
    # Imported here, not at module level: scipy.optimize is most of the
    # package's import time, and only this function needs it.
    from scipy.optimize import minimize

    best_u = None
    best_value = -math.inf
    best_converged = False
    total_iterations = 0
    log = []
    for k in range(restarts):
        u0 = _restart_rng(seed, k).normal(0.0, 1.0, size=n)
        res = minimize(
            lambda u: -_objective_from_free(u),
            u0,
            method="Nelder-Mead",
            options=dict(
                xatol=tol,
                fatol=np.inf,
                maxiter=MAX_ITERATIONS,
                maxfev=8 * MAX_ITERATIONS,
            ),
        )
        value = -float(res.fun)
        total_iterations += int(res.nit)
        log.append((k, value, bool(res.success), int(res.nit),
                    tuple(_softmax_weights(res.x))))
        if res.success and value > best_value:
            best_u, best_value, best_converged = res.x, value, True

    if not best_converged:
        raise ConvergenceError(f"no restart converged out of {restarts}")

    # Central-difference gradient of F in the free parameterization.
    h = 1e-6
    residual = 0.0
    for i in range(n):
        e = np.zeros(n)
        e[i] = h
        residual = max(
            residual,
            abs(_objective_from_free(best_u + e) - _objective_from_free(best_u - e))
            / (2.0 * h),
        )

    argmax = BarycentricPoint(_softmax_weights(best_u))
    return OptimizerResult(
        argmax=argmax,
        value=F(argmax),
        iterations=total_iterations,
        restarts_used=restarts,
        converged=residual <= GRADIENT_TOL,
        first_order_residual=residual,
        restart_log=tuple(log),
    )
