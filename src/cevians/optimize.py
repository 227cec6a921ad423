"""Maximization of the corner-volume objective, 1-D and over the simplex.

The objective F(w) = w_n * prod_{i<n} w_i / (1 - w_i) (the last corner
ratio) attains its interior maximum at w_0 = ... = w_{n-1} = theta_n,
w_n = 1 - n*theta_n.  Along the symmetric slice w = (x, ..., x, 1-nx) it
reduces to the scalar function

    f(x) = (x / (1-x))^n * (1 - nx),   0 < x < 1/n.

Both maximizers here are numerical and independent of the closed form for
theta_n, so agreement with constants.theta is a genuine cross-check.  Both
search on the log of their objective and report scale-free residuals:

* maximize_f_1d: bisection on the sign of d log f/dx over the whole
  domain, to a relative width.
* maximize_F_simplex: a seeded multi-start compass search (Kolda, Lewis
  and Torczon, SIAM Review 45(3), 2003) in free coordinates u with
  w = softmax([u, 0]); derivative-free on purpose, so it doubles as an
  independence check on the closed-form derivative.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, OutOfDomainError
from .errors import dimension, positive_count, tolerance
from .geometry import BarycentricPoint
from .harness import _TrialStream
from .ratios import _as_point, corner_ratio, corner_ratios

# Iteration cap per optimizer start; a compass-search iteration is one poll.
MAX_ITERATIONS = 10_000
# A converged result must have first-order residual at most this.
GRADIENT_TOL = 1e-6


def f(x: float, n: int) -> float:
    """Reduced objective (x/(1-x))^n * (1-nx) on the open interval (0, 1/n)."""
    dimension(n)
    if not 0.0 < x < 1.0 / n:
        raise OutOfDomainError(f"x = {x} outside (0, 1/{n})")
    return (x / (1.0 - x)) ** n * (1.0 - n * x)


def _dlog_f(x: float, n: int) -> float:
    """d log f/dx = n / (x (1-x)) - n / (1-nx), finite where f underflows."""
    return n / (x * (1.0 - x)) - n / (1.0 - n * x)


def f_prime(x: float, n: int) -> float:
    """Derivative of f: f(x) * d log f/dx, with f's domain checks.

    Positive left of theta_n, negative right of it; the sign is that of
    d log f/dx, the signal maximize_f_1d bisects on.  Where f underflows
    to 0 near x = 0, d log f/dx can overflow to inf; the derivative there,
    about n x^(n-1), rounds to 0.
    """
    value = f(x, n)
    return value * _dlog_f(x, n) if value else 0.0


def F(m) -> float:
    """Optimization objective: the corner ratio at the last index.

    Identical to ratios.corner_ratio(m, n); re-exported here as the thing
    being maximized.
    """
    point = _as_point(m)
    return corner_ratio(point, point.n)


@dataclass(frozen=True)
class OptimizerResult:
    """Outcome of one maximization run.

    ``argmax`` is a scalar x for the 1-D problem and a BarycentricPoint for
    the simplex problem.  ``value`` is the objective re-evaluated at argmax.
    ``converged`` requires both the optimizer's own stopping criterion and a
    scale-free first-order residual of at most GRADIENT_TOL: the relative
    Newton step |d log f/dx| / (x |d^2 log f/dx^2|) for the 1-D problem, the
    largest central difference of log F in the free coordinates for the
    simplex problem.  ``restart_log`` records (restart index, value,
    converged, iterations, argmax tuple) per start so distinct converged
    points stay observable.
    """

    argmax: object
    value: float
    iterations: int
    restarts_used: int
    converged: bool
    first_order_residual: float
    restart_log: tuple = field(default=(), repr=False)


def maximize_f_1d(n: int, tol: float = 1e-10) -> OptimizerResult:
    """Locate the scalar maximizer of f on (0, 1/n) to within relative tol.

    Bisection on the sign of d log f/dx (an exact sign signal: it crosses
    zero only at the maximum, and stays finite where f underflows) from the
    bracket (0, 1/n), whose open ends are never evaluated, to a width of
    min(tol, 1e-12) times its upper end, so theta_n ~ 1/n - 1/n^2 stays
    inside at any n.  The residual is the Newton step relative to x,
    |d log f/dx| / (x |d^2 log f/dx^2|), so it does not grow with the
    curvature, which scales like n^3 at the maximizer.
    Raises ConvergenceError if the iteration cap lands first, which only
    happens for tolerances below what float64 can represent.
    """
    dimension(n)
    tolerance(tol)
    lo, hi = 0.0, 1.0 / n
    iterations = 0
    # d log f/dx > 0 left of the maximizer, < 0 right of it.
    target = min(tol, 1e-12)
    while hi - lo > target * hi and iterations < MAX_ITERATIONS:
        iterations += 1
        mid = 0.5 * (lo + hi)
        if _dlog_f(mid, n) > 0.0:
            lo = mid
        else:
            hi = mid
    if hi - lo > tol * hi:
        raise ConvergenceError(
            f"relative bracket width {(hi - lo) / hi:.3e} above tol {tol:.3e} "
            f"after {iterations} iterations"
        )

    x = 0.5 * (lo + hi)
    # -d^2 log f/dx^2, positive on the whole domain since x < 1 - x
    curvature = n / x**2 - n / (1.0 - x) ** 2 + n * n / (1.0 - n * x) ** 2
    residual = abs(_dlog_f(x, n)) / (x * curvature)
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
    """Map free vectors u (..., n) to simplex weights (..., n+1)."""
    z = np.concatenate((u, np.zeros(u.shape[:-1] + (1,))), -1)
    w = np.exp(z - z.max(-1, keepdims=True))
    return w / w.sum(-1, keepdims=True)


def _log_F(u: np.ndarray) -> np.ndarray:
    """log F at free vectors u (..., n); -inf where a leading weight reaches
    1 - 1e-12 (F -> 0 on the boundary, the maximizer is far inside) and
    wherever log F is not finite, so a NaN never wins an argmax."""
    w = _softmax_weights(u)
    with np.errstate(all="ignore"):
        value = np.log(corner_ratios(w, (u.shape[-1],))[..., 0])
    safe = (w[..., :-1] < 1.0 - 1e-12).all(-1) & np.isfinite(value)
    return np.where(safe, value, -np.inf)


def maximize_F_simplex(
    n: int,
    restarts: int = 16,
    tol: float = 1e-9,
    seed: int = 0,
) -> OptimizerResult:
    """Maximize F over the open standard simplex by multi-start compass search.

    Restart k starts at trial k of the harness's Philox4x32-10 stream.  Each
    iteration it polls u +- step e_i, moves to the first best poll if that
    strictly improves log F and halves step otherwise; it has converged once
    step < tol at a finite log F, within MAX_ITERATIONS polls.  Restarts poll
    in lockstep, but a row's decisions depend only on that row, so its path
    does not depend on how many run.  The best converged restart wins, ties
    toward the lowest index.  Raises ConvergenceError if none converges.
    """
    dimension(n)
    positive_count("restarts", restarts)
    tolerance(tol)
    starts = _TrialStream(seed).for_trial(np.arange(restarts))
    u = starts.uniform(-1.0, 1.0, (restarts, n))
    value = _log_F(u)
    step = np.ones(restarts)
    polls = np.zeros(restarts, dtype=int)
    directions = np.concatenate((np.eye(n), -np.eye(n)))
    while True:
        active = np.flatnonzero((step >= tol) & (polls < MAX_ITERATIONS))
        if not active.size:
            break
        points = u[active, None, :] + step[active, None, None] * directions
        scores = _log_F(points)
        best = scores.argmax(-1)
        moved = scores[np.arange(active.size), best] > value[active]
        rows = active[moved]
        u[rows] = points[moved, best[moved]]
        value[rows] = scores[moved, best[moved]]
        step[active[~moved]] *= 0.5
        polls[active] += 1

    converged = (step < tol) & np.isfinite(value)
    if not converged.any():
        raise ConvergenceError(f"no restart converged out of {restarts}")
    k = int(np.where(converged, value, -np.inf).argmax())

    # Scale-free residual: the largest central difference of log F in u.
    h = 1e-6
    sides = _log_F(u[k] + h * directions)
    residual = float(np.abs(sides[:n] - sides[n:]).max() / (2.0 * h))

    weights = _softmax_weights(u)
    argmax = BarycentricPoint(weights[k])
    return OptimizerResult(
        argmax=argmax,
        value=F(argmax),
        iterations=int(polls.sum()),
        restarts_used=restarts,
        converged=residual <= GRADIENT_TOL,
        first_order_residual=residual,
        restart_log=tuple(
            (i, float(np.exp(value[i])), bool(converged[i]), int(polls[i]),
             tuple(weights[i].tolist()))
            for i in range(restarts)
        ),
    )
