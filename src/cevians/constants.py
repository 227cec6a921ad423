"""The paper's scalar constants and sharp bounds, in closed form.

theta_n is the smaller root of x^2 - (n+1)x + 1 = 0; it is the common value
of the first n barycentric weights at the maximizer of the corner-volume
objective.  The metallic mean phi_n is the positive root of x^2 - nx - 1 = 0
(phi_1 is the golden ratio).  Both satisfy continued-fraction and hyperbolic
identities:

    theta_n = exp(-acosh((n+1)/2)) = 1 / ((n+1) - 1/((n+1) - ...))
    phi_n   = exp(asinh(n/2))      = n + 1/(n + 1/(n + ...))

The sharp bounds are scalars of n alone: the cevian-simplex bound n^-n
(``theorem1_bound``), the corner bound f(theta_n) with
f(x) = (x/(1-x))^n (1-nx) (``theorem2_value``), both also as logarithms
past float64 underflow, and the audit of the coefficient the paper displays
for f(theta_n) (``audit_bound``).  ``constants_row`` gathers one n of all of
them.  The module needs only ``math``, so the ``constants`` and
``audit-bounds`` commands start without numpy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import dimension, positive_count


def theta(n: int) -> float:
    """Smaller root of x^2 - (n+1)x + 1, strictly inside (0, 1/n).

    Evaluated in the rationalized form 2 / (n+1 + sqrt((n+3)(n-1))) so no
    cancellation occurs for large n (the naive difference form loses all
    precision near n ~ 1e8).
    """
    # At n=1 the formula gives 1, outside (0, 1/n); smaller n is meaningless.
    dimension(n)
    return 2.0 / (n + 1.0 + math.sqrt((n + 3.0) * (n - 1.0)))


def theta_cf(n: int, depth: int) -> float:
    """Continued-fraction convergent of theta_n.

    Truncates the tower 1/((n+1) - 1/((n+1) - ...)) after ``depth`` division
    levels, evaluated innermost-first: x <- 1/((n+1) - x) starting from
    x = 0, applied ``depth`` times.  depth=1 gives 1/(n+1).
    """
    dimension(n)
    x = 0.0
    for _ in range(positive_count("depth", depth)):
        x = 1.0 / (n + 1.0 - x)
    return x


def theta_hyperbolic(n: int) -> float:
    """theta_n via the hyperbolic identity exp(-acosh((n+1)/2))."""
    return math.exp(-math.acosh((dimension(n) + 1.0) / 2.0))


def metallic(n: int) -> float:
    """Metallic mean phi_n = (n + sqrt(n^2 + 4)) / 2, defined for n >= 1."""
    dimension(n, least=1)
    return (n + math.sqrt(n * n + 4.0)) / 2.0


def metallic_cf(n: int, depth: int) -> float:
    """Continued-fraction convergent of phi_n.

    Truncates n + 1/(n + 1/(n + ...)) with innermost term n: x <- n + 1/x
    starting from x = n, applied ``depth`` times.  depth=1 gives n + 1/n.
    """
    x = float(dimension(n, least=1))
    for _ in range(positive_count("depth", depth)):
        x = n + 1.0 / x
    return x


def metallic_hyperbolic(n: int) -> float:
    """phi_n via the hyperbolic identity exp(asinh(n/2))."""
    return math.exp(math.asinh(dimension(n, least=1) / 2.0))


def theorem1_bound(n: int) -> float:
    """The sharp cevian-simplex volume bound n^-n.

    Underflows to 0.0 for n >~ 143; use theorem1_bound_log there.
    """
    return float(dimension(n)) ** (-n)


def theorem1_bound_log(n: int) -> float:
    """log(n^-n) = -n log n, usable far beyond double-precision underflow."""
    return -dimension(n) * math.log(n)


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


@dataclass(frozen=True)
class ConstantsRow:
    """Per-n summary: theta_n in all three forms, the extremal value, the
    displayed bound coefficient, and the metallic mean in all three forms.

    Every field is a scalar closed form of n, so a table of rows needs
    nothing beyond ``math``.
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
