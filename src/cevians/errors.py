"""Exception types shared across the package, and the one rule for each
input's accepted range: a rule returns the value it checked, or raises the
type and message every entry point, CLI flags included, gives for it."""

import math
import operator


class CevianError(Exception):
    """Base class for all package-specific errors."""


class DegenerateSimplexError(CevianError):
    """Simplex failed the conditioning guard on its edge condition number."""


class DimensionMismatchError(CevianError):
    """Inputs disagree on dimension or shape."""


class NotInteriorError(CevianError):
    """Point is not strictly inside the simplex."""


class UnsupportedDimensionError(CevianError):
    """Dimension outside the supported range."""


class OutOfDomainError(CevianError):
    """Scalar argument lies outside the open domain of a formula."""


class ConvergenceError(CevianError):
    """Iteration cap reached before the requested tolerance."""


def dimension(n, least: int = 2):
    """n if n >= least: 2 for a simplex, 1 for the metallic means."""
    if n < least:
        raise UnsupportedDimensionError(f"dimension n must be >= {least}, got {n}")
    return n


def positive_count(name: str, value):
    """A count such as trials, restarts or depth, at least 1."""
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return value


def tolerance(tol):
    """A tolerance in (0, inf); an infinite one would accept anything."""
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be positive and finite, got {tol}")
    return tol


def seed(value) -> int:
    """An integer seed in [0, 2**64), the range of Philox's two key words."""
    value = operator.index(value)
    if not 0 <= value < 2**64:
        raise ValueError(f"seed must be an unsigned 64-bit integer, got {value}")
    return value


def corner(k, n: int):
    """A corner index of an n-simplex, 0..n."""
    if not 0 <= k <= n:
        raise IndexError(f"corner index {k} out of range 0..{n}")
    return k
