"""Exception types shared across the package."""


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
