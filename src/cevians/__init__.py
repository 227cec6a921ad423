"""Cevian simplices: volume-ratio formulas, sharp bounds, and verification.

For an interior point M of an n-simplex, the cevian through vertex A_i hits
the opposite facet at foot N_i.  This package computes the closed-form
volume ratios of the cevian simplex N_0...N_n and of its corner
sub-simplices, the sharp bounds n^-n and f(theta_n) those ratios satisfy,
and the extremal constant theta_n in closed, continued-fraction, and
hyperbolic form; every closed form is cross-checked against independent
determinant oracles and derivative-free optimizers by seeded, reproducible
verification suites.
"""

__version__ = "0.1.0"

from .constants import (
    metallic,
    metallic_cf,
    metallic_hyperbolic,
    theta,
    theta_cf,
    theta_hyperbolic,
)
from .errors import (
    CevianError,
    ConvergenceError,
    DegenerateSimplexError,
    DimensionMismatchError,
    NotInteriorError,
    OutOfDomainError,
    UnsupportedDimensionError,
)
from .geometry import (
    BarycentricPoint,
    CartesianSimplex,
    CevianConfiguration,
    MoebiusAreas,
    build_configuration,
    cevian_foot,
    corner_simplex_vertices,
    feet_simplex_vertices,
    moebius_areas,
    simplex_volume,
    to_barycentric,
    to_cartesian,
    volume,
)
from .harness import (
    DEFAULT_TOLERANCES,
    SUITES,
    TrialPlan,
    VerificationReport,
    Violation,
    run_suite,
)
from .optimize import (
    F,
    OptimizerResult,
    f,
    f_prime,
    maximize_F_simplex,
    maximize_f_1d,
)
from .ratios import (
    BoundAudit,
    ConstantsRow,
    RatioBreakdown,
    audit_bound,
    cevian_ratio,
    constants_row,
    corner_ratio,
    moebius_residual,
    ratio_breakdown,
    theorem1_bound,
    theorem1_bound_log,
    theorem2_value,
    theorem2_value_log,
)

__all__ = [name for name in dir() if not name.startswith("_")]
