"""Cevian simplices: volume-ratio formulas, sharp bounds, and verification.

For an interior point M of an n-simplex, the cevian through vertex A_i hits
the opposite facet at foot N_i.  This package computes the closed-form
volume ratios of the cevian simplex N_0...N_n and of its corner
sub-simplices, the sharp bounds n^-n and f(theta_n) those ratios satisfy,
and the extremal constant theta_n in closed, continued-fraction, and
hyperbolic form; every closed form is cross-checked against independent
determinant oracles and derivative-free optimizers by seeded, reproducible
verification suites.

The package namespace is lazy (PEP 562): a name imports its submodule on
first use, so ``import cevians`` loads neither numpy nor any submodule, and
the scalar constants and bounds of ``cevians.constants`` never load numpy.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Every public name, and the submodule that defines it; a submodule names
# itself.
_HOME = {
    name: module
    for module, names in {
        "constants": (
            "BoundAudit", "ConstantsRow", "audit_bound", "constants_row",
            "metallic", "metallic_cf", "metallic_hyperbolic",
            "theorem1_bound", "theorem1_bound_log",
            "theorem2_value", "theorem2_value_log",
            "theta", "theta_cf", "theta_hyperbolic",
        ),
        "errors": (
            "CevianError", "ConvergenceError", "DegenerateSimplexError",
            "DimensionMismatchError", "NotInteriorError", "OutOfDomainError",
            "UnsupportedDimensionError",
        ),
        "geometry": (
            "BarycentricPoint", "CartesianSimplex", "CevianConfiguration",
            "MoebiusAreas", "build_configuration", "corner_simplex_vertices",
            "moebius_areas", "simplex_volume", "to_barycentric",
            "to_cartesian", "volume",
        ),
        "harness": (
            "DEFAULT_TOLERANCES", "SUITES", "TrialPlan",
            "VerificationReport", "Violation", "run_suite",
        ),
        "optimize": (
            "F", "OptimizerResult", "f", "f_prime",
            "maximize_F_simplex", "maximize_f_1d",
        ),
        "ratios": (
            "RatioBreakdown", "cevian_ratio", "corner_ratio",
            "moebius_residual", "ratio_breakdown",
        ),
    }.items()
    for name in (module, *names)
}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = _import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
