"""One rule per input range: every library function and CLI flag that takes
a dimension, count, tolerance, seed or corner index refuses the same values
with the same exception type and message, those of the rule in
``cevians.errors``; the CLI exits 2 with ``argument --flag: <message>``."""
import numpy as np
import pytest

from cevians import errors
from cevians.cli import build_parser, main
from cevians.constants import (
    audit_bound,
    constants_row,
    metallic,
    metallic_cf,
    metallic_hyperbolic,
    theorem1_bound,
    theorem1_bound_log,
    theorem2_value,
    theorem2_value_log,
    theta,
    theta_cf,
    theta_hyperbolic,
)
from cevians.geometry import (
    BarycentricPoint,
    CartesianSimplex,
    build_configuration,
    corner_simplex_vertices,
)
from cevians.harness import TrialPlan
from cevians.optimize import f, maximize_f_1d, maximize_F_simplex
from cevians.ratios import corner_ratio


def _simplex(n):
    """(n+1, n) vertices: the unit vectors and the origin."""
    return np.vstack([np.eye(n), np.zeros(n)])


SIMPLEX_DIMENSION = {
    "theta": theta,
    "theta_cf": lambda n: theta_cf(n, 10),
    "theta_hyperbolic": theta_hyperbolic,
    "theorem1_bound": theorem1_bound,
    "theorem1_bound_log": theorem1_bound_log,
    "theorem2_value": theorem2_value,
    "theorem2_value_log": theorem2_value_log,
    "audit_bound": audit_bound,
    "constants_row": constants_row,
    "f": lambda n: f(0.1, n),
    "maximize_f_1d": maximize_f_1d,
    "maximize_F_simplex": lambda n: maximize_F_simplex(n, restarts=1),
    "TrialPlan": lambda n: TrialPlan("theorem1", n, trials=1, seed=0),
}
# n is a shape here, so no negative n can be passed
SHAPE_DIMENSION = {
    "BarycentricPoint": lambda n: BarycentricPoint([1.0] * (n + 1)),
    "CartesianSimplex": lambda n: CartesianSimplex(_simplex(n)),
}
METALLIC_DIMENSION = {
    "metallic": metallic,
    "metallic_cf": lambda n: metallic_cf(n, 5),
    "metallic_hyperbolic": metallic_hyperbolic,
}
DIMENSION_FLAGS = [
    (["ratio", "--lambda", "1,1,1"], "--n"),
    (["constants", "--n-max", "3"], "--n-min"),
    (["constants"], "--n-max"),
    (["verify", "--suite", "eq2"], "--n"),
    (["optimize"], "--n"),
    (["audit-bounds"], "--n-max"),
]
# count name -> (library sites, CLI flags)
COUNTS = {
    "depth": (
        {
            "theta_cf": lambda c: theta_cf(2, c),
            "metallic_cf": lambda c: metallic_cf(1, c),
            "constants_row": lambda c: constants_row(2, c),
        },
        [(["constants", "--n-max", "3"], "--depth")],
    ),
    "restarts": (
        {"maximize_F_simplex": lambda c: maximize_F_simplex(2, restarts=c)},
        [(["optimize", "--n", "2"], "--restarts")],
    ),
    "trials": (
        {"TrialPlan": lambda c: TrialPlan("theorem1", 2, trials=c, seed=0)},
        [(["verify", "--suite", "eq2", "--n", "2"], "--trials")],
    ),
}
TOLERANCE = {
    "maximize_f_1d": lambda t: maximize_f_1d(2, tol=t),
    "maximize_F_simplex": lambda t: maximize_F_simplex(2, restarts=1, tol=t),
    "TrialPlan": lambda t: TrialPlan("eq2", 2, trials=1, seed=0, tol=t),
}
TOLERANCE_FLAGS = [
    (["verify", "--suite", "eq2", "--n", "2"], "--tol"),
    (["optimize", "--n", "2"], "--tol"),
]
SEED = {
    "maximize_F_simplex": lambda s: maximize_F_simplex(2, restarts=1, seed=s),
    "TrialPlan": lambda s: TrialPlan("theorem1", 2, trials=1, seed=s),
}
SEED_FLAGS = [
    (["verify", "--suite", "eq2", "--n", "2"], "--seed"),
    (["optimize", "--n", "2"], "--seed"),
]


def _corner_sites(n):
    point = BarycentricPoint([1.0] * (n + 1))
    config = build_configuration(CartesianSimplex(_simplex(n)), point)
    return {
        "corner_ratio": lambda k: corner_ratio(point, k),
        "corner_simplex_vertices": lambda k: corner_simplex_vertices(config, k),
    }


def _refusal(rule, *args):
    """The exception type and message with which ``rule(*args)`` refuses."""
    with pytest.raises(Exception) as exc:
        rule(*args)
    return type(exc.value), str(exc.value)


def _assert_sites_refuse(sites, value, refusal):
    for name, site in sites.items():
        with pytest.raises(refusal[0]) as exc:
            site(value)
        assert (type(exc.value), str(exc.value)) == refusal, name


def _assert_flags_refuse(capsys, flags, text, refusal):
    for command, flag in flags:
        with pytest.raises(SystemExit) as exc:
            main([*command, flag, text])
        assert exc.value.code == 2, (command, flag)
        err = capsys.readouterr().err
        assert err.endswith(f": error: argument {flag}: {refusal[1]}\n"), err


@pytest.mark.parametrize("n", [1, 0, -3])
def test_dimension(capsys, n):
    refusal = _refusal(errors.dimension, n)
    assert refusal[0] is errors.UnsupportedDimensionError
    _assert_sites_refuse(SIMPLEX_DIMENSION, n, refusal)
    if n >= 0:
        _assert_sites_refuse(SHAPE_DIMENSION, n, refusal)
    if n < 1:
        _assert_sites_refuse(METALLIC_DIMENSION, n, _refusal(errors.dimension, n, 1))
    _assert_flags_refuse(capsys, DIMENSION_FLAGS, str(n), refusal)


@pytest.mark.parametrize("count", [0, -1])
@pytest.mark.parametrize("name", sorted(COUNTS))
def test_positive_count(capsys, name, count):
    sites, flags = COUNTS[name]
    refusal = _refusal(errors.positive_count, name, count)
    assert refusal[0] is ValueError
    _assert_sites_refuse(sites, count, refusal)
    _assert_flags_refuse(capsys, flags, str(count), refusal)


@pytest.mark.parametrize("text", ["0", "-1", "inf", "nan"])
def test_tolerance(capsys, text):
    # the library gets the float the CLI parses, so the messages can agree
    refusal = _refusal(errors.tolerance, float(text))
    assert refusal[0] is ValueError
    _assert_sites_refuse(TOLERANCE, float(text), refusal)
    _assert_flags_refuse(capsys, TOLERANCE_FLAGS, text, refusal)


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_seed(capsys, seed):
    refusal = _refusal(errors.seed, seed)
    assert refusal[0] is ValueError
    _assert_sites_refuse(SEED, seed, refusal)
    _assert_flags_refuse(capsys, SEED_FLAGS, str(seed), refusal)


@pytest.mark.parametrize("n", [2, 3])
def test_corner(n):
    for k in (-1, n + 1):
        refusal = _refusal(errors.corner, k, n)
        assert refusal[0] is IndexError
        _assert_sites_refuse(_corner_sites(n), k, refusal)


def _parsed_value(argv, dest):
    return getattr(build_parser().parse_args(argv), dest)


def test_boundary_values_are_accepted():
    for site in [*SIMPLEX_DIMENSION.values(), *SHAPE_DIMENSION.values()]:
        site(2)
    for site in METALLIC_DIMENSION.values():
        site(1)
    for command, flag in DIMENSION_FLAGS:
        assert _parsed_value([*command, flag, "2"], flag.lstrip("-").replace("-", "_")) == 2
    for name, (sites, flags) in COUNTS.items():
        for site in sites.values():
            site(1)
        for command, flag in flags:
            assert _parsed_value([*command, flag, "1"], name) == 1
    top = 2**64 - 1
    for site in SEED.values():
        site(top)
    for command, flag in SEED_FLAGS:
        assert _parsed_value([*command, flag, str(top)], "seed") == top
    # the smallest subnormal: the optimizers take it too, but cannot reach it
    assert TrialPlan("eq2", 2, trials=1, seed=0, tol=5e-324).tol == 5e-324
    for command, flag in TOLERANCE_FLAGS:
        assert _parsed_value([*command, flag, "5e-324"], "tol") == 5e-324
    for n in (2, 3):
        for site in _corner_sites(n).values():
            site(0)
            site(n)
