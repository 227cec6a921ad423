"""Command-line front end: compute ratios, tabulate constants, run the
verification suites, run the optimizers, and audit the displayed bound.

Exit codes: 0 success / suite passed, 1 suite violations, 2 usage error,
3 domain error (non-interior input), 4 optimizer convergence failure.

All output is deterministic given the flags (seeds included).  JSON output
has sorted keys; JSON and CSV print numbers to 15 significant digits; the
text format shows the same numbers with labels.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys

from . import __version__
from .constants import theta
from .errors import ConvergenceError, NotInteriorError
from .geometry import BarycentricPoint
from .harness import DEFAULT_TOLERANCES, SUITES, TrialPlan, run_suite
from .optimize import maximize_f_1d, maximize_F_simplex
from .ratios import audit_bound, constants_row, ratio_breakdown, theorem2_value

EXIT_PASS = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_CONVERGENCE = 4

_CONSTANTS_COLUMNS = [
    "n",
    "theta",
    "theta_cf",
    "theta_hyp",
    "f_theta",
    "log_f_theta",
    "paper_eq3_value",
    "metallic",
    "metallic_cf",
    "metallic_hyp",
]

_AUDIT_COLUMNS = [
    "n",
    "direct_f_theta",
    "paper_eq3_value",
    "ratio",
    "direct_times_power",
    "flagged",
]

_VERIFY_COLUMNS = [
    "suite",
    "n",
    "trials",
    "seed",
    "tol",
    "passed",
    "worst_margin",
    "max_ratio_observed",
    "bound",
    "violations",
]


def _fmt(value) -> str:
    """One number, 15 significant digits; non-floats pass through."""
    if isinstance(value, bool) or not isinstance(value, float):
        return str(value)
    return f"{value:.15g}"


def _round15(obj):
    """Round every float in a JSON-shaped structure to 15 significant digits;
    non-finite floats become the strings "inf", "-inf" and "nan", which
    strict JSON can carry."""
    if isinstance(obj, bool):
        return obj
    if isinstance(obj, float):
        return float(f"{obj:.15g}") if math.isfinite(obj) else str(obj)
    if isinstance(obj, dict):
        return {key: _round15(val) for key, val in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round15(val) for val in obj]
    return obj


def _emit_json(payload, out) -> None:
    json.dump(_round15(payload), out, sort_keys=True, indent=2, allow_nan=False)
    out.write("\n")


def _emit_csv(rows: list[dict], columns: list[str], out) -> None:
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[col]) for col in columns])


def _emit_table(rows: list[dict], columns: list[str], out) -> None:
    cells = [[_fmt(row[col]) for col in columns] for row in rows]
    widths = [
        max(len(col), *(len(line[i]) for line in cells)) if cells else len(col)
        for i, col in enumerate(columns)
    ]
    out.write("  ".join(col.ljust(w) for col, w in zip(columns, widths)).rstrip() + "\n")
    for line in cells:
        out.write("  ".join(val.ljust(w) for val, w in zip(line, widths)).rstrip() + "\n")


def _parse_weights(text: str, n: int, parser: argparse.ArgumentParser) -> list[float]:
    try:
        weights = [float(part) for part in text.split(",")]
    except ValueError:
        parser.error(f"--lambda must be a comma-separated list of numbers, got {text!r}")
    if len(weights) != n + 1:
        parser.error(f"--lambda needs exactly n+1 = {n + 1} entries, got {len(weights)}")
    return weights


def _cmd_ratio(args, parser) -> int:
    weights = _parse_weights(args.weights, args.n, parser)
    total = sum(weights)
    if abs(total - 1.0) > 1e-9:
        print(
            f"warning: weights sum to {total:.15g}; renormalizing",
            file=sys.stderr,
        )
    try:
        point = BarycentricPoint(weights)
    except NotInteriorError as exc:
        print(f"error: not an interior point: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    breakdown = ratio_breakdown(point)
    corners = [float(c) for c in breakdown.corner_ratios]
    payload = {
        "n": breakdown.n,
        "weights": [float(w) for w in point.weights],
        "corner_ratios": corners,
        "cevian_ratio": breakdown.cevian_ratio,
        "theorem1_bound": breakdown.theorem1_bound,
        "theorem2_value": breakdown.theorem2_value,
        "slack_theorem1": breakdown.theorem1_bound - breakdown.cevian_ratio,
        "slack_theorem2": breakdown.theorem2_value - max(corners),
    }
    if args.format == "json":
        _emit_json(payload, sys.stdout)
    elif args.format == "csv":
        columns = [
            "n",
            "cevian_ratio",
            "theorem1_bound",
            "theorem2_value",
            "slack_theorem1",
            "slack_theorem2",
        ] + [f"corner_ratio_{i}" for i in range(breakdown.n + 1)]
        row = {key: payload[key] for key in columns[:6]}
        row.update({f"corner_ratio_{i}": c for i, c in enumerate(corners)})
        _emit_csv([row], columns, sys.stdout)
    else:
        for key in (
            "n",
            "weights",
            "corner_ratios",
            "cevian_ratio",
            "theorem1_bound",
            "slack_theorem1",
            "theorem2_value",
            "slack_theorem2",
        ):
            value = payload[key]
            if isinstance(value, list):
                value = "[" + ", ".join(_fmt(v) for v in value) + "]"
            else:
                value = _fmt(value)
            print(f"{key} = {value}")
    return EXIT_PASS


def _cmd_constants(args, parser) -> int:
    if args.n_min > args.n_max:
        parser.error(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    rows = [
        vars(constants_row(n, args.depth))
        for n in range(args.n_min, args.n_max + 1)
    ]
    if args.format == "json":
        _emit_json(rows, sys.stdout)
    elif args.format == "csv":
        _emit_csv(rows, _CONSTANTS_COLUMNS, sys.stdout)
    else:
        _emit_table(rows, _CONSTANTS_COLUMNS, sys.stdout)
    return EXIT_PASS


def _cmd_verify(args, parser) -> int:
    try:
        plan = TrialPlan(
            suite=args.suite,
            n=args.n,
            trials=args.trials,
            seed=args.seed,
            tol=args.tol,
        )
    except Exception as exc:
        parser.error(str(exc))
    report = run_suite(plan, batch_size=args.batch_size)
    payload = report.to_dict()
    if args.format == "json":
        _emit_json(payload, sys.stdout)
    elif args.format == "csv":
        row = dict(payload)
        row["violations"] = len(report.violations)
        row["bound"] = "" if row["bound"] is None else row["bound"]
        _emit_csv([row], _VERIFY_COLUMNS, sys.stdout)
    else:
        for key in _VERIFY_COLUMNS[:-1]:
            print(f"{key} = {_fmt(payload[key]) if payload[key] is not None else 'n/a'}")
        print(f"violations = {len(report.violations)}")
        for v in report.violations[:20]:
            print(
                f"  trial {v.trial_index}  margin {_fmt(v.margin)}  "
                f"digest {v.inputs_digest}"
            )
        print(f"elapsed_seconds = {report.elapsed:.3f}")
    return EXIT_PASS if report.passed else EXIT_VIOLATIONS


def _cmd_optimize(args, parser) -> int:
    try:
        one_dim = maximize_f_1d(args.n, tol=args.tol if args.tol else 1e-10)
        simplex = maximize_F_simplex(
            args.n,
            restarts=args.restarts,
            tol=args.tol if args.tol else 1e-9,
            seed=args.seed,
        )
    except ConvergenceError as exc:
        print(f"error: optimizer did not converge: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    t = theta(args.n)
    bound = theorem2_value(args.n)
    weights = [float(w) for w in simplex.argmax.weights]
    target = [t] * args.n + [1.0 - args.n * t]
    distinct = len(
        {
            tuple(round(w, 6) for w in entry[4])
            for entry in simplex.restart_log
            if entry[2]
        }
    )
    payload = {
        "n": args.n,
        "restarts": args.restarts,
        "seed": args.seed,
        "theta": t,
        "theorem2_value": bound,
        "argmax_x": one_dim.argmax,
        "value_1d": one_dim.value,
        "iterations_1d": one_dim.iterations,
        "deviation_1d": abs(one_dim.argmax - t),
        "converged_1d": one_dim.converged,
        "argmax_weights": weights,
        "value_simplex": simplex.value,
        "iterations_simplex": simplex.iterations,
        "max_coordinate_deviation": max(
            abs(w - want) for w, want in zip(weights, target)
        ),
        "value_gap": abs(simplex.value - bound),
        "converged_simplex": simplex.converged,
        "distinct_maxima": distinct,
    }
    if args.format == "json":
        _emit_json(payload, sys.stdout)
    elif args.format == "csv":
        columns = [c for c in payload if c != "argmax_weights"]
        _emit_csv([payload], columns, sys.stdout)
    else:
        for key, value in payload.items():
            if isinstance(value, list):
                value = "[" + ", ".join(_fmt(v) for v in value) + "]"
            else:
                value = _fmt(value)
            print(f"{key} = {value}")
    return EXIT_PASS


def _cmd_audit_bounds(args, parser) -> int:
    rows = []
    for n in range(2, args.n_max + 1):
        audit = audit_bound(n)
        rows.append(
            {
                "n": n,
                "direct_f_theta": audit.direct_value,
                "paper_eq3_value": audit.paper_value,
                "ratio": audit.ratio,
                "direct_times_power": audit.direct_times_power,
                "flagged": abs(audit.ratio - 1.0) > 1e-9,
            }
        )
    if args.format == "json":
        _emit_json(rows, sys.stdout)
    elif args.format == "csv":
        _emit_csv(rows, _AUDIT_COLUMNS, sys.stdout)
    else:
        _emit_table(rows, _AUDIT_COLUMNS, sys.stdout)
        flagged = [str(row["n"]) for row in rows if row["flagged"]]
        if flagged:
            print(
                "flagged rows (displayed coefficient != direct value): n = "
                + ", ".join(flagged)
            )
    return EXIT_PASS


def _seed_type(text: str) -> int:
    value = int(text)
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError("seed must be an unsigned 64-bit integer")
    return value


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be >= 1")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not value > 0.0:
        raise argparse.ArgumentTypeError("must be positive")
    return value


def _dimension(text: str) -> int:
    value = int(text)
    if value < 2:
        raise argparse.ArgumentTypeError("dimension n must be >= 2")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cevians",
        description="Cevian-simplex volume ratios, bounds, and verification suites.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument(
            "--format",
            choices=("text", "json", "csv"),
            default="text",
            help="output format (default text)",
        )

    p = sub.add_parser("ratio", help="closed-form ratios for one interior point")
    p.add_argument("--n", type=_dimension, required=True, help="simplex dimension")
    p.add_argument(
        "--lambda",
        dest="weights",
        required=True,
        help="comma-separated n+1 positive barycentric weights "
        "(renormalized, with a warning, if the sum is off by more than 1e-9)",
    )
    add_format(p)
    p.set_defaults(func=_cmd_ratio)

    p = sub.add_parser("constants", help="theta/metallic table over a range of n")
    p.add_argument("--n-min", type=_dimension, default=2)
    p.add_argument("--n-max", type=_dimension, required=True)
    p.add_argument("--depth", type=_positive_int, default=40,
                   help="continued-fraction truncation depth (default 40)")
    add_format(p)
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("verify", help="run one seeded verification suite")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--n", type=_dimension, required=True)
    p.add_argument("--trials", type=_positive_int, default=10000)
    p.add_argument("--seed", type=_seed_type, default=0)
    p.add_argument(
        "--tol",
        type=_positive_float,
        default=None,
        help="override the suite default tolerance "
        + str({s: DEFAULT_TOLERANCES[s] for s in SUITES}),
    )
    p.add_argument("--batch-size", type=_positive_int, default=4096,
                   help="trials per vectorized pass; affects speed only")
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("optimize", help="recover the extremal point numerically")
    p.add_argument("--n", type=_dimension, required=True)
    p.add_argument("--restarts", type=_positive_int, default=16)
    p.add_argument("--tol", type=_positive_float, default=None,
                   help="optimizer tolerance (default 1e-10 scalar, 1e-9 simplex)")
    p.add_argument("--seed", type=_seed_type, default=0)
    add_format(p)
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser(
        "audit-bounds",
        help="compare the displayed extremal coefficient with f(theta_n)",
    )
    p.add_argument("--n-max", type=_dimension, required=True)
    add_format(p)
    p.set_defaults(func=_cmd_audit_bounds)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args, parser)


if __name__ == "__main__":
    sys.exit(main())
