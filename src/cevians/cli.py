"""Command-line front end: compute ratios, tabulate constants, run the
verification suites, run the optimizers, and audit the displayed bound.

Exit codes: 0 success / suite passed, 1 suite violations, 2 usage error,
3 domain error (non-interior input), 4 optimizer convergence failure,
141 stdout closed by the reader (128 + SIGPIPE, as a shell reports it).

All output is deterministic given the flags (seeds included) and goes
through one emitter, ``_emit``, with one contract: JSON is the full payload
with sorted keys; CSV has flat columns, with an empty cell for null; text
shows ``key = value`` lines for one record, or an aligned table for several
rows.  JSON and CSV print numbers to 15 significant digits, and text shows
the same numbers.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys

from . import __version__
from .errors import CevianError, dimension, positive_count, seed, tolerance

EXIT_PASS = 0
EXIT_VIOLATIONS = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3
EXIT_CONVERGENCE = 4
EXIT_BROKEN_PIPE = 141

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


def _cell(value, fmt: str) -> str:
    """One printed value: a list as [a, b], None as n/a in text and as an
    empty cell in CSV."""
    if value is None:
        return "" if fmt == "csv" else "n/a"
    if isinstance(value, list):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return _fmt(value)


def _emit(fmt: str, payload, rows: list[dict], columns: list[str], record=None, lines=()):
    """Print one result on stdout: ``payload`` as JSON, ``rows`` over
    ``columns`` as CSV, and as text ``record`` in ``key = value`` lines or,
    without a record, ``rows`` as an aligned table, then the text ``lines``."""
    out = sys.stdout
    if fmt == "json":
        json.dump(_round15(payload), out, sort_keys=True, indent=2, allow_nan=False)
        out.write("\n")
        return
    if fmt == "text" and record is not None:
        body = [f"{key} = {_cell(value, fmt)}" for key, value in record.items()]
    else:
        table = [columns] + [[_cell(row[col], fmt) for col in columns] for row in rows]
        if fmt == "csv":
            csv.writer(out, lineterminator="\n").writerows(table)
            return
        widths = [max(len(line[i]) for line in table) for i in range(len(columns))]
        body = [
            "  ".join(cell.ljust(w) for cell, w in zip(line, widths)).rstrip()
            for line in table
        ]
    out.write("".join(line + "\n" for line in [*body, *lines]))


def _parse_weights(text: str, n: int, error) -> list[float]:
    try:
        weights = [float(part) for part in text.split(",")]
    except ValueError:
        error(f"--lambda must be a comma-separated list of numbers, got {text!r}")
    if len(weights) != n + 1:
        error(f"--lambda needs exactly n+1 = {n + 1} entries, got {len(weights)}")
    return weights


def _cmd_ratio(args) -> int:
    from .errors import NotInteriorError
    from .geometry import BarycentricPoint
    from .ratios import ratio_breakdown

    weights = _parse_weights(args.weights, args.n, args.error)
    try:
        point = BarycentricPoint(weights)
    except NotInteriorError as exc:
        print(f"error: not an interior point: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    total = sum(weights)
    if abs(total - 1.0) > 1e-9:
        print(
            f"warning: weights sum to {total:.15g}; renormalizing",
            file=sys.stderr,
        )
    breakdown = ratio_breakdown(point)
    corners = [float(c) for c in breakdown.corner_ratios]
    payload = {
        "n": breakdown.n,
        "weights": [float(w) for w in point.weights],
        "corner_ratios": corners,
        "cevian_ratio": breakdown.cevian_ratio,
        "theorem1_bound": breakdown.theorem1_bound,
        "slack_theorem1": breakdown.theorem1_bound - breakdown.cevian_ratio,
        "theorem2_value": breakdown.theorem2_value,
        "slack_theorem2": breakdown.theorem2_value - max(corners),
    }
    corner_columns = {f"corner_ratio_{i}": c for i, c in enumerate(corners)}
    columns = [
        "n", "cevian_ratio", "theorem1_bound", "theorem2_value",
        "slack_theorem1", "slack_theorem2", *corner_columns,
    ]
    _emit(args.format, payload, [payload | corner_columns], columns, record=payload)
    return EXIT_PASS


def _cmd_constants(args) -> int:
    from .constants import constants_row

    if args.n_min > args.n_max:
        args.error(f"--n-min {args.n_min} exceeds --n-max {args.n_max}")
    rows = [
        vars(constants_row(n, args.depth))
        for n in range(args.n_min, args.n_max + 1)
    ]
    _emit(args.format, rows, rows, list(rows[0]))
    return EXIT_PASS


def _cmd_verify(args) -> int:
    from .harness import TrialPlan, run_suite

    try:
        plan = TrialPlan(
            suite=args.suite,
            n=args.n,
            trials=args.trials,
            seed=args.seed,
            tol=args.tol,
        )
    except Exception as exc:
        args.error(str(exc))
    report = run_suite(plan)
    payload = report.to_dict()
    row = payload | {"violations": len(report.violations)}
    lines = [
        f"  trial {v.trial_index}  margin {_fmt(v.margin)}  digest {v.inputs_digest}"
        for v in report.violations[:20]
    ]
    lines.append(f"elapsed_seconds = {report.elapsed:.3f}")
    _emit(args.format, payload, [row], list(row), record=row, lines=lines)
    return EXIT_PASS if report.passed else EXIT_VIOLATIONS


def _cmd_optimize(args) -> int:
    from .constants import theorem2_value, theta
    from .errors import ConvergenceError
    from .optimize import maximize_f_1d, maximize_F_simplex

    tol = {} if args.tol is None else {"tol": args.tol}
    try:
        one_dim = maximize_f_1d(args.n, **tol)
        simplex = maximize_F_simplex(args.n, restarts=args.restarts, seed=args.seed, **tol)
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
    columns = [c for c in payload if c != "argmax_weights"]
    _emit(args.format, payload, [payload], columns, record=payload)
    return EXIT_PASS


def _cmd_audit_bounds(args) -> int:
    from .constants import audit_bound

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
    flagged = ", ".join(str(row["n"]) for row in rows if row["flagged"])
    note = f"flagged rows (displayed coefficient != direct value): n = {flagged}"
    _emit(args.format, rows, rows, list(rows[0]), lines=[note] if flagged else [])
    return EXIT_PASS


def _suite(text: str) -> str:
    # a type, not choices=, so that building the parser imports no harness
    from .harness import SUITES

    if text not in SUITES:
        choices = ", ".join(map(repr, SUITES))
        raise argparse.ArgumentTypeError(
            f"invalid choice: {text!r} (choose from {choices})"
        )
    return text


def _parsed(parse, rule, *args):
    """An argparse type: ``parse`` the text, then check the value with the
    library's range rule, ``rule(*args, value)``, whose message becomes the
    usage error."""

    def checked(text: str):
        value = parse(text)
        try:
            return rule(*args, value)
        except (CevianError, ValueError) as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    checked.__name__ = parse.__name__  # argparse's "invalid int value: 'x'"
    return checked


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
    p.add_argument("--n", type=_parsed(int, dimension), required=True,
                   help="simplex dimension")
    p.add_argument(
        "--lambda",
        dest="weights",
        required=True,
        help="comma-separated n+1 positive barycentric weights "
        "(renormalized, with a warning, if the sum is off by more than 1e-9)",
    )
    add_format(p)
    p.set_defaults(func=_cmd_ratio, error=p.error)

    p = sub.add_parser("constants", help="theta/metallic table over a range of n")
    p.add_argument("--n-min", type=_parsed(int, dimension), default=2)
    p.add_argument("--n-max", type=_parsed(int, dimension), required=True)
    p.add_argument("--depth", type=_parsed(int, positive_count, "depth"), default=40,
                   help="continued-fraction truncation depth (default 40)")
    add_format(p)
    p.set_defaults(func=_cmd_constants, error=p.error)

    p = sub.add_parser("verify", help="run one seeded verification suite")
    p.add_argument("--suite", type=_suite, required=True,
                   help="the suite to run; an unknown name lists them all")
    p.add_argument("--n", type=_parsed(int, dimension), required=True)
    p.add_argument("--trials", type=_parsed(int, positive_count, "trials"), default=10000)
    p.add_argument("--seed", type=_parsed(int, seed), default=0)
    p.add_argument(
        "--tol",
        type=_parsed(float, tolerance),
        default=None,
        help="override the suite's default tolerance",
    )
    add_format(p)
    p.set_defaults(func=_cmd_verify, error=p.error)

    p = sub.add_parser("optimize", help="recover the extremal point numerically")
    p.add_argument("--n", type=_parsed(int, dimension), required=True)
    p.add_argument("--restarts", type=_parsed(int, positive_count, "restarts"), default=16)
    p.add_argument("--tol", type=_parsed(float, tolerance), default=None,
                   help="optimizer tolerance (default 1e-10 scalar, 1e-9 simplex)")
    p.add_argument("--seed", type=_parsed(int, seed), default=0)
    add_format(p)
    p.set_defaults(func=_cmd_optimize, error=p.error)

    p = sub.add_parser(
        "audit-bounds",
        help="compare the displayed extremal coefficient with f(theta_n)",
    )
    p.add_argument("--n-max", type=_parsed(int, dimension), required=True)
    add_format(p)
    p.set_defaults(func=_cmd_audit_bounds, error=p.error)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader is gone: send what is still buffered to the null
        # device, so the flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    return code


if __name__ == "__main__":
    sys.exit(main())
