#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the cevians package.

Usage, from the root of a checkout:

    python3 bench/run.py --workload suites-n2 --seed 1 --seconds 45 --trace 0

The workloads are the rows of WORKLOADS; bench/README.md gives the reason
for each.  With ``--trace 0`` the run is untraced and reports the end-to-end
metrics.  With ``--trace 1`` it runs one fixed set of operations twice,
first untraced and then with the timing wrappers of bench/spans.py, and
reports the per-layer metrics and the tracing overhead.  Every operation's
output is checked; a failed check counts as a failed operation.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it are a
readable report that includes the machine and environment.  ``--out FILE``
also writes the full result as JSON.  ``--quick`` shrinks every size for the
smoke test; its numbers are not measurements.

The package is imported from ``src/`` next to this directory; without it
the run exits with code 2 and prints no result.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import spans

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SHIM = BENCH / "cli_shim.py"

BATCH = 4096  # run_suite's default batch size
SETUP_REPS = 5  # fresh-interpreter imports per run for setup_s
IMPORTTIME_REPS = 3  # fresh-interpreter imports per traced run for cli.import_*
CLI_TIMEOUT_S = 60
TAIL_BEYOND = 10  # samples the tail percentile must leave above it

IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import cevians; "
    "print(time.perf_counter() - t)"
)


@dataclass(frozen=True)
class Workload:
    kind: str  # "suites": in-process run_suite plans; "cli": CLI processes
    cycle: tuple  # suites: (suite, n) per plan; cli: subcommands
    batches: int  # 4096-trial batches per suite plan
    cycle_s: float  # nominal untraced seconds per cycle; sizes the traced run


WORKLOADS = {
    "suites-n2": Workload(
        "suites",
        (("theorem1", 2), ("eq2", 2), ("decomposition", 2), ("moebius", 2)),
        batches=3,
        cycle_s=1.75,
    ),
    "suites-n6": Workload(
        "suites",
        (("theorem1", 6), ("theorem2", 6), ("eq2", 6), ("decomposition", 6),
         ("segment_ratio", 6)),
        batches=3,
        cycle_s=4.6,
    ),
    "suites-reject": Workload(
        "suites", (("affine", 6), ("theorem1", 8)), batches=3, cycle_s=22.0
    ),
    "cli-cold": Workload(
        "cli",
        ("ratio", "constants", "audit-bounds", "verify", "optimize"),
        batches=0,
        cycle_s=4.5,
    ),
}

CLI_VERIFY = ("theorem1", 3, 2048)  # suite, n, trials of the small verify
CLI_N_MAX = 12
CLI_OPTIMIZE_N = 4


@dataclass
class Op:
    """One operation: a run_suite plan or one CLI call."""

    label: str
    suite: str = ""
    n: int = 0
    trials: int = 0
    seed: int = 0
    argv: tuple = ()


@dataclass
class Outcome:
    op: Op
    ok: bool
    wall: float
    trials: int = 0  # accepted trials checked by this operation
    error: str = ""
    spans: dict | None = field(default=None, repr=False)


# ---------------------------------------------------------------- inputs


def cycle_ops(name: str, seed: int, index: int, quick: bool) -> list[Op]:
    """The operations of cycle ``index``; a function of its arguments only."""
    work = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}:{index}")
    if work.kind == "suites":
        trials = 64 if quick else BATCH * work.batches
        return [
            Op(f"{suite}/n{n}", suite, n, trials, rng.getrandbits(64))
            for suite, n in work.cycle
        ]
    ops = []
    for sub in work.cycle:
        trials = 0
        if sub == "ratio":
            n = rng.randint(2, 6)
            weights = ",".join(repr(rng.uniform(1.0, 2.0)) for _ in range(n + 1))
            argv = ("ratio", "--n", str(n), "--lambda", weights)
        elif sub in ("constants", "audit-bounds"):
            argv = (sub, "--n-max", str(CLI_N_MAX))
        elif sub == "verify":
            suite, n, trials = CLI_VERIFY
            trials = 256 if quick else trials
            argv = ("verify", "--suite", suite, "--n", str(n),
                    "--trials", str(trials), "--seed", str(rng.getrandbits(64)))
        else:
            argv = ("optimize", "--n", str(CLI_OPTIMIZE_N),
                    "--seed", str(rng.getrandbits(64)))
        ops.append(Op(sub, trials=trials, argv=argv + ("--format", "json")))
    return ops


# ------------------------------------------------------ output checks


def theta_ref(n: int) -> float:
    """Smaller root of x^2 - (n+1)x + 1, written stably."""
    return 2.0 / ((n + 1) + math.sqrt((n + 1) ** 2 - 4))


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def _reject_constant(name: str):
    raise ValueError(f"non-standard JSON constant {name}")


def _check_ratio(out) -> str:
    w = out["weights"]
    n = len(w) - 1
    g = [wi / (1.0 - wi) for wi in w]
    for k, got in enumerate(out["corner_ratios"]):
        want = w[k] * math.prod(g[i] for i in range(n + 1) if i != k)
        if not _close(got, want, 1e-9):
            return f"corner ratio {k}: {got} != {want}"
    cevian = n * math.prod(w) / math.prod(1.0 - wi for wi in w)
    if not _close(out["cevian_ratio"], cevian, 1e-9):
        return f"cevian ratio {out['cevian_ratio']} != {cevian}"
    if not _close(out["theorem1_bound"], float(n) ** -n, 1e-12):
        return f"theorem1 bound {out['theorem1_bound']} != n^-n"
    return ""


def _check_constants(rows) -> str:
    if [r["n"] for r in rows] != list(range(2, CLI_N_MAX + 1)):
        return "constants rows do not cover n = 2..n_max"
    for r in rows:
        t = theta_ref(r["n"])
        f_t = (t / (1.0 - t)) ** r["n"] * (1.0 - r["n"] * t)
        if not (_close(r["theta"], t, 1e-12) and _close(r["f_theta"], f_t, 1e-9)):
            return f"constants row n={r['n']}: theta {r['theta']}, f {r['f_theta']}"
    return ""


def _check_audit(rows) -> str:
    by_n = {r["n"]: r for r in rows}
    if sorted(by_n) != list(range(2, CLI_N_MAX + 1)):
        return "audit rows do not cover n = 2..n_max"
    for n, want in ((2, 9.0), (3, 4.0)):
        if not _close(by_n[n]["ratio"], want, 1e-9):
            return f"audit ratio at n={n} is {by_n[n]['ratio']}, want {want}"
    return ""


def _check_verify(out) -> str:
    if out["passed"] is not True or out["violations"]:
        return f"verify did not pass: {len(out['violations'])} violations"
    return ""


def _check_optimize(out) -> str:
    n = out["n"]
    t = theta_ref(n)
    if not (out["converged_1d"] and out["converged_simplex"]):
        return "optimizer did not converge"
    if abs(out["argmax_x"] - t) > 1e-6:
        return f"1-D argmax {out['argmax_x']} is not theta({n}) = {t}"
    worst = max(abs(w - t) for w in out["argmax_weights"][:n])
    if worst > 1e-6:
        return f"simplex argmax is {worst:.3g} from theta({n})"
    return ""


CLI_CHECKS = {
    "ratio": _check_ratio,
    "constants": _check_constants,
    "audit-bounds": _check_audit,
    "verify": _check_verify,
    "optimize": _check_optimize,
}


# --------------------------------------------------------- operations


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    return env


def run_plan(op: Op) -> Outcome:
    from cevians import harness

    start = time.perf_counter()
    try:
        plan = harness.TrialPlan(op.suite, op.n, op.trials, op.seed)
        report = harness.run_suite(plan)
    except Exception:  # noqa: BLE001 - a crashing plan is a failed operation
        return Outcome(op, False, time.perf_counter() - start,
                       error=traceback.format_exc())
    wall = time.perf_counter() - start
    # run_suite records a sampling failure as a violation of infinite margin.
    unsampled = sum(not math.isfinite(v.margin) for v in report.violations)
    error = "" if report.passed else (
        f"{len(report.violations)} violations, {unsampled} sampling failures")
    return Outcome(op, not error, wall, op.trials - unsampled, error)


def run_cli(op: Op, traced: bool) -> Outcome:
    entry = [str(SHIM)] if traced else ["-m", "cevians.cli"]
    start = time.perf_counter()
    try:
        proc = subprocess.run(
            [sys.executable, *entry, *op.argv], cwd=ROOT, env=_env(),
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return Outcome(op, False, time.perf_counter() - start,
                       error=f"timed out after {CLI_TIMEOUT_S} s")
    wall = time.perf_counter() - start
    spans_snap = None
    if traced:
        last = proc.stderr.rstrip("\n").rpartition("\n")[2]
        if last.startswith(spans.SPAN_MARKER):
            spans_snap = json.loads(last[len(spans.SPAN_MARKER):])
    if proc.returncode != 0:
        error = f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
    elif traced and spans_snap is None:
        error = "traced call reported no spans"
    else:
        try:
            error = CLI_CHECKS[op.label](
                json.loads(proc.stdout, parse_constant=_reject_constant))
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            error = f"bad output: {exc!r}"
    return Outcome(op, not error, wall, 0 if error else op.trials, error,
                   spans_snap)


def run_cycles(name, cycles, traced=False) -> tuple[list[Outcome], float]:
    """Run the given cycles of operations; returns outcomes and wall time."""
    cli = WORKLOADS[name].kind == "cli"
    outcomes = []
    start = time.perf_counter()
    for ops in cycles:
        for op in ops:
            outcomes.append(run_cli(op, traced) if cli else run_plan(op))
    return outcomes, time.perf_counter() - start


def run_for(name, seed, seconds, quick) -> tuple[list[Outcome], float]:
    """Run the whole cycles that fit in ``seconds`` (at least one).

    Another cycle starts only if, at the mean cycle time so far, it would
    end within ``seconds``.  Whole cycles keep every operation of the cycle
    equally represented in the latency samples and the per-operation
    medians.
    """
    outcomes = []
    start = time.perf_counter()
    index = 0
    while index == 0 or (
        not quick and (time.perf_counter() - start) * (index + 1) / index <= seconds
    ):
        outcomes += run_cycles(name, [cycle_ops(name, seed, index, quick)])[0]
        index += 1
    return outcomes, time.perf_counter() - start


def traced_cycles(name, seed, seconds, quick) -> list[list[Op]]:
    """The operations of each pass of a traced run.

    Their number is fixed by the workload's nominal cycle time and
    --seconds, not by the clock, so every count repeats exactly across
    runs of one seed.
    """
    count = 1 if quick else max(1, round(seconds / 2 / WORKLOADS[name].cycle_s))
    return [cycle_ops(name, seed, i, quick) for i in range(count)]


def warm_up(name: str, seed: int) -> list[Outcome]:
    """Run each suite plan once at a small size, so lazy set-up is done."""
    if WORKLOADS[name].kind != "suites":
        return []
    ops = cycle_ops(name, seed, -1, quick=True)
    return [run_plan(op) for op in ops]


# ------------------------------------------------------------- set-up


def fresh_python(args: list[str]) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=_env(), capture_output=True,
        text=True, timeout=CLI_TIMEOUT_S, check=True,
    )


def setup_times(reps: int) -> list[float]:
    """Seconds to import cevians in a fresh interpreter, ``reps`` times.

    One untimed import first writes the bytecode caches, which an installed
    package has too.
    """
    fresh_python(["-c", "import cevians"])
    return [float(fresh_python(["-c", IMPORT_PROBE]).stdout) for _ in range(reps)]


def import_breakdown(reps: int) -> tuple[float, float]:
    """Median seconds of importing cevians.cli, and of the scipy.optimize
    import inside it, from ``python -X importtime``."""
    totals, scipy_opt = [], []
    for _ in range(reps):
        err = fresh_python(["-X", "importtime", "-c", "import cevians.cli"]).stderr
        total = scipy_s = 0.0
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not line.startswith("import time:"):
                continue
            name = parts[2][1:].rstrip()  # nesting indents the name
            try:
                cumulative = int(parts[1]) / 1e6
            except ValueError:
                continue  # the header line
            if name.startswith("cevians"):  # top level: no indent
                total += cumulative
            if name.strip() == "scipy.optimize":
                scipy_s += cumulative
        totals.append(total)
        scipy_opt.append(scipy_s)
    return statistics.median(totals), statistics.median(scipy_opt)


# ------------------------------------------------------------ metrics


def tail(samples: list[float]) -> tuple[float, float]:
    """(value, percentile) of the latency tail.

    The tail is the highest percentile with at least TAIL_BEYOND samples
    above it.  Below 2 * TAIL_BEYOND + 1 samples that percentile would sit
    under the median, so the maximum is reported instead, as percentile 100.
    """
    xs = sorted(samples)
    if len(xs) <= 2 * TAIL_BEYOND:
        return xs[-1], 100.0
    idx = len(xs) - TAIL_BEYOND - 1
    return xs[idx], 100.0 * (idx + 1) / len(xs)


def by_operation(outcomes: list[Outcome]) -> list[list[Outcome]]:
    """Outcomes grouped by operation of the cycle (suite plan or subcommand)."""
    groups: dict[str, list[Outcome]] = {}
    for o in outcomes:
        groups.setdefault(o.op.label, []).append(o)
    return list(groups.values())


def trials_rate(outcomes: list[Outcome]) -> float:
    """Accepted trials per second over one cycle of the workload.

    The cycle's wall time is the sum, over its operations, of the median
    wall time of that operation across the run's cycles, so a burst of
    contention from other processes on the host does not move the figure.
    """
    groups = by_operation(outcomes)
    trials = sum(statistics.median(o.trials for o in g) for g in groups)
    wall = sum(statistics.median(o.wall for o in g) for g in groups)
    return trials / wall


def median_latency(outcomes: list[Outcome]) -> float:
    """Median over the cycle's operations of each one's median wall time.

    Pooling all samples instead would put the median at the edge between
    two operations' clusters, where a few slowed samples move it far.
    """
    return statistics.median(
        statistics.median(o.wall for o in g) for g in by_operation(outcomes))


def end_to_end(name, outcomes, wall, setup) -> tuple[dict, dict]:
    """End-to-end metrics as name -> (value, unit), and their details."""
    usage = (resource.RUSAGE_CHILDREN if WORKLOADS[name].kind == "cli"
             else resource.RUSAGE_SELF)
    walls = [o.wall for o in outcomes]
    tail_value, tail_pct = tail(walls)
    metrics = {
        "trials_per_s": (trials_rate(outcomes), "1/s"),
        "latency_p50_s": (median_latency(outcomes), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (resource.getrusage(usage).ru_maxrss / 1024.0, "MB"),
    }
    # The tail is reported but not gated: with the few operations a run
    # holds, it moves with contention from other processes on the host by
    # more than any bound BENCHMARK.json may set.
    details = {
        "latency_tail_s": tail_value,
        "latency_tail_percentile": tail_pct,
        "latency_samples": len(walls),
        "timed_wall_s": wall,
        "setup_samples_s": setup,
    }
    return metrics, details


def traced_run(name, seed, seconds, quick) -> tuple[list[Outcome], dict, dict]:
    """Untraced and traced passes over the same cycles; per-layer metrics."""
    work = WORKLOADS[name]
    cycles = traced_cycles(name, seed, seconds, quick)
    plain, plain_wall = run_cycles(name, cycles)
    if work.kind == "cli":
        traced, traced_wall = run_cycles(name, cycles, traced=True)
        snap = spans.empty_snapshot()
        for o in traced:
            if o.spans is not None:
                spans.merge(snap, o.spans)
    else:
        tracer = spans.Tracer()
        tracer.install()
        try:
            traced, traced_wall = run_cycles(name, cycles)
        finally:
            tracer.uninstall()
        snap = tracer.snapshot()
    overhead = 100.0 * (1.0 - trials_rate(traced) / trials_rate(plain))
    import_s, scipy_s = import_breakdown(1 if quick else IMPORTTIME_REPS)
    metrics = spans.layer_metrics(snap)
    metrics["cli.import_s"] = (import_s, "s")
    metrics["cli.import_scipy_s"] = (scipy_s, "s")
    metrics["trace.overhead_pct"] = (overhead, "%")
    check = spans.self_time_check(snap)
    details = {
        "cycles_per_pass": len(cycles),
        "untraced_wall_s": plain_wall,
        "traced_wall_s": traced_wall,
        "spans": snap,
        "self_time_check": check,
    }
    if work.kind == "suites":
        details["outside_run_suite_s"] = traced_wall - check["run_suite_wall_s"]
    return plain + traced, metrics, details


# ------------------------------------------------------------- report


def environment() -> dict:
    import numpy as np
    import scipy

    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next(
                (ln.split(":", 1)[1].strip() for ln in fh
                 if ln.startswith("model name")), model)
    except OSError:
        pass
    fi = np.finfo(np.longdouble)
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": model or "unknown",
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "longdouble": {
            "precision": int(fi.precision),
            "nmant": int(fi.nmant),
            "eps": float(fi.eps),
        },
    }


def _fmt(value) -> str:
    if value is None:
        return "absent"
    if isinstance(value, int):
        return str(value)
    return f"{value:.6g}"


def print_report(result: dict, metrics: dict) -> None:
    env = result["environment"]
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"seconds {result['seconds']}  trace {result['trace']}")
    print(f"machine: nproc={env['nproc']} cpu={env['cpu_model']!r} "
          f"python={env['python']} numpy={env['numpy']} scipy={env['scipy']} "
          f"longdouble precision={env['longdouble']['precision']} digits")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {_fmt(value):>14s} {unit}")
    d = result["details"]
    print(f"  {'failed_fraction':34s} {_fmt(result['failed_fraction']):>14s} "
          f"({result['failed']} of {result['attempted']} operations)")
    if "latency_samples" in d:
        print(f"  {'latency_tail_s':34s} {_fmt(d['latency_tail_s']):>14s} s  "
              f"(p{d['latency_tail_percentile']:.4g} of {d['latency_samples']} "
              "samples; reported, not gated)")
    if "self_time_check" in d:
        check = d["self_time_check"]
        print(f"  run_suite wall {check['run_suite_wall_s']:.6g} s = "
              f"sum of harness self times {check['sum_self_s']:.6g} s "
              f"+ remainder {check['remainder_s']:.3g} s")
        for span_name, secs in check["self_s"].items():
            share = secs / check["run_suite_wall_s"] if check["run_suite_wall_s"] else 0
            print(f"    {span_name:30s} {secs:10.4f} s  {100 * share:5.1f}%")
        if "outside_run_suite_s" in d:
            print(f"    {'(benchmark, outside run_suite)':30s} "
                  f"{d['outside_run_suite_s']:10.4f} s")
        absent = d["spans"]["absent"]
        if absent:
            print("  absent targets: " + ", ".join(absent))
    for o in result["failures"]:
        print(f"  FAILED {o}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=45)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="also write the full result here")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for the smoke test; not a measurement")
    args = parser.parse_args(argv)

    if not (SRC / "cevians" / "__init__.py").is_file():
        print(f"error: no package at {SRC / 'cevians'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import cevians

    if not Path(cevians.__file__).resolve().is_relative_to(SRC):
        print(f"error: imported cevians from {cevians.__file__}", file=sys.stderr)
        return 2

    outcomes = warm_up(args.workload, args.seed)
    if args.trace:
        ops, metrics, details = traced_run(
            args.workload, args.seed, args.seconds, args.quick)
        outcomes += ops
    else:
        setup = setup_times(1 if args.quick else SETUP_REPS)
        timed, wall = run_for(args.workload, args.seed, args.seconds, args.quick)
        outcomes += timed
        metrics, details = end_to_end(args.workload, timed, wall, setup)

    failed = [o for o in outcomes if not o.ok]
    for o in failed:
        print(f"failed {o.op.label} {' '.join(o.op.argv)}: {o.error}",
              file=sys.stderr)
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "attempted": len(outcomes),
        "failed": len(failed),
        "failed_fraction": len(failed) / len(outcomes),
        "failures": [f"{o.op.label}: {o.error.splitlines()[-1]}" for o in failed],
        "details": details,
    }
    print_report(result, metrics)
    if args.out:
        args.out.write_text(json.dumps(result, indent=2) + "\n")
    print(json.dumps({
        "correct": not failed,
        "attempted": len(outcomes),
        "failed": len(failed),
        "metrics": result["metrics"],
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
