"""Timing wrappers for the benchmark's traced run.

The wrappers are installed from outside the package: nothing under ``src/``
changes.  They go around the calls ``run_suite`` makes into its module-level
helpers and into other modules, and around the public entry points.  Each
span keeps its call count, inclusive seconds and self seconds; a span's self
time is its inclusive time minus the inclusive time of the spans it called,
so the self times of ``run_suite`` and of everything below it add up to
``run_suite``'s wall time.  Spans are aggregated in memory per name rather
than kept one by one, because the hot spans fire several times per trial.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import Counter

import numpy as np

# The one table from span name to the function it wraps, as
# (module, attribute path).  A target that a refactor renamed or removed is
# reported as absent, never as 0.
TARGETS = {
    "harness.run_suite": ("cevians.harness", "run_suite"),
    "harness.stream_reset": ("cevians.harness", "_TrialStream.for_trial"),
    "harness.sample": ("cevians.harness", "_draw_trial"),
    "geometry.max_edge_length": ("cevians.geometry", "max_edge_length"),
    "harness.evaluate": ("cevians.harness", "_evaluate"),
    "harness.oracle": ("cevians.harness", "_det_ld"),
    "harness.digest": ("cevians.harness", "_digest"),
    "optimize.simplex": ("cevians.optimize", "maximize_F_simplex"),
    "optimize.f1d": ("cevians.optimize", "maximize_f_1d"),
    "cli.main": ("cevians.cli", "main"),
}

# Spans whose self times partition run_suite's wall time.
HARNESS_SELF = (
    "harness.run_suite",
    "harness.stream_reset",
    "harness.sample",
    "geometry.max_edge_length",
    "harness.evaluate",
    "harness.oracle",
    "harness.digest",
)

CLI_SUBCOMMANDS = ("ratio", "constants", "audit-bounds", "verify", "optimize")

# Prefix of the stderr line on which the traced CLI shim reports its spans.
SPAN_MARKER = "#bench-spans "

_LONGDOUBLE_BYTES = np.dtype(np.longdouble).itemsize


class _CountingGenerator:
    """A numpy Generator that counts candidate draws.

    ``_draw_trial`` calls ``standard_exponential`` exactly once per
    candidate it draws, accepted or rejected.
    """

    def __init__(self, gen, counts: Counter) -> None:
        self._gen = gen
        self._counts = counts

    def uniform(self, *args, **kwargs):
        return self._gen.uniform(*args, **kwargs)

    def standard_exponential(self, *args, **kwargs):
        self._counts["draws"] += 1
        return self._gen.standard_exponential(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._gen, name)


def _cli_subcommand(args, kwargs) -> str:
    argv = args[0] if args else kwargs.get("argv")
    if argv is None:
        argv = sys.argv[1:]
    return next((a for a in argv if not a.startswith("-")), "none")


class Tracer:
    """Installs the wrappers of TARGETS and aggregates their spans."""

    def __init__(self) -> None:
        self.spans: dict[str, list[float]] = {}  # name -> [calls, total_s, self_s]
        self.counts: Counter = Counter()
        self.absent: list[str] = []
        self._stack: list[list[float]] = []
        self._undo: list[tuple[object, str, object]] = []

    def install(self) -> None:
        for name, (module_name, path) in TARGETS.items():
            try:
                module = importlib.import_module(module_name)
                owner_path, _, attr = path.rpartition(".")
                owner = module
                for part in filter(None, owner_path.split(".")):
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.absent.append(name)
                continue
            wrapper = self._wrap(name, original)
            if owner is module:
                # Rebind every import of the function in the package, so
                # calls through `from .x import f` copies are seen too.
                for mod_name, mod in list(sys.modules.items()):
                    if mod is None or not (
                        mod_name == "cevians" or mod_name.startswith("cevians.")
                    ):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._rebind(mod, key, wrapper)
            else:
                self._rebind(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def _rebind(self, owner, attr, wrapper) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, fn):
        tracer = self
        after = {
            "harness.stream_reset": self._count_draws,
            "harness.sample": self._count_accepted,
            "harness.oracle": self._count_oracle_work,
            "optimize.simplex": self._count_iterations,
        }.get(name)
        per_subcommand = name == "cli.main"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name + "." + _cli_subcommand(args, kwargs) if per_subcommand else name
            children = [0.0]
            tracer._stack.append(children)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = time.perf_counter() - start
                tracer._stack.pop()
                if tracer._stack:
                    tracer._stack[-1][0] += duration
                stats = tracer.spans.setdefault(span, [0, 0.0, 0.0])
                stats[0] += 1
                stats[1] += duration
                stats[2] += duration - children[0]
            if after is not None:
                result = after(args, result)
            return result

        return wrapper

    def _count_draws(self, args, gen):
        return _CountingGenerator(gen, self.counts)

    def _count_accepted(self, args, result):
        self.counts["accepted"] += 1
        return result

    def _count_oracle_work(self, args, result):
        mats = args[0]
        batch, m, _ = mats.shape
        self.counts["oracle_flops"] += batch * m**3
        # Input read, extended-precision working copy, determinants out.
        self.counts["oracle_bytes"] += batch * (
            m * m * (mats.dtype.itemsize + _LONGDOUBLE_BYTES) + _LONGDOUBLE_BYTES
        )
        return result

    def _count_iterations(self, args, result):
        self.counts["simplex_iterations"] += result.iterations
        return result

    def snapshot(self) -> dict:
        return {
            "spans": {k: list(v) for k, v in self.spans.items()},
            "counts": dict(self.counts),
            "absent": sorted(self.absent),
        }


def merge(total: dict, part: dict) -> dict:
    """Add the snapshot ``part`` into ``total`` (both as from snapshot())."""
    for name, (calls, incl, self_s) in part["spans"].items():
        stats = total["spans"].setdefault(name, [0, 0.0, 0.0])
        stats[0] += calls
        stats[1] += incl
        stats[2] += self_s
    for key, value in part["counts"].items():
        total["counts"][key] = total["counts"].get(key, 0) + value
    total["absent"] = sorted(set(total["absent"]) | set(part["absent"]))
    return total


def empty_snapshot() -> dict:
    return {"spans": {}, "counts": {}, "absent": []}


def layer_metrics(snap: dict) -> dict:
    """Per-layer metric name -> (value or None when absent, unit).

    Times are seconds summed over the traced segment; counts are exact.
    """
    absent = set(snap["absent"])
    spans = snap["spans"]
    counts = snap["counts"]

    def span(name, index=2):
        # index 0: calls, 1: inclusive seconds, 2: self seconds
        target = "cli.main" if name.startswith("cli.main.") else name
        if target in absent:
            return None
        return spans.get(name, [0, 0.0, 0.0])[index]

    def count(key, *needs):
        return None if absent.intersection(needs) else counts.get(key, 0)

    draws = count("draws", "harness.stream_reset", "harness.sample")
    accepted = counts.get("accepted", 0)
    out = {
        "harness.sample_s": (span("harness.sample"), "s"),
        "harness.stream_reset_s": (span("harness.stream_reset"), "s"),
        "harness.draws_per_trial": (
            None if draws is None else (draws / accepted if accepted else 0.0),
            "count",
        ),
        "geometry.max_edge_length_s": (span("geometry.max_edge_length"), "s"),
        "harness.oracle_s": (span("harness.oracle"), "s"),
        "harness.oracle_calls": (span("harness.oracle", index=0), "count"),
        "harness.oracle_flops_computed": (
            count("oracle_flops", "harness.oracle"), "flop"),
        "harness.oracle_bytes_computed": (
            count("oracle_bytes", "harness.oracle"), "bytes"),
        "harness.evaluate_self_s": (span("harness.evaluate"), "s"),
        "harness.aggregate_s": (span("harness.run_suite"), "s"),
        "harness.run_suite_s": (span("harness.run_suite", index=1), "s"),
        "optimize.simplex_s": (span("optimize.simplex", index=1), "s"),
        "optimize.simplex_iterations": (
            count("simplex_iterations", "optimize.simplex"), "count"),
        "optimize.f1d_s": (span("optimize.f1d", index=1), "s"),
    }
    for sub in CLI_SUBCOMMANDS:
        out[f"cli.main_s.{sub}"] = (span(f"cli.main.{sub}", index=1), "s")
    return out


def self_time_check(snap: dict) -> dict:
    """run_suite wall time against the sum of the harness self times."""
    wall = snap["spans"].get("harness.run_suite", [0, 0.0, 0.0])[1]
    parts = {
        name: snap["spans"].get(name, [0, 0.0, 0.0])[2]
        for name in HARNESS_SELF
        if name not in snap["absent"]
    }
    total = sum(parts.values())
    return {
        "run_suite_wall_s": wall,
        "self_s": parts,
        "sum_self_s": total,
        "remainder_s": wall - total,
    }
