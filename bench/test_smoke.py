"""Smoke test of the benchmark command at tiny sizes.

Run from the repository root with ``python3 -m pytest -q bench/test_smoke.py``.
It checks the result line against the schema and its metric names against
BENCHMARK.json; the numbers of a ``--quick`` run are not measurements.
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(BENCH))
try:
    from run import WORKLOADS
finally:
    sys.path.remove(str(BENCH))


def run(workload: str, trace: int, root: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--quick"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result_of(workload: str, trace: int, wanted: list[dict]) -> dict:
    proc = run(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, proc.stderr
    assert type(result["attempted"]) is int and result["attempted"] >= 1
    assert result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for m in wanted:
        entry = result["metrics"][m["name"]]
        assert set(entry) == {"value", "unit"}
        assert entry["unit"] == m["unit"]
        assert type(entry["value"]) in (int, float), m["name"]
    return result


def test_gated_workloads_exist():
    assert {w["name"] for w in SPEC["workloads"]} <= set(WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_result_schema(workload):
    result = result_of(workload, 0, SPEC["end_to_end"])
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", ["suites-n2", "cli-cold"])
def test_traced_result_schema(workload):
    result = result_of(workload, 1, SPEC["per_layer"])
    metrics = result["metrics"]
    assert metrics["harness.oracle_calls"]["value"] > 0
    assert metrics["harness.draws_per_trial"]["value"] >= 1.0
    if workload == "cli-cold":
        assert metrics["optimize.simplex_iterations"]["value"] > 0
        assert metrics["cli.main_s.optimize"]["value"] > 0


def test_traced_counts_repeat_exactly():
    counts = ("harness.draws_per_trial", "harness.oracle_calls",
              "harness.oracle_flops_computed", "harness.oracle_bytes_computed")
    first, second = (
        result_of("suites-reject", 1, SPEC["per_layer"])["metrics"]
        for _ in range(2)
    )
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = run(SPEC["workloads"][0]["name"], 0, root=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
