"""Module boundaries: the closed forms and the determinant oracle stay
independent, the CLI starts without loading scipy.optimize or starting
a thread, and the benchmark's traced functions exist."""
import ast
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import cevians

PACKAGE = Path(cevians.__file__).resolve().parent
RECORD_TYPES = {"BarycentricPoint", "MoebiusAreas"}


def _package_imports(module: str) -> list[tuple[str, set | None]]:
    """(package module, imported names or None for the whole module) for
    every import of a cevians module in cevians/<module>.py."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            module = "." * node.level + (node.module or "")
            if module in (".", "cevians"):
                found.extend((alias.name, None) for alias in node.names)
            elif module.startswith((".", "cevians.")):
                name = module.lstrip(".").removeprefix("cevians.")
                found.append((name, {alias.name for alias in node.names}))
        elif isinstance(node, ast.Import):
            found.extend(
                (alias.name.removeprefix("cevians."), None)
                for alias in node.names
                if alias.name.startswith("cevians.")
            )
    return found


def _reachable(module: str) -> set:
    seen, todo = set(), [module]
    while todo:
        for dep, _ in _package_imports(todo.pop()):
            if dep not in seen:
                seen.add(dep)
                todo.append(dep)
    return seen


def test_ratios_takes_only_record_types_from_geometry():
    for dep, names in _package_imports("ratios"):
        if dep == "geometry":
            assert names is not None and names <= RECORD_TYPES, names
        else:
            assert "geometry" not in _reachable(dep) | {dep}, dep


def test_geometry_never_imports_ratios():
    assert "ratios" not in _reachable("geometry")


def _fresh_cli_import(report: str) -> str:
    """Output of ``report`` evaluated right after `import cevians.cli` in a
    new interpreter."""
    path = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         f"import sys, threading, cevians.cli; print({report})"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=60,
    )
    return proc.stdout.strip()


def test_cli_import_leaves_scipy_optimize_unloaded():
    assert _fresh_cli_import("'scipy.optimize' in sys.modules") == "False"


def test_cli_import_starts_no_thread():
    # the oracle's thread pool is made on the first batch large enough to
    # split, never at import
    report = "'concurrent.futures' in sys.modules, threading.active_count()"
    assert _fresh_cli_import(report) == "False 1"


def test_benchmark_trace_targets_resolve():
    # the per-layer benchmark reports a renamed target as absent, not as an
    # error, so a refactor of a traced function would go unnoticed
    spans_path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", spans_path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    for name, (module, path) in spans.TARGETS.items():
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), name
