"""Module boundaries: the closed forms and the determinant oracle stay
independent, the package runs without scipy, the CLI starts without
starting a thread, and the benchmark's traced functions exist and run on
the calling thread."""
import ast
import functools
import importlib.util
import os
import subprocess
import sys
import threading
from pathlib import Path

import cevians
from cevians import geometry, harness

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


def _fresh_python(code: str) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that finds this package."""
    path = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    )
    return subprocess.run(
        [sys.executable, "-c", code],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=60,
    )


def _fresh_cli_import(report: str) -> str:
    """Output of ``report`` evaluated right after `import cevians.cli` in a
    new interpreter."""
    proc = _fresh_python(f"import sys, threading, cevians.cli; print({report})")
    proc.check_returncode()
    return proc.stdout.strip()


def test_package_never_imports_scipy():
    for path in PACKAGE.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            assert all(name.split(".")[0] != "scipy" for name in names), path.name


def test_optimize_runs_without_scipy():
    # a finder ahead of every other refuses scipy, as if it were not
    # installed, and the optimizers still run end to end
    code = """
import sys
class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name.split(".")[0] == "scipy":
            raise ModuleNotFoundError(f"no module named {name!r}", name=name)
sys.meta_path.insert(0, RefuseScipy())
from cevians import cli
sys.exit(cli.main(["optimize", "--n", "4", "--format", "json"]))
"""
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert '"converged_simplex": true' in proc.stdout


def test_cli_import_starts_no_thread():
    # the oracle's thread pool is made on the first batch large enough to
    # split, never at import
    report = "'concurrent.futures' in sys.modules, threading.active_count()"
    assert _fresh_cli_import(report) == "False 1"


def test_cold_verify_starts_no_pool():
    # the cli-cold benchmark's verify call: every kernel fits one row block
    code = """
from cevians import cli, geometry
code = cli.main(["verify", "--suite", "theorem1", "--n", "3", "--trials", "2048",
                 "--format", "json"])
print(code, geometry._POOL)
"""
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "0 None"


def _bench_spans():
    spans_path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", spans_path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_benchmark_trace_targets_resolve():
    # the per-layer benchmark reports a renamed target as absent, not as an
    # error, so a refactor of a traced function would go unnoticed
    for name, (module, path) in _bench_spans().TARGETS.items():
        owner = importlib.import_module(module)
        for part in path.split("."):
            owner = getattr(owner, part, None)
        assert callable(owner), name


def test_traced_functions_run_on_the_calling_thread(monkeypatch):
    # the benchmark's tracer keeps one span stack, so only untraced kernels
    # may run on the pool's workers
    threads = {}

    def record(name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            threads.setdefault(name, set()).add(threading.get_ident())
            return fn(*args, **kwargs)

        return wrapper

    for name, (module_name, path) in _bench_spans().TARGETS.items():
        module = importlib.import_module(module_name)
        owner_path, _, attr = path.rpartition(".")
        owner = functools.reduce(getattr, filter(None, owner_path.split(".")), module)
        original = getattr(owner, attr)
        wrapper = record(name, original)
        if owner is not module:
            monkeypatch.setattr(owner, attr, wrapper)
            continue
        # every `from .x import f` copy in the package, as the tracer does
        for mod_name, mod in list(sys.modules.items()):
            if mod_name == "cevians" or mod_name.startswith("cevians."):
                for key, value in list(vars(mod).items()):
                    if value is original:
                        monkeypatch.setattr(mod, key, wrapper)

    monkeypatch.setattr(geometry, "_cores", lambda: 2)
    monkeypatch.setattr(geometry, "_POOL", None)
    try:
        for suite in ("theorem1", "eq2", "segment_ratio"):
            plan = harness.TrialPlan(suite, 6, 3 * geometry.SPLIT_MIN_ROWS + 100, seed=4)
            assert harness.run_suite(plan, batch_size=3 * geometry.SPLIT_MIN_ROWS).passed
        assert geometry._POOL is not None
    finally:
        if geometry._POOL is not None:
            geometry._POOL.shutdown()
    assert {"harness.run_suite", "harness.sample", "harness.stream_reset",
            "harness.oracle", "harness.evaluate",
            "geometry.max_edge_length"} <= set(threads)
    assert all(ids == {threading.get_ident()} for ids in threads.values()), threads
