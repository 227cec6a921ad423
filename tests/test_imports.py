"""Module boundaries: the closed forms and the determinant oracle stay
independent, the package runs without scipy, each CLI subcommand loads only
the modules it needs and starts no thread, the lazy package namespace keeps
its names, and the benchmark's traced functions exist and run on the
calling thread."""
import ast
import functools
import importlib.util
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import cevians
from cevians import harness

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


# Public names of the package namespace; each resolves on first use.
PUBLIC_NAMES = [
    "BarycentricPoint", "BoundAudit", "CartesianSimplex", "CevianConfiguration",
    "CevianError", "ConstantsRow", "ConvergenceError", "DEFAULT_TOLERANCES",
    "DegenerateSimplexError", "DimensionMismatchError", "F", "MoebiusAreas",
    "NotInteriorError", "OptimizerResult", "OutOfDomainError", "RatioBreakdown",
    "SUITES", "TrialPlan", "UnsupportedDimensionError", "VerificationReport",
    "Violation", "audit_bound", "build_configuration", "cevian_ratio",
    "constants", "constants_row", "corner_ratio", "corner_simplex_vertices",
    "errors", "f", "f_prime", "geometry", "harness", "maximize_F_simplex",
    "maximize_f_1d", "metallic", "metallic_cf", "metallic_hyperbolic",
    "moebius_areas", "moebius_residual", "optimize", "ratio_breakdown",
    "ratios", "run_suite", "simplex_volume", "theorem1_bound",
    "theorem1_bound_log", "theorem2_value", "theorem2_value_log", "theta",
    "theta_cf", "theta_hyperbolic", "to_barycentric", "to_cartesian", "volume",
]


@pytest.mark.parametrize(
    "argv, loaded, absent",
    [
        (None, set(), {"numpy", "cevians.constants"}),
        (["constants", "--n-max", "12"], {"cevians.constants"}, {"numpy"}),
        (["audit-bounds", "--n-max", "12"], {"cevians.constants"}, {"numpy"}),
        (["ratio", "--n", "2", "--lambda", "1,1,1"], {"numpy", "cevians.ratios"},
         {"cevians.harness", "cevians.optimize"}),
        (["verify", "--suite", "theorem1", "--n", "2", "--trials", "10"],
         {"cevians.harness"}, {"cevians.optimize"}),
    ],
    ids=["import", "constants", "audit-bounds", "ratio", "verify"],
)
def test_subcommand_loads_only_what_it_uses(argv, loaded, absent):
    # `import cevians` alone, or one passing CLI call, in a new interpreter;
    # what it loaded is reported on the last line
    code = f"""
import contextlib, io, sys
import cevians
argv = {argv!r}
if argv is not None:
    from cevians import cli
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
print(sorted(name for name in sys.modules if name in {sorted(loaded | absent)!r}))
"""
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == repr(sorted(loaded))


def test_lazy_namespace_keeps_every_name():
    code = """
import cevians
names = sorted(cevians.__all__)
resolved = [name for name in names if getattr(cevians, name, None) is not None]
scope = {}
exec("from cevians import *", scope)
print(names == resolved, sorted(set(names) - set(scope)), set(names) <= set(dir(cevians)))
print(names)
"""
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    summary, names = proc.stdout.strip().splitlines()[-2:]
    assert summary == "True [] True"
    assert names == repr(PUBLIC_NAMES)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        cevians.nonexistent  # noqa: B018


def test_cli_import_starts_no_thread():
    report = "'concurrent.futures' in sys.modules, threading.active_count()"
    assert _fresh_cli_import(report) == "False 1"


def test_cold_verify_starts_no_pool():
    # the cli-cold benchmark's verify call fits one pass; the eq2 call
    # takes four 2048-trial passes
    code = """
import sys, threading
from cevians import cli
codes = [
    cli.main(["verify", "--suite", "theorem1", "--n", "3", "--trials", "2048",
              "--format", "json"]),
    cli.main(["verify", "--suite", "eq2", "--n", "6", "--trials", "8192",
              "--seed", "1", "--format", "json"]),
]
print(codes, "concurrent.futures" in sys.modules, threading.active_count())
"""
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[0, 0] False 1"


@pytest.mark.skipif(sys.platform != "linux", reason="passes fork on Linux only")
def test_forked_passes_load_no_pool_module():
    # four passes over two pretended CPUs: one child, forked and reaped by
    # the call, with neither multiprocessing nor concurrent.futures
    code = """
import os, sys, threading
os.sched_getaffinity = lambda pid: {0, 1}
from cevians import harness
passed = harness.run_suite(harness.TrialPlan("eq2", 6, 8192, seed=1)).passed
try:
    os.waitpid(-1, os.WNOHANG)
except ChildProcessError:
    print(passed, threading.active_count(),
          [m for m in ("multiprocessing", "concurrent.futures") if m in sys.modules])
"""
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "True 1 []"


def test_passing_verify_never_loads_hashlib():
    # importing hashlib maps OpenSSL's libcrypto (3.7 MB); only a violation's
    # digest needs it, and a lazy import must give the same digests
    code = """
import io, json, sys
from contextlib import redirect_stdout
from cevians import cli
code = cli.main(["verify", "--suite", "theorem1", "--n", "3", "--trials", "100"])
loaded = [name for name in ("hashlib", "_hashlib") if name in sys.modules]
out = io.StringIO()
with redirect_stdout(out):
    failed = cli.main(["verify", "--suite", "affine", "--n", "2", "--trials", "3",
                       "--tol", "1e-300", "--seed", "0", "--format", "json"])
digests = [v["inputs_digest"] for v in json.loads(out.getvalue())["violations"]]
print(code, loaded, failed, digests)
"""
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == (
        "0 [] 1 ['113c4141b7db8453', 'a614528e4b118f7b', 'e7e5db504098da3e']"
    )


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux only")
def test_large_n_verify_memory():
    # a pass is one oracle block, 79 trials at n=60.  Passes of 573 trials
    # cut into 79-row blocks raised the peak by about 52 MB, one-block
    # passes by about 19 MB
    code = """
import resource
from cevians import cli
before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
code = cli.main(["verify", "--suite", "theorem1", "--n", "60", "--trials", "1024",
                 "--seed", "1", "--format", "json"])
after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(code, (after - before) / 1024)
"""
    proc = _fresh_python(code)
    assert proc.returncode == 0, proc.stderr
    code, growth_mb = proc.stdout.strip().splitlines()[-1].split()
    assert code == "0"
    assert float(growth_mb) < 40.0, growth_mb


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
    # the benchmark's tracer keeps one span stack
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

    # passes of three times the usual trials, each eliminated at once
    step = 3 * harness._pass_trials(6)
    monkeypatch.setattr(harness, "_pass_trials", lambda n: step)
    for suite in ("theorem1", "eq2", "segment_ratio"):
        plan = harness.TrialPlan(suite, 6, step + 100, seed=4)
        assert harness.run_suite(plan).passed
    assert {"harness.run_suite", "harness.sample", "harness.stream_reset",
            "harness.oracle", "harness.evaluate",
            "geometry.max_edge_length"} <= set(threads)
    assert all(ids == {threading.get_ident()} for ids in threads.values()), threads
