"""Module boundaries: the closed forms and the determinant oracle stay
independent, and the CLI starts without loading scipy.optimize."""
import ast
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


def test_cli_import_leaves_scipy_optimize_unloaded():
    path = os.pathsep.join(
        filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, "-c",
         "import sys, cevians.cli; print('scipy.optimize' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, check=True, timeout=60,
    )
    assert proc.stdout.strip() == "False"
