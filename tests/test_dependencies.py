"""The package imports only the standard library, numpy and its own modules,
which keeps numpy the single dependency declared in pyproject.toml."""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "uarank"
ALLOWED = set(sys.stdlib_module_names) | {"numpy", "uarank"}


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_only_stdlib_numpy_and_itself(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module]
        else:
            continue
        for name in names:
            assert name.split(".")[0] in ALLOWED, f"{path.name}:{node.lineno} imports {name}"


def test_metrics_import_nothing_from_rankers():
    # Metrics take a ranking or a ranking function; turning a ranker id into one is the rankers' job.
    tree = ast.parse((PACKAGE / "metrics.py").read_text(), filename="metrics.py")
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):  # relative to the package: from . import x, from .x import y
            module = ".".join(filter(None, ("uarank" if node.level else None, node.module)))
            names = [module, *(f"{module}.{alias.name}" for alias in node.names)]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        for name in names:
            assert not (name + ".").startswith("uarank.rankers."), f"metrics.py:{node.lineno} imports {name}"
