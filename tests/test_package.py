"""The package namespace, its export list and its declared dependencies."""

import ast
import sys
import types
from pathlib import Path

import pytest

import tspread


def test_export_list_matches_namespace():
    namespace = {}
    exec("from tspread import *", namespace)  # raises on a name that does not resolve
    del namespace["__builtins__"]
    public = {name for name, value in vars(tspread).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(tspread.__all__) == len(set(tspread.__all__))
    assert set(namespace) == set(tspread.__all__) == public


def test_no_runtime_dependencies():
    # tspread runs on the standard library alone
    tomllib = pytest.importorskip("tomllib")  # Python 3.11 and later
    pyproject = Path(__file__).resolve().parent.parent / "pyproject.toml"
    with pyproject.open("rb") as f:
        project = tomllib.load(f)["project"]
    assert project["dependencies"] == []


def test_imports_only_the_standard_library():
    # every import in the package is relative, tspread itself or stdlib
    src = Path(tspread.__file__).resolve().parent
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.split(".")[0]
                assert top == "tspread" or top in sys.stdlib_module_names, (path.name, name)
