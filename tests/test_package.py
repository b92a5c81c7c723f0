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


# exports that nothing in the package calls, each kept as API for its reason
API_ONLY = (
    # the corners from the generators, behind the stability gate; the package's
    # own readers hold stable ideals and fold corner_peak with corners_from_peaks
    "corners_via_characterization",
    "is_strongly_stable",  # the one stability test in __all__; hides the witness tuple
)


def _package_loads(module, tree):
    """The (home module, name) of each package name that ``tree``, the
    module ``module``, reads: a name it imports from a sibling module, or
    one of its own top-level names read outside that name's definition."""
    imported = {alias.asname or alias.name: (node.module, alias.name)
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level and node.module
                for alias in node.names}
    own = {node.name for node in tree.body
           if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    own |= {target.id for node in tree.body if isinstance(node, ast.Assign)
            for target in node.targets if isinstance(target, ast.Name)}
    found = set()

    def visit(node, within):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            within = within | {node.name}
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            if node.id in imported:
                found.add(imported[node.id])
            elif node.id in own and node.id not in within:
                found.add((module, node.id))
        for child in ast.iter_child_nodes(node):
            visit(child, within)

    visit(tree, frozenset())
    return found


def test_every_export_has_a_caller():
    # one caller per export: each name in __all__ is read somewhere in the
    # package besides its own definition and __init__.py, or it is API_ONLY;
    # names are matched as AST references, never as words of a docstring
    src = Path(tspread.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in sorted(src.glob("*.py"))}
    home = {alias.name: node.module for node in trees.pop("__init__").body
            if isinstance(node, ast.ImportFrom) for alias in node.names}
    read = set().union(*(_package_loads(module, tree) for module, tree in trees.items()))
    uncalled = [name for name in tspread.__all__ if (home[name], name) not in read]
    assert uncalled == list(API_ONLY)


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
