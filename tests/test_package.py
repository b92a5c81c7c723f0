"""The package namespace and its export list."""

import types

import tspread


def test_export_list_matches_namespace():
    namespace = {}
    exec("from tspread import *", namespace)  # raises on a name that does not resolve
    del namespace["__builtins__"]
    public = {name for name, value in vars(tspread).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert len(tspread.__all__) == len(set(tspread.__all__))
    assert set(namespace) == set(tspread.__all__) == public
