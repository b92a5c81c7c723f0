"""The mutation survey of ``tools/mutants.py`` still finds its targets."""

import importlib.util
import sys
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "mutants", Path(__file__).resolve().parent.parent / "tools" / "mutants.py")
mutants = sys.modules[_SPEC.name] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.id)
def test_old_text_occurs_once(mutant):
    # a mutant whose text moved would change nothing, and survive
    assert mutant.occurrences() == 1
