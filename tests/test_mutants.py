"""Every committed mutant of scripts/mutants.py stays anchored to the code and tests it names.

``scripts/mutants.py`` runs pytest once per mutant, so it is not tier-1.  This
checks in tier-1 what it needs before it runs: each mutant's snippet occurs
exactly once in its ``src/falg`` file, and each named test's file defines
that test function.  Code or a test that moves without its mutant fails here.
"""

import ast
import importlib.util
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


@cache
def _test_functions(path: str) -> frozenset:
    tree = ast.parse((ROOT / path).read_text())
    return frozenset(node.name for node in tree.body if isinstance(node, ast.FunctionDef))


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_mutant_is_anchored(mutant):
    assert (ROOT / "src" / "falg" / mutant.file).read_text().count(mutant.old) == 1
    for test in mutant.tests:
        path, _, name = test.partition("::")
        assert (ROOT / path).is_file(), test
        assert name.partition("[")[0] in _test_functions(path), test
