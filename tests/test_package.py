"""Package-level guards."""
import importlib.util
import sys
from pathlib import Path

import pytest


@pytest.mark.parametrize("module", ["numerics", "fieldops", "experiment"])
def test_star_import_resolves_every_public_name(module):
    # a stale __all__ entry makes the star import raise AttributeError
    exec(f"from qdensity.{module} import *", {})


def test_every_mutant_of_the_table_applies_to_the_tree(monkeypatch):
    # tools/mutants.py runs Tier-1 on copies of src/ and tests/ without tools/
    tool = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
    if not tool.is_file():
        pytest.skip("this copy of the tree carries no tools/")
    spec = importlib.util.spec_from_file_location("mutants", tool)
    mutants = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, mutants)  # dataclasses look it up
    spec.loader.exec_module(mutants)
    mutants.check_table()
