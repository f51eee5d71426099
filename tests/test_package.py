"""Package-level guards."""
import pytest


@pytest.mark.parametrize("module", ["numerics", "fieldops", "experiment"])
def test_star_import_resolves_every_public_name(module):
    # a stale __all__ entry makes the star import raise AttributeError
    exec(f"from qdensity.{module} import *", {})
