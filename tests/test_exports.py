"""Every name in the `__all__` of the hyplp package and of each of its
modules resolves, so that `from hyplp... import *` works: a name left in
`__all__` after its definition is deleted would break it."""

import importlib
import pkgutil

import pytest

import hyplp

MODULES = ["hyplp"] + [f"hyplp.{m.name}" for m in pkgutil.iter_modules(hyplp.__path__)
                       if m.name != "__main__"]
EXPORTING = [name for name in MODULES
             if hasattr(importlib.import_module(name), "__all__")]


def test_the_package_and_its_public_modules_declare_their_exports():
    assert {"hyplp", "hyplp.bounds", "hyplp.cli", "hyplp.constructions",
            "hyplp.hypergraph", "hyplp.orthopoly", "hyplp.spectra"} <= set(EXPORTING)


@pytest.mark.parametrize("name", EXPORTING)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
    scope = {}
    exec(f"from {name} import *", scope)
    assert set(module.__all__) <= set(scope)
