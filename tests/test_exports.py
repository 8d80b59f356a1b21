"""Every name a module exports through __all__ must exist in it."""

import importlib
import pkgutil

import pytest

import sbnrg

MODULES = ["sbnrg"] + sorted(
    f"sbnrg.{info.name}" for info in pkgutil.iter_modules(sbnrg.__path__)
    if not info.name.startswith("_")
)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported is not None, f"{name} has no __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
