"""Every name a module of the package exports resolves."""

import importlib
import pkgutil

import pytest

import skdv

MODULES = ["skdv"] + [f"skdv.{m.name}" for m in pkgutil.iter_modules(skdv.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", None)
    assert exported, f"{name} has no __all__"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
