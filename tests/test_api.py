"""Every exported name resolves: ``aplab.__all__`` and each module's ``__all__``."""

import importlib
import pkgutil

import pytest

import aplab

MODULES = sorted(f"aplab.{m.name}" for m in pkgutil.iter_modules(aplab.__path__))


@pytest.mark.parametrize("module_name", ["aplab"] + MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    names = getattr(module, "__all__", [])
    assert len(names) == len(set(names)), "duplicate names in __all__"
    missing = [n for n in names if not hasattr(module, n)]
    assert not missing, f"{module_name}.__all__ names missing attributes: {missing}"
