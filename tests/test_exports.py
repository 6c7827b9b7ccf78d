"""Every name a ``scatterkit`` module exports in ``__all__`` exists."""

import importlib
import pkgutil

import pytest

import scatterkit

MODULES = ["scatterkit"] + [
    f"scatterkit.{info.name}" for info in pkgutil.iter_modules(scatterkit.__path__)
]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    exported = getattr(module, "__all__", [])
    assert [name for name in exported if not hasattr(module, name)] == []
