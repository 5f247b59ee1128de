"""Every name that a module of the package exports through `__all__` exists."""

import importlib
import pkgutil

import pytest

import sliceregular

MODULES = [importlib.import_module(f"sliceregular.{m.name}")
           for m in pkgutil.iter_modules(sliceregular.__path__)]


@pytest.mark.parametrize("module", [m for m in MODULES if hasattr(m, "__all__")],
                         ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in module.__all__ if not hasattr(module, name)] == []
