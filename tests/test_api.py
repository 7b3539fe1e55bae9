"""Public names: every module star-imports and every package export resolves."""

import importlib
import pkgutil

import pytest

import conicshock

MODULES = ["conicshock"] + sorted(
    f"conicshock.{m.name}" for m in pkgutil.iter_modules(conicshock.__path__))


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    # a stale name in __all__ makes the star-import raise
    namespace = {}
    exec(f"from {module} import *", namespace)
    for name in getattr(importlib.import_module(module), "__all__", ()):
        assert name in namespace


@pytest.mark.parametrize("name", conicshock.__all__)
def test_package_export_resolves(name):
    assert hasattr(conicshock, name)
