"""Every exported name resolves, so a deletion cannot leave a stale export."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import pcgn

MODULES = ["pcgn"] + [f"pcgn.{m.name}" for m in pkgutil.iter_modules(pcgn.__path__)]


@pytest.mark.parametrize("module_name", MODULES)
def test_all_names_resolve(module_name):
    module = importlib.import_module(module_name)
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == [], f"{module_name}.__all__ names undefined attributes: {missing}"
