"""Package surface: every exported name resolves."""

import importlib
import pkgutil

import pytest

import trichotomy

MODULES = ["trichotomy"] + [
    f"trichotomy.{m.name}" for m in pkgutil.iter_modules(trichotomy.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_exported_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in module.__all__ if not hasattr(module, attr)]
    assert missing == []
