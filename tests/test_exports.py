import importlib
import pkgutil

import pytest

import dftmc

MODULES = ["dftmc"] + [f"dftmc.{m.name}" for m in pkgutil.iter_modules(dftmc.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(exported) == len(set(exported)), f"{name}.__all__ lists a name twice"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == [], f"{name}.__all__ names attributes that do not exist: {missing}"
