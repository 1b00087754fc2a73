import importlib
import pkgutil

import pytest

import hcmkit

MODULES = ["hcmkit"] + [f"hcmkit.{m.name}" for m in pkgutil.iter_modules(hcmkit.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_exports_resolve_once(name):
    # a deleted function left in __all__ breaks `from hcmkit import *` only at run time
    mod = importlib.import_module(name)
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported)), sorted(n for n in exported if exported.count(n) > 1)
    assert [n for n in exported if not hasattr(mod, n)] == []
