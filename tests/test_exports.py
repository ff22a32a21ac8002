import importlib
import pkgutil

import pytest

import depthstream

MODULES = [m.name for m in pkgutil.iter_modules(depthstream.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    module = importlib.import_module(f"depthstream.{name}")
    missing = [n for n in getattr(module, "__all__", ())
               if not hasattr(module, n)]
    assert missing == []
