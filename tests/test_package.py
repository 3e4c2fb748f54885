import importlib
import pkgutil

import pytest

import holoseq

MODULES = sorted(m.name for m in pkgutil.iter_modules(holoseq.__path__, "holoseq."))


@pytest.mark.parametrize("name", MODULES)
def test_all_names_exist(name):
    # a stale __all__ entry fails only on `import *`, so check each name here
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
