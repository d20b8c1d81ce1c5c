"""Every name a module exports resolves, so ``from safestab.<module> import *``
cannot fail on a name a change deleted."""

import importlib
import pkgutil

import pytest

import safestab

MODULES = sorted(m.name for m in pkgutil.iter_modules(safestab.__path__))


def test_the_package_modules_are_found():
    assert {"dynamics", "geometry", "reach", "converse", "certify"} <= set(MODULES)


@pytest.mark.parametrize("module", MODULES)
def test_every_name_in_all_resolves(module):
    mod = importlib.import_module(f"safestab.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []
    namespace = {}
    exec(f"from safestab.{module} import *", namespace)
    assert set(getattr(mod, "__all__", ())) <= set(namespace)
