"""Every name in a stman module's __all__ is an attribute of the module,
so a star import never fails on a stale entry."""

import importlib
import pkgutil

import pytest

import stman

MODULES = sorted(m.name for m in pkgutil.iter_modules(stman.__path__))


def test_every_module_is_listed():
    assert {"autodiff", "corpus", "encoder", "training"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(f"stman.{name}")
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
