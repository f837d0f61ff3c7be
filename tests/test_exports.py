"""Every name a primpair module exports resolves."""

import importlib
import pkgutil

import pytest

import primpair

MODULES = ["primpair"] + [
    f"primpair.{m.name}" for m in pkgutil.iter_modules(primpair.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    missing = [n for n in getattr(mod, "__all__", ()) if not hasattr(mod, n)]
    assert missing == []
