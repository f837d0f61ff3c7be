"""Every name a primpair module exports resolves, every name it imports is
used, every import is at module level, no check is an `assert`, and every
raise names one of the error contract's types."""

import ast
import importlib
import inspect
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


@pytest.mark.parametrize("name", MODULES)
def test_imports_are_used(name):
    mod = importlib.import_module(name)
    tree = ast.parse(inspect.getsource(mod))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {(a.asname or a.name).split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = imported - used - set(getattr(mod, "__all__", ()))
    assert unused == set()


@pytest.mark.parametrize("name", MODULES)
def test_no_assert_statements(name):
    # python -O strips assert statements; a check must raise explicitly
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert lines == []


# bad input is a ValueError and an unfinished factorization is
# FactorizationIncomplete; AssertionError marks a broken internal invariant
# and ZeroDivisionError a polynomial reduced mod zero
RAISED = {"ValueError", "FactorizationIncomplete", "AssertionError",
          "ZeroDivisionError"}


@pytest.mark.parametrize("name", MODULES)
def test_raises_name_the_error_contract(name):
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    stray = [(node.lineno, ast.unparse(node))
             for node in ast.walk(tree) if isinstance(node, ast.Raise)
             if not (isinstance(node.exc, ast.Call)
                     and isinstance(node.exc.func, ast.Name)
                     and node.exc.func.id in RAISED)]
    assert stray == []


def test_errors_defines_the_two_types():
    tree = ast.parse(inspect.getsource(importlib.import_module("primpair.errors")))
    assert [node.name for node in tree.body if isinstance(node, ast.ClassDef)] \
        == ["PrimpairError", "FactorizationIncomplete"]


@pytest.mark.parametrize("name", MODULES)
def test_no_imports_inside_functions(name):
    # a deferred import would hide an import cycle between modules
    tree = ast.parse(inspect.getsource(importlib.import_module(name)))
    lines = [node.lineno
             for fn in ast.walk(tree)
             if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef))
             for node in ast.walk(fn)
             if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert lines == []
