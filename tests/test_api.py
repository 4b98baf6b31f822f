"""The public names: every exported name resolves, none is listed twice."""

import importlib
import pkgutil

import pytest

import tangoseg

MODULES = [name for _, name, _ in pkgutil.iter_modules(tangoseg.__path__)]


def test_package_exports_resolve_once():
    assert len(tangoseg.__all__) == len(set(tangoseg.__all__))
    assert [name for name in tangoseg.__all__ if not hasattr(tangoseg, name)] == []


@pytest.mark.parametrize("module", MODULES)
def test_module_exports_resolve_once(module):
    mod = importlib.import_module(f"tangoseg.{module}")
    exported = getattr(mod, "__all__", [])
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(mod, name)] == []
