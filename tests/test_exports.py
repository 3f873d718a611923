"""Every name a module exports in `__all__` resolves.

A class or function that is deleted or renamed would otherwise stay listed
and fail only at a caller's `from yieldcast.x import *`.
"""
from __future__ import annotations

import importlib
import pkgutil

import pytest

import yieldcast

MODULES = ["yieldcast"] + [
    f"yieldcast.{info.name}" for info in pkgutil.iter_modules(yieldcast.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported)
    assert [n for n in exported if not hasattr(module, n)] == []
