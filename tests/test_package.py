"""The package namespace: each module lists its public names once."""

from __future__ import annotations

import importlib

import pytest

import hsckit

MODULES = ("errors", "rootsys", "cspace", "curvature", "extremize", "geography")


def test_package_exports_the_union_of_module_names():
    modules = [importlib.import_module(f"hsckit.{short}") for short in MODULES]
    union = [name for module in modules for name in module.__all__]
    assert len(set(union)) == len(union)
    assert sorted(hsckit.__all__) == sorted(union)
    for module in modules:
        for name in module.__all__:
            assert getattr(hsckit, name) is getattr(module, name)


@pytest.mark.parametrize("short", [*MODULES, "cli"])
def test_module_lists_every_public_definition(short):
    module = importlib.import_module(f"hsckit.{short}")
    defined = {
        name
        for name, value in vars(module).items()
        if not name.startswith("_") and getattr(value, "__module__", None) == module.__name__
    }
    assert defined <= set(module.__all__)
