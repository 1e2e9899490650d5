"""The package namespace: each module lists its public names once."""

from __future__ import annotations

import importlib
import inspect

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


@pytest.mark.parametrize(
    "name",
    [
        "DEFAULT_MAX_RANK",
        "expected_positive_root_count",
        "level_set",
        "PUBLISHED_CLASSICAL_FAMILIES",
        "PUBLISHED_EXCEPTIONAL_POSITIVE",
        "published_positive",
        "product_tensor",
        "sample_unit_sphere",
        "records_to_json",
    ],
)
def test_test_only_names_are_not_exported(name):
    assert not hasattr(hsckit, name)


@pytest.mark.parametrize("short", [*MODULES, "cli"])
def test_public_classes_and_functions_have_written_docstrings(short):
    module = importlib.import_module(f"hsckit.{short}")
    for name in module.__all__:
        value = getattr(module, name)
        if inspect.isclass(value) or inspect.isfunction(value):
            doc = value.__doc__ or ""
            # dataclass and NamedTuple fill a missing docstring with the signature
            assert doc.strip() and not doc.startswith(f"{name}("), name
