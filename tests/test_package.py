"""The package namespace: each module lists its public names once."""

from __future__ import annotations

import ast
import copy
import importlib
import inspect
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import hsckit

MODULES = ("errors", "rootsys", "cspace", "surface", "curvature", "extremize", "geography")
SOURCES = sorted(Path(hsckit.__file__).resolve().parent.glob("*.py"))


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


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.stem)
def test_every_imported_name_is_used_or_exported(path):
    tree = ast.parse(path.read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, ast.Import) or isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    module = importlib.import_module("hsckit" if path.stem == "__init__" else f"hsckit.{path.stem}")
    unused = imported - used - set(getattr(module, "__all__", ()))
    assert {name for name in unused if not (name.startswith("__") and name.endswith("__"))} == set()


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


def _records() -> list:
    """One instance of each record the numpy-free modules declare."""
    a2 = hsckit.LieType("A", 2)
    verdict = hsckit.itoh_positive(hsckit.CSpaceDescriptor(a2, 1))
    record = hsckit.SurfaceRecord("Godeaux", 1, 11, pg=0, q=0, K2=1)
    return [
        hsckit.ExtremizeConfig(),
        a2,
        hsckit.positive_roots(a2),
        verdict.descriptor,
        verdict,
        hsckit.AuditEntry(verdict),
        record,
        hsckit.check_inequality(record),
        hsckit.EinsteinFramePoint(-1.0, 0.0),
        hsckit.max_hsc_surface(hsckit.EinsteinFramePoint(-1.0, 0.0)),
    ]


@pytest.mark.parametrize("record", _records(), ids=lambda record: type(record).__name__)
def test_records_are_immutable(record):
    name = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = None


@pytest.mark.parametrize("record", _records(), ids=lambda record: type(record).__name__)
@pytest.mark.parametrize(
    "clone", [lambda r: pickle.loads(pickle.dumps(r)), copy.copy, copy.deepcopy], ids=["pickle", "copy", "deepcopy"]
)
def test_records_survive_pickle_and_copy(record, clone):
    twin = clone(record)
    assert type(twin) is type(record) and twin == record


@pytest.mark.parametrize("cls", [type(record) for record in _records()], ids=lambda cls: cls.__name__)
def test_record_constructors_take_the_fields_and_defaults(cls):
    params = inspect.signature(cls).parameters.values()
    assert [p.name for p in params] == list(cls._fields)
    assert {p.name: p.default for p in params if p.default is not p.empty} == cls._field_defaults


@pytest.mark.parametrize(
    "record, change, error",
    [
        (hsckit.ExtremizeConfig(), {"starts": 0}, ValueError),
        (hsckit.LieType("A", 2), {"rank": 0}, hsckit.InadmissibleRank),
        (hsckit.CSpaceDescriptor(hsckit.LieType("A", 2), 1), {"node": 3}, hsckit.NodeOutOfRange),
        (hsckit.EinsteinFramePoint(-1.0, 0.0), {"A": -5.0}, hsckit.FrameConstraintViolated),
        (hsckit.SurfaceRecord("Godeaux", 1, 11), {"c1sq": 1.5}, ValueError),
    ],
    ids=lambda value: type(value).__name__ if isinstance(value, tuple) else None,
)
def test_replace_checks_as_the_constructor_does(record, change, error):
    with pytest.raises(error):
        record._replace(**change)


def test_replace_notes_a_noether_mismatch():
    record = hsckit.SurfaceRecord("Godeaux", 1, 11, pg=0, q=0, K2=1)._replace(c2=12, flags=[])
    assert record.flags == ("noether-mismatch: stated (c1sq=1, c2=12) vs completion from (pg=0, q=0, K2=1) -> (c1sq=1, c2=11)",)


def quickstart_script(readme: str) -> str:
    """The README's Library quickstart block as a script: a line commented
    ``# True`` or ``# False`` asserts that value, and one commented ``# ==
    expr`` asserts that it is close to expr."""
    block = readme.split("## Library quickstart", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = ["import math"]
    for line in block.splitlines():
        code, _, comment = (part.strip() for part in line.partition("  # "))
        if comment in ("True", "False"):
            line = f"assert ({code}) is {comment}, {code!r}"
        elif comment.startswith("== "):
            line = f"assert math.isclose({code}, {comment[3:]}, rel_tol=1e-9, abs_tol=1e-9), {code!r}"
        lines.append(line)
    return "\n".join(lines) + "\n"


def test_readme_quickstart_runs():
    root = Path(__file__).resolve().parent.parent
    script = quickstart_script((root / "README.md").read_text())
    assert script.count("\nassert ") == 3, script
    src = Path(hsckit.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True,
        env=dict(os.environ, PYTHONPATH=path), timeout=120,
    )
    assert (proc.returncode, proc.stderr) == (0, ""), script
