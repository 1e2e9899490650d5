"""CLI boundary fuzzing: every argv either succeeds with schema-valid output,
or fails with a named error (exit 1) or a usage error (exit 2), and stdout
stays empty on failure."""

from __future__ import annotations

import contextlib
import io
import json
import re
import tempfile
from pathlib import Path

import jsonschema
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from hsckit.cli import dispatch, schema_text
from hsckit.rootsys import FAMILIES

EXTREMES = [0.0, -0.0, 0.25, 5e-324, 1e-300, 1.1e154, 1e200, -1e200, 1e308, -1e308]
BAD_TENSORS = [
    [1],
    {"entries": []},
    {"n": 0, "entries": []},
    {"n": 10**6, "entries": []},
    {"n": "2", "entries": []},
    {"n": True, "entries": []},
    {"n": 2, "entries": 5},
    {"n": 2, "entries": [{"i": 0}]},
    {"n": 2, "entries": [{"i": 0, "j": 0, "k": 0, "l": 2, "re": 1.0}]},
    {"n": 2, "entries": [{"i": 0, "j": 0, "k": 0, "l": 0, "re": "1"}]},
    {"n": 2, "entries": [{"i": 0, "j": 0, "k": 1, "l": 1, "re": 1.0}, {"i": 1, "j": 1, "k": 0, "l": 0, "re": 1.0}]},
]
BAD_SURFACES = [{}, 3, [1], [{"c1sq": 1, "c2": 2}], [{"name": "a", "c1sq": "7", "c2": 3}], [{"name": "a", "flags": "x"}]]


def mostly(good, *bad):
    """good three times in four, else one of the bad values."""
    return st.one_of(good, good, good, st.sampled_from(bad))


number_texts = mostly(st.one_of(st.floats(-10, 10), st.sampled_from(EXTREMES)).map(repr), "nan", "inf", "x")


@st.composite
def tensor_payloads(draw):
    n = draw(st.integers(1, 4))
    index = st.integers(0, n - 1)
    entry = st.fixed_dictionaries(
        {key: index for key in "ijkl"} | {"re": st.floats(-10, 10)}, optional={"im": st.floats(-10, 10)}
    )
    # entries whose indices share a multiset may share an orbit, which is an error
    orbit_key = lambda e: tuple(sorted(e[key] for key in "ijkl"))  # noqa: E731
    entries = draw(st.lists(entry, max_size=4, unique_by=orbit_key))
    if entries and draw(st.booleans()):
        entries[0][draw(st.sampled_from(["re", "im"]))] = draw(st.sampled_from(EXTREMES))
    return draw(mostly(st.just({"n": n, "entries": entries}), *BAD_TENSORS))


@st.composite
def surface_payloads(draw):
    record = st.fixed_dictionaries(
        {"name": st.just("a")},
        optional={key: st.one_of(st.none(), st.integers(-5, 60)) for key in ("c1sq", "c2", "pg", "q", "K2")}
        | {"flags": st.just(["note"]), "source": st.just("s")},
    )
    return draw(mostly(st.lists(record, max_size=4), *BAD_SURFACES))


@st.composite
def argvs(draw):
    """An argv over all 9 subcommands, plus the files it names."""
    files: dict[str, object] = {}
    command = draw(st.sampled_from([
        "cspace roots", "cspace classify", "surface analyze", "tensor validate", "tensor extremize",
        "geography check", "geography blowup", "geography scan-horikawa", "geography plotdata",
    ]))
    argv = command.split()
    family = st.sampled_from([*FAMILIES, "Z"])
    if command == "cspace roots":
        argv += ["--family", draw(family), "--rank", str(draw(st.integers(-1, 9)))]
    elif command == "cspace classify":
        rank = draw(st.integers(-1, 9))
        argv += ["--family", draw(family), "--rank", str(rank)]
        if draw(st.booleans()):
            argv += [f"--node={draw(st.integers(-1, rank + 1))}"]
        if draw(st.booleans()):
            argv += ["--audit"]
    elif command == "surface analyze":
        argv += [f"--H={draw(number_texts)}", f"--A={draw(number_texts)}"]
        if draw(st.booleans()):
            argv += [f"--B-re={draw(number_texts)}", f"--B-im={draw(number_texts)}"]
    elif command.startswith("tensor"):
        files["tensor.json"] = draw(tensor_payloads())
        argv += ["--input", "{dir}/tensor.json"]
        if command == "tensor validate" and draw(st.booleans()):
            argv += [f"--tolerance={draw(mostly(st.sampled_from(['0', '1e-9', '0.5']), '-1', 'nan'))}"]
        if command == "tensor extremize":
            argv += [
                f"--starts={draw(mostly(st.integers(1, 4), 0))}",
                f"--max-iters={draw(mostly(st.integers(1, 50), 0))}",
                f"--seed={draw(mostly(st.integers(0, 3), -1))}",
                f"--oracle-samples={draw(mostly(st.sampled_from([0, 1, 1000]), -1))}",
            ]
    elif command == "geography blowup":
        ints = st.one_of(st.integers(-20, 20), st.sampled_from([10**30, -(10**30)]))
        argv += [f"--c1sq={draw(ints)}", f"--c2={draw(ints)}", f"--k={draw(ints)}"]
    elif command == "geography scan-horikawa":
        lo = draw(st.integers(-2, 100))
        argv += ["--pg", draw(st.sampled_from([f"{lo}..{lo + draw(st.integers(-3, 49))}", str(lo), "a..b"]))]
    else:  # check and plotdata read a surface file or the catalog
        if draw(st.booleans()):
            files["surfaces.json"] = draw(surface_payloads())
            argv += ["--input", "{dir}/surfaces.json"]
        elif command == "geography check":
            argv += ["--builtin"]
    argv += ["--format", draw(st.sampled_from(["json", "tsv"]))]
    if draw(st.integers(0, 19)) == 0:
        argv.insert(draw(st.integers(0, len(argv))), "--bogus")
    return command, argv, files


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would precede any error line
@settings(max_examples=200, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(argvs())
@example(("tensor validate", ["tensor", "validate", "--input", "{dir}/t.json"], {"t.json": {"n": 2, "entries": 5}}))
@example(("tensor validate", ["tensor", "validate", "--input", "{dir}/t.json"], {"t.json": "[" * 100_000}))
@example(("geography check", ["geography", "check", "--input", "{dir}/s.json"], {"s.json": "[" * 100_000}))
def test_dispatch_exits_cleanly(case):
    command, argv, files = case
    with tempfile.TemporaryDirectory() as tmp:
        for name, payload in files.items():
            # a str is the file's raw text, anything else is encoded as JSON
            Path(tmp, name).write_text(payload if isinstance(payload, str) else json.dumps(payload))
        argv = [part.format(dir=tmp) for part in argv]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = dispatch(argv)
    out, err = out.getvalue(), err.getvalue()
    assert "Traceback" not in err
    if code == 0:
        if "tsv" not in argv:
            envelope = json.loads(out)
            jsonschema.validate(envelope, json.loads(schema_text("envelope")))
            jsonschema.validate(envelope["payload"], json.loads(schema_text(command)))
        else:
            assert out.startswith(f"# command: {command}\n")
    else:
        assert out == ""
        if code == 1:
            assert re.match(r"[A-Z]\w*: ", err), err
        else:
            assert code == 2 and "error:" in err, (code, err)
