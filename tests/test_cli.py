"""CLI dispatch: envelopes, schemas, determinism, exit codes."""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
from dataclasses import asdict, fields
from pathlib import Path

import jsonschema
import numpy as np
import pytest

import hsckit
from hsckit import (
    EinsteinFramePoint,
    ExtremizeConfig,
    KahlerCurvatureTensor,
    assemble_einstein_surface,
    constant_hsc_tensor,
    extremize_hsc,
    tensor_to_dict,
)
from hsckit.cli import SCHEMAS, build_parser, dispatch, schema_text

from helpers import random_kahler_tensor


def run_json(capsys, argv):
    code = dispatch(argv)
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


def validate_payload(command: str, payload) -> None:
    jsonschema.validate(payload, json.loads(schema_text(command)))


def validate_envelope(envelope) -> None:
    jsonschema.validate(envelope, json.loads(schema_text("envelope")))


def _child_env(**extra: str) -> dict:
    """The environment of a child ``python -m hsckit.cli`` that imports this checkout."""
    src = Path(hsckit.__file__).resolve().parent.parent
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


@pytest.fixture
def tensor_file(tmp_path):
    T = assemble_einstein_surface(EinsteinFramePoint(-1.0, 0.25, 0.5))
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(tensor_to_dict(T)))
    return path


def test_cspace_roots_envelope_and_schema(capsys):
    code, envelope = run_json(capsys, ["cspace", "roots", "--family", "G", "--rank", "2"])
    assert code == 0
    validate_envelope(envelope)
    validate_payload("cspace roots", envelope["payload"])
    assert envelope["payload"]["roots"] == [
        [0, 1], [1, 0], [1, 1], [2, 1], [3, 1], [3, 2]
    ]
    assert envelope["payload"]["highest_root"] == [3, 2]


def test_cspace_classify_audit_g2(capsys):
    code, envelope = run_json(
        capsys, ["cspace", "classify", "--family", "G", "--rank", "2", "--audit"]
    )
    assert code == 0
    validate_payload("cspace classify", envelope["payload"])
    verdicts = {v["node"]: v for v in envelope["payload"]["verdicts"]}
    assert verdicts[2]["category"] == "agree-positive"
    assert verdicts[1]["category"] == "agree-negative"


def test_cspace_classify_e6_disagreement_warns(capsys):
    code, envelope = run_json(
        capsys, ["cspace", "classify", "--family", "E", "--rank", "6", "--audit"]
    )
    assert code == 0
    verdicts = {v["node"]: v for v in envelope["payload"]["verdicts"]}
    assert verdicts[4]["category"] == "disagree"
    assert verdicts[4]["evidence"]
    assert any("node 4" in w for w in envelope["warnings"])


def test_cspace_classify_node_filter(capsys):
    code, envelope = run_json(
        capsys, ["cspace", "classify", "--family", "A", "--rank", "3", "--node", "2"]
    )
    assert code == 0
    assert [v["node"] for v in envelope["payload"]["verdicts"]] == [2]
    assert dispatch(["cspace", "classify", "--family", "A", "--rank", "3", "--node", "4"]) == 1
    assert capsys.readouterr().err.startswith("NodeOutOfRange: node 4 out of range 1..3 for A3")


def test_surface_analyze_zero_point(capsys):
    code, envelope = run_json(
        capsys,
        ["surface", "analyze", "--H", "0", "--A", "0", "--B-re", "0", "--B-im", "0"],
    )
    assert code == 0
    validate_payload("surface analyze", envelope["payload"])
    payload = envelope["payload"]
    assert (payload["min_hsc"], payload["max_hsc"]) == (0.0, 0.0)
    assert (payload["gamma1"], payload["gamma2"]) == (0.0, 0.0)
    assert payload["sufficient_negative"] is None
    assert envelope["warnings"]


def test_surface_analyze_negative_case(capsys):
    code, envelope = run_json(
        capsys, ["surface", "analyze", "--H", "-1", "--A", "0.25", "--B-re", "0", "--B-im", "0"]
    )
    assert code == 0
    payload = envelope["payload"]
    assert payload["max_hsc"] == pytest.approx(-0.25)
    assert payload["negative"] is True
    assert payload["gamma1"] == pytest.approx(-0.75)


def test_tensor_validate(capsys, tensor_file):
    code, envelope = run_json(capsys, ["tensor", "validate", "--input", str(tensor_file)])
    assert code == 0
    validate_payload("tensor validate", envelope["payload"])
    assert envelope["payload"]["ok"] is True


def test_tensor_extremize_with_oracle(capsys, tensor_file):
    argv = [
        "tensor", "extremize", "--input", str(tensor_file),
        "--starts", "8", "--seed", "42", "--oracle-samples", "20000",
    ]
    code, envelope = run_json(capsys, argv)
    assert code == 0
    validate_payload("tensor extremize", envelope["payload"])
    payload = envelope["payload"]
    assert payload["min_value"] == pytest.approx(-1.0, abs=1e-6)
    assert payload["max_value"] == pytest.approx(
        max(-1.0 + 0.5 * (2 * 0.25 + 1.0 + 0.5), -1.0), abs=1e-6
    )
    assert payload["oracle_min"] >= payload["min_value"] - 1e-9


@pytest.mark.parametrize("n", [1, 2, 4])
def test_zero_tensor_extremes_are_positive_zero(capsys, tmp_path, n):
    # the minimum is reported as 0.0 - (maximum of -f), never as -0.0
    res = extremize_hsc(KahlerCurvatureTensor(np.zeros((n,) * 4)), ExtremizeConfig(starts=4))
    assert math.copysign(1.0, res.min_value) == math.copysign(1.0, res.max_value) == 1.0
    path = tmp_path / "zero.json"
    path.write_text(json.dumps({"n": n, "entries": []}))
    assert dispatch(["tensor", "extremize", "--input", str(path)]) == 0
    out = capsys.readouterr().out
    assert '"min_value": 0.0,' in out and '"max_value": 0.0,' in out


def test_byte_identical_reruns(capsys, tensor_file):
    argv = [
        "tensor", "extremize", "--input", str(tensor_file),
        "--starts", "8", "--seed", "7", "--oracle-samples", "5000",
    ]
    assert dispatch(argv) == 0
    first = capsys.readouterr().out
    assert dispatch(argv) == 0
    second = capsys.readouterr().out
    assert first == second


@pytest.mark.parametrize("n", [3, 6, 10])
def test_extremize_reruns_are_byte_identical_per_blas_thread_count(tmp_path, n):
    # identity holds within one thread count; across counts the BLAS may
    # sum in another order
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(tensor_to_dict(random_kahler_tensor(n, seed=n))))
    argv = [sys.executable, "-m", "hsckit.cli", "tensor", "extremize", "--input", str(path), "--starts", "64"]
    for threads in ("1", "2"):
        env = _child_env(OPENBLAS_NUM_THREADS=threads)
        first, second = (subprocess.run(argv, capture_output=True, env=env, timeout=120) for _ in range(2))
        assert first.returncode == 0, first.stderr
        assert first.stdout and first.stdout == second.stdout


def test_extremize_warns_when_one_start_reaches_a_side(capsys, tensor_file):
    code, envelope = run_json(capsys, ["tensor", "extremize", "--input", str(tensor_file), "--starts", "1"])
    assert code == 0
    payload = envelope["payload"]
    validate_payload("tensor extremize", payload)
    assert (payload["min_starts_at_best"], payload["max_starts_at_best"]) == (1, 1)
    assert envelope["warnings"] == [
        "the minimum was reached by only one of 1 starts",
        "the maximum was reached by only one of 1 starts",
    ]
    code, envelope = run_json(capsys, ["tensor", "extremize", "--input", str(tensor_file), "--starts", "8"])
    assert code == 0
    assert min(envelope["payload"]["min_starts_at_best"], envelope["payload"]["max_starts_at_best"]) > 1
    assert envelope["warnings"] == []
    # only the axis start e_3 reaches the first minimum, and only the last
    # random start the second: a real tensor, where a start and its
    # conjugate would tie and hide the warning
    real = KahlerCurvatureTensor(np.random.default_rng(1).standard_normal((4,) * 4))
    for tensor in (random_kahler_tensor(4, seed=62), real):
        tensor_file.write_text(json.dumps(tensor_to_dict(tensor)))
        argv = ["tensor", "extremize", "--input", str(tensor_file), "--starts", "8", "--seed", "0"]
        code, envelope = run_json(capsys, argv)
        assert code == 0
        assert envelope["payload"]["min_starts_at_best"] == 1
        assert envelope["warnings"] == ["the minimum was reached by only one of 8 starts"]


def test_extremize_warns_when_not_converged(capsys, tmp_path, monkeypatch):
    monkeypatch.setattr("hsckit.extremize._MAX_ITERS", 1)
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(tensor_to_dict(random_kahler_tensor(4, seed=3))))
    code, envelope = run_json(capsys, ["tensor", "extremize", "--input", str(path), "--starts", "8"])
    assert code == 0
    payload = envelope["payload"]
    validate_payload("tensor extremize", payload)
    assert envelope["warnings"][0] == "optimizer did not converge; values are best-so-far"
    assert payload["min_capped"] == payload["max_capped"] == 8
    assert payload["min_converged"] is False and payload["max_converged"] is False


def test_geography_check_builtin(capsys):
    code, envelope = run_json(capsys, ["geography", "check", "--builtin"])
    assert code == 0
    validate_payload("geography check", envelope["payload"])
    verdicts = envelope["payload"]["verdicts"]
    assert len(verdicts) == 9
    assert all(v["passes"] is False for v in verdicts)
    assert any("noether-mismatch" in w for w in envelope["warnings"])


def test_geography_check_input_file(capsys, tmp_path):
    path = tmp_path / "surfaces.json"
    path.write_text(
        json.dumps([{"name": "ball", "c1sq": 9, "c2": 3, "source": "test", "flags": []}])
    )
    code, envelope = run_json(capsys, ["geography", "check", "--input", str(path)])
    assert code == 0
    assert envelope["payload"]["verdicts"][0]["passes"] is True


def test_geography_blowup(capsys):
    code, envelope = run_json(
        capsys, ["geography", "blowup", "--c1sq", "9", "--c2", "3", "--k", "2"]
    )
    assert code == 0
    validate_payload("geography blowup", envelope["payload"])
    assert envelope["payload"]["result"] == {"c1sq": 7, "c2": 5}


def test_geography_scan_horikawa(capsys):
    code, envelope = run_json(capsys, ["geography", "scan-horikawa", "--pg", "3..10"])
    assert code == 0
    validate_payload("geography scan-horikawa", envelope["payload"])
    assert all(v["passes"] is False for v in envelope["payload"]["verdicts"])


def test_geography_plotdata(capsys):
    code, envelope = run_json(capsys, ["geography", "plotdata"])
    assert code == 0
    validate_payload("geography plotdata", envelope["payload"])
    assert len(envelope["payload"]["rows"]) == 9


def test_usage_error_exit_2(capsys, tensor_file):
    assert dispatch(["cspace", "roots", "--family", "Z", "--rank", "2"]) == 2
    assert dispatch(["nonsense"]) == 2
    assert dispatch([]) == 2
    capsys.readouterr()
    assert dispatch(["tensor", "extremize", "--input", str(tensor_file), "--tolerance", "0.5"]) == 2
    assert "error:" in capsys.readouterr().err


def test_domain_error_exit_1(capsys):
    assert dispatch(["cspace", "roots", "--family", "B", "--rank", "1"]) == 1
    err = capsys.readouterr().err
    assert "InadmissibleRank" in err


@pytest.mark.parametrize("command", ["roots", "classify"])
def test_rank_ceiling_is_not_settable(capsys, command):
    argv = ["cspace", command, "--family", "A", "--rank", "13"]
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("InadmissibleRank: ")
    assert captured.out == ""
    assert dispatch([*argv, "--max-rank", "13"]) == 2
    assert "error:" in capsys.readouterr().err


def test_max_iters_is_not_settable(capsys, tensor_file):
    assert dispatch(["tensor", "extremize", "--input", str(tensor_file), "--max-iters", "5"]) == 2
    captured = capsys.readouterr()
    assert "unrecognized arguments: --max-iters" in captured.err
    assert captured.out == ""


def test_frame_constraint_error_exit_1(capsys):
    code = dispatch(["surface", "analyze", "--H", "0", "--A", "-1"])
    assert code == 1
    assert "FrameConstraintViolated" in capsys.readouterr().err


def test_output_file(tmp_path, capsys):
    out = tmp_path / "result.json"
    code = dispatch(
        ["geography", "blowup", "--c1sq", "1", "--c2", "11", "--k", "1", "--output", str(out)]
    )
    assert code == 0
    assert capsys.readouterr().out == ""
    envelope = json.loads(out.read_text())
    assert envelope["payload"]["result"] == {"c1sq": 0, "c2": 12}


def test_tsv_format_roots(capsys):
    code = dispatch(["cspace", "roots", "--family", "A", "--rank", "2", "--format", "tsv"])
    assert code == 0
    out = capsys.readouterr().out
    lines = out.strip().splitlines()
    assert lines[0] == "# command: cspace roots"
    assert "0\t1" in lines and "1\t1" in lines


def run_tsv(capsys, argv):
    assert dispatch([*argv, "--format", "tsv"]) == 0
    return capsys.readouterr().out.splitlines()


@pytest.mark.parametrize(
    "argv, header, first_row",
    [
        (
            ["cspace", "classify", "--family", "G", "--rank", "2"],
            "family\trank\tnode\tmax_level\tpositive\tcensus\tevidence",
            "G\t2\t1\t3\tFalse\t1:2,2:1,3:2\t3,1;3,2",
        ),
        (
            ["cspace", "classify", "--family", "G", "--rank", "2", "--audit"],
            "family\trank\tnode\tmax_level\tpositive\tcensus\tevidence\tpublished_positive\tcategory",
            "G\t2\t1\t3\tFalse\t1:2,2:1,3:2\t3,1;3,2\tFalse\tagree-negative",
        ),
        (
            ["geography", "scan-horikawa", "--pg", "3"],
            "name\tc1sq\tc2\tpasses\tmargin",
            "Horikawa (pg=3, K2=2(pg-2))\t2\t46\tFalse\t-40",
        ),
        (["geography", "plotdata"], "name\tc1sq\tc2\tline_c2", "Barlow\t1\t11\t3"),
    ],
)
def test_tsv_columns(capsys, argv, header, first_row):
    lines = run_tsv(capsys, argv)
    assert lines[:4] == [
        f"# command: {argv[0]} {argv[1]}",
        f"# version: {hsckit.__version__}",
        f"# columns: {header}",
        first_row,
    ]


def test_tsv_flattens_scalar_payloads(capsys):
    lines = run_tsv(capsys, ["surface", "analyze", "--H", "-1", "--A", "0.25", "--B-re", "0.5"])
    assert lines == [
        "# command: surface analyze",
        f"# version: {hsckit.__version__}",
        "A\t0.25",
        "B.im\t0.0",
        "B.re\t0.5",
        "H\t-1.0",
        "einstein_constant\t-0.75",
        "gamma1\t-0.75",
        "gamma2\t0.6875",
        "max_hsc\t0.0",
        "min_hsc\t-1.0",
        "negative\tFalse",
        "sufficient_negative\tFalse",
    ]


def test_tsv_format_geography(capsys):
    code = dispatch(["geography", "check", "--builtin", "--format", "tsv"])
    assert code == 0
    out = capsys.readouterr().out
    assert "Barlow\t1\t11\tFalse\t-8" in out


def test_every_subcommand_has_a_schema():
    commands = {
        "cspace roots", "cspace classify", "surface analyze",
        "tensor validate", "tensor extremize",
        "geography check", "geography blowup",
        "geography scan-horikawa", "geography plotdata", "envelope",
    }
    assert set(SCHEMAS) == commands
    for command in commands:
        schema = json.loads(schema_text(command))
        jsonschema.Draft202012Validator.check_schema(schema)


def test_tensor_validate_warning_names_tolerance(capsys, tmp_path):
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps({"n": 1, "entries": [{"i": 0, "j": 0, "k": 0, "l": 0, "re": -1.0, "im": 0.5}]}))
    code, envelope = run_json(capsys, ["tensor", "validate", "--input", str(path)])
    assert code == 0
    assert envelope["warnings"] == [
        "canonicalization adjusted stated entries by 0.5 (tolerance 1e-09)"
    ]


def test_extremize_flags_match_config():
    flags = {"starts": "--starts", "seed": "--seed", "oracle_samples": "--oracle-samples"}
    assert list(flags) == [field.name for field in fields(ExtremizeConfig)]
    parser = build_parser()
    args = parser.parse_args(["tensor", "extremize", "--input", "x"])
    assert {name: getattr(args, name) for name in flags} == asdict(ExtremizeConfig())
    for name, flag in flags.items():
        args = parser.parse_args(["tensor", "extremize", "--input", "x", flag, "7"])
        assert getattr(args, name) == 7


@pytest.mark.parametrize(
    "argv, error",
    [
        (["surface", "analyze", "--H", "nan", "--A", "0.25"], "ValueError"),
        (["surface", "analyze", "--H", "-1", "--A", "inf"], "ValueError"),
        (["geography", "scan-horikawa", "--pg", "5..3"], "ValueError"),
    ],
)
def test_bad_numbers_exit_1(capsys, argv, error):
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"{error}: ")
    assert captured.out == ""


def test_non_finite_tensor_entry_exit_1(capsys, tmp_path):
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps({"n": 2, "entries": [{"i": 0, "j": 0, "k": 0, "l": 0, "re": float("nan")}]}))
    for command in ("validate", "extremize"):
        assert dispatch(["tensor", command, "--input", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("TensorFormatError: ")
        assert captured.out == ""


ENTRY = {"i": 0, "j": 0, "k": 0, "l": 0, "re": -1.0}


@pytest.mark.parametrize("command", ["validate", "extremize"])
@pytest.mark.parametrize(
    "payload, message",
    [
        ({"n": 2.7, "entries": []}, "field 'n' must be an integer, got 2.7"),
        ({"n": True, "entries": []}, "field 'n' must be an integer, got True"),
        ({"n": 2, "entries": [{**ENTRY, "i": 0.5}]}, "field 'i' must be an integer, got 0.5"),
        ({"n": 2, "entries": [{**ENTRY, "re": "-1.5"}]}, "field 're' must be a number, got '-1.5'"),
        ({"n": 2, "entries": [{**ENTRY, "re": True}]}, "field 're' must be a number, got True"),
    ],
)
def test_mistyped_tensor_field_exit_1(capsys, tmp_path, command, payload, message):
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps(payload))
    assert dispatch(["tensor", command, "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("TensorFormatError: ")
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["validate"])
@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
def test_bad_tolerance_exit_1(capsys, tensor_file, command, tolerance):
    argv = ["tensor", command, "--input", str(tensor_file), f"--tolerance={tolerance}"]
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("ValueError: tolerance must be finite and >= 0")
    assert captured.out == ""


def test_python_m_runs_the_cli():
    proc = subprocess.run(
        [sys.executable, "-m", "hsckit.cli", "geography", "blowup", "--c1sq", "9", "--c2", "3", "--k", "2"],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    envelope = json.loads(proc.stdout)
    validate_envelope(envelope)
    assert envelope["command"] == "geography blowup"
    assert envelope["payload"]["result"] == {"c1sq": 7, "c2": 5}


@pytest.mark.parametrize(
    "argv",
    [
        ["surface", "analyze", "--H", "-1e-3", "--A", "0.5"],
        ["surface", "analyze", "--H", "-1", "--A", "0", "--B-im", "-2.5e-17"],  # the repr of a tiny float
        ["geography", "blowup", "--c1sq", "-5", "--c2", "3", "--k", "2"],
    ],
)
def test_negative_flag_values_read_as_values(capsys, argv):
    # argparse before Python 3.13 takes "-1e-3" for an option unless joined by "="
    joined = _join_flag_values(argv)
    assert dispatch(joined) == 0
    expected = capsys.readouterr().out
    assert dispatch(argv) == 0
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize(
    "argv",
    [
        ["surface", "analyze", "--H", "-inf", "--A", "0"],
        ["surface", "analyze", "--H", "-Infinity", "--A", "0"],
        ["surface", "analyze", "--H", "-1", "--A", "-NaN"],
        ["surface", "analyze", "--H", "-1", "--A", "0", "--B-im", "-INF"],
        ["surface", "analyze", "--H", "-1", "--A", "0", "--B-re", "-nan"],
    ],
)
def test_non_finite_flag_values_reach_the_runner(capsys, argv):
    # in any case, and with or without "=", they fail the frame check rather than the parser
    assert dispatch(_join_flag_values(argv)) == 1
    expected = capsys.readouterr()
    assert "ValueError: frame data must be finite" in expected.err
    assert dispatch(argv) == 1
    assert capsys.readouterr() == expected


def _join_flag_values(argv):
    return argv[:2] + [f"{flag}={value}" for flag, value in zip(argv[2::2], argv[3::2])]


NUMPY_FREE_COMMANDS = [
    ["cspace", "roots", "--family", "E", "--rank", "8"],
    ["cspace", "classify", "--family", "E", "--rank", "6", "--audit"],
    ["geography", "check", "--builtin"],
    ["geography", "blowup", "--c1sq", "9", "--c2", "3", "--k", "2"],
    ["geography", "scan-horikawa", "--pg", "3..20"],
    ["geography", "plotdata", "--format", "tsv"],
    ["surface", "analyze", "--H", "-1", "--A", "0.25", "--B-re", "0.1", "--B-im", "-0.2"],
    ["surface", "analyze", "--H", "-1", "--A", "0", "--B-re", "1", "--format", "tsv"],
]


def test_importing_the_cli_leaves_numpy_unloaded():
    script = "import sys, hsckit, hsckit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_cli_namespace_finds_public_names_as_the_package_does():
    assert hsckit.cli.validate is hsckit.validate
    assert hsckit.cli.extremize_hsc is hsckit.extremize.extremize_hsc
    # a dunder probe misses without loading a module
    script = (
        "import sys, hsckit.cli; print(hasattr(hsckit.cli, '__path__'), "
        "sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, env=_child_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False []\n"


@pytest.mark.parametrize("argv", NUMPY_FREE_COMMANDS, ids=lambda argv: "-".join(argv[:2]))
def test_cspace_and_geography_commands_run_without_numpy(capsys, argv):
    # a None entry in sys.modules makes every later "import numpy" raise ImportError
    script = "import sys; sys.modules['numpy'] = None; from hsckit.cli import main; main()"
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, env=_child_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert dispatch(argv) == 0
    assert proc.stdout == capsys.readouterr().out.encode()


# one argv per subcommand, then the two domain errors, each with its exit code
# and the hsckit modules it runs; errors is loaded by every command
COMMAND_MODULES = [
    (["cspace", "roots", "--family", "E", "--rank", "8"], 0, {"rootsys"}),
    (["cspace", "classify", "--family", "E", "--rank", "6", "--audit"], 0, {"rootsys", "cspace"}),
    (["surface", "analyze", "--H", "-1", "--A", "0.25", "--B-re", "0.1"], 0, {"surface"}),
    (["tensor", "validate", "--input", "{tensor}"], 0, {"surface", "curvature"}),
    (["tensor", "extremize", "--input", "{tensor}", "--starts", "4"], 0, {"surface", "curvature", "extremize"}),
    (["geography", "check", "--builtin"], 0, {"geography"}),
    (["geography", "blowup", "--c1sq", "9", "--c2", "3", "--k", "2"], 0, {"geography"}),
    (["geography", "scan-horikawa", "--pg", "3..20"], 0, {"geography"}),
    (["geography", "plotdata", "--format", "tsv"], 0, {"geography"}),
    (["cspace", "classify", "--family", "A", "--rank", "3", "--node", "4"], 1, {"rootsys", "cspace"}),
    (["cspace", "roots", "--family", "E", "--rank", "5"], 1, {"rootsys"}),
]


@pytest.mark.parametrize(
    "argv, code, needed", COMMAND_MODULES, ids=[f"{argv[0]}-{argv[1]}-exit{code}" for argv, code, _ in COMMAND_MODULES]
)
def test_each_command_loads_only_the_modules_it_runs(capsys, tensor_file, argv, code, needed):
    argv = [str(tensor_file) if part == "{tensor}" else part for part in argv]
    # a None entry in sys.modules makes every later import of that module raise ImportError
    blocked = [f"hsckit.{m}" for m in hsckit._MODULES if m not in needed | {"errors"}]
    script = f"import sys; sys.modules.update(dict.fromkeys({blocked})); from hsckit.cli import main; main()"
    proc = subprocess.run(
        [sys.executable, "-c", script, *argv], capture_output=True, env=_child_env(), timeout=60
    )
    assert dispatch(argv) == code
    expected = capsys.readouterr()
    assert (proc.returncode, proc.stdout.decode(), proc.stderr.decode()) == (code, expected.out, expected.err)


def test_importing_the_cli_loads_only_its_own_modules():
    # -S skips site, whose .pth files may import importlib.resources first
    script = "import sys, hsckit.cli; print(sorted(m for m in sys.modules if m.startswith(('hsckit.', 'numpy', 'importlib.resources'))))"
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=_child_env(), timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['hsckit._config', 'hsckit.cli', 'hsckit.errors']\n"


HUGE_TENSOR ={"n": 2, "entries": [{"i": 0, "j": 0, "k": 0, "l": 0, "re": 1e308}]}
# the stated value breaks the Hermitian relation by 2e308, beyond the float range
HUGE_VIOLATION = {"n": 2, "entries": [{"i": 0, "j": 0, "k": 1, "l": 1, "re": 1.0, "im": 1e308}]}


@pytest.mark.filterwarnings("error")  # a numpy RuntimeWarning would precede the error line
@pytest.mark.parametrize("fmt", ["json", "tsv"])
@pytest.mark.parametrize(
    "argv, error",
    [
        pytest.param(
            ["surface", "analyze", "--H=-1e200", "--A=1e200"],  # H**2 overflows
            "ValueError: frame data too large: gamma2 overflows at H=-1e+200, A=1e+200, B=0j",
            id="argv0-ValueError",
        ),
        (["surface", "analyze", "--H", "0", "--A", "1.1e154"], "ValueError"),  # gamma2 = inf
        pytest.param(
            ["tensor", "validate", "--input", "{violation}"],  # magnitude = inf
            "ValueError: hermitian violation at orbit (0, 0, 1, 1) exceeds the float range",
            id="argv2-ValueError",
        ),
        (["tensor", "extremize", "--input", "{huge}"], "FloatingPointError"),
        pytest.param(
            ["surface", "analyze", "--H", "1e200", "--A", "1e200"],
            "ValueError: frame data too large: gamma2 overflows at H=1e+200, A=1e+200, B=0j",
            id="argv4-ValueError",
        ),
        pytest.param(
            ["surface", "analyze", "--H", "0", "--A", "1", "--B-re", "1.5e308", "--B-im", "1.5e308"],  # |B| = inf
            "ValueError: frame data too large: |B| overflows at H=0.0, A=1.0, B=(1.5e+308+1.5e+308j)",
            id="argv5-ValueError",
        ),
    ],
)
def test_overflow_exits_1_with_named_error(capsys, tmp_path, argv, error, fmt):
    files = {"huge": HUGE_TENSOR, "violation": HUGE_VIOLATION}
    for name, payload in files.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(payload))
    argv = [part.format(**{name: tmp_path / f"{name}.json" for name in files}) for part in argv]
    assert dispatch([*argv, "--format", fmt]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(error if ": " in error else f"{error}: ")
    assert captured.out == ""


@pytest.mark.parametrize("oracle", [[], ["--oracle-samples", "100"]])
@pytest.mark.parametrize("scale, code", [(1e308, 1), (1e150, 0)])
def test_huge_extremize_prints_only_the_error_line(tmp_path, scale, code, oracle):
    # folding the quartic matrix sums entries, so at 1e308 it overflows; that
    # must raise inside the overflow guard, not warn on the way to the error
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(tensor_to_dict(KahlerCurvatureTensor(constant_hsc_tensor(2, 1.0).array * scale))))
    proc = subprocess.run(
        [sys.executable, "-m", "hsckit.cli", "tensor", "extremize", "--input", str(path), "--starts", "4", *oracle],
        capture_output=True, text=True, env=_child_env(), timeout=60,
    )
    assert proc.returncode == code
    if code:
        assert proc.stdout == ""
        assert len(proc.stderr.splitlines()) == 1 and proc.stderr.startswith("FloatingPointError: ")
    else:
        assert proc.stderr == ""
        validate_payload("tensor extremize", json.loads(proc.stdout)["payload"])


@pytest.mark.filterwarnings("error")
def test_huge_finite_tensor_validates(capsys, tmp_path):
    huge = tmp_path / "huge.json"
    huge.write_text(json.dumps(HUGE_TENSOR))
    code, envelope = run_json(capsys, ["tensor", "validate", "--input", str(huge)])
    assert code == 0
    assert envelope["payload"]["ok"] is True
    assert envelope["payload"]["asymmetry"] == 0.0


def test_tensor_validate_checks_stated_entries(capsys, tmp_path):
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps({"n": 2, "entries": [{"i": 0, "j": 0, "k": 1, "l": 1, "re": 1.0, "im": 0.4}]}))
    code, envelope = run_json(capsys, ["tensor", "validate", "--input", str(path)])
    assert code == 0
    payload = envelope["payload"]
    validate_payload("tensor validate", payload)
    assert payload["asymmetry"] == pytest.approx(0.4)
    assert payload["ok"] is False
    assert payload["violations"] == [
        {"relation": "hermitian", "indices": [0, 0, 1, 1], "magnitude": pytest.approx(0.8)}
    ]
    assert envelope["warnings"] == ["canonicalization adjusted stated entries by 0.4 (tolerance 1e-09)"]


def test_tensor_tsv_rows_hold_json_lists(capsys, tmp_path):
    path = tmp_path / "tensor.json"
    path.write_text(json.dumps({"n": 2, "entries": [{"i": 0, "j": 0, "k": 1, "l": 1, "re": 1.0, "im": 0.4}]}))
    lines = run_tsv(capsys, ["tensor", "validate", "--input", str(path)])
    assert 'violations\t[{"relation": "hermitian", "indices": [0, 0, 1, 1], "magnitude": 0.8}]' in lines
    argv = ["tensor", "extremize", "--input", str(path), "--starts", "8"]
    rows = dict(line.split("\t") for line in run_tsv(capsys, argv) if not line.startswith("#"))
    _, envelope = run_json(capsys, argv)
    for side in ("argmin", "argmax"):
        pairs = json.loads(rows[side])
        assert [len(pair) for pair in pairs] == [2, 2]
        assert pairs == envelope["payload"][side]


@pytest.mark.parametrize(
    "argv, error",
    [
        (["geography", "scan-horikawa", "--pg", "3..100000000"], "ValueError: pg range 3..100000000"),
        (["tensor", "validate", "--input", "{big}"], "TensorFormatError: dimension n=1000000"),
        (["tensor", "extremize", "--input", "{big}"], "TensorFormatError: dimension n=1000000"),
        (["tensor", "extremize", "--input", "{small}", "--starts", "1000000000"], "ValueError: starts must be <= 4096"),
        (
            ["tensor", "extremize", "--input", "{small}", "--oracle-samples", "1000000000000"],
            "ValueError: oracle_samples must be <= 16777216",
        ),
        # at n = 2 four starts are the coordinate axes, so no random start is drawn
        (
            ["tensor", "extremize", "--input", "{small}", "--seed", "-1", "--starts", "4"],
            "ValueError: seed must be >= 0",
        ),
        (["tensor", "extremize", "--input", "{small}", "--seed", "-1"], "ValueError: seed must be >= 0"),
    ],
)
def test_size_ceilings_exit_1(capsys, tmp_path, argv, error):
    big = tmp_path / "big.json"
    big.write_text(json.dumps({"n": 10**6, "entries": []}))
    small = tmp_path / "small.json"
    small.write_text(json.dumps({"n": 2, "entries": []}))
    assert dispatch([part.format(big=big, small=small) for part in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(error)
    assert captured.out == ""


@pytest.mark.parametrize("command", ["check", "plotdata"])
@pytest.mark.parametrize(
    "records, message",
    [
        ([{"name": "a", "c1sq": "7", "c2": 3}], "field 'c1sq' must be an integer or null, got '7'"),
        ([{"name": "a", "c1sq": 7.5, "c2": 3}], "field 'c1sq' must be an integer or null, got 7.5"),
        ([{"name": "a", "c1sq": 7, "c2": True}], "field 'c2' must be an integer or null"),
        ([{"name": "a", "c1sq": 7, "c2": 3, "K2": 1.0}], "field 'K2' must be an integer or null"),
        ([{"c1sq": 7, "c2": 3}], "field 'name' must be a string, got None"),
        ([{"name": "a", "c1sq": 7, "c2": 3, "source": 1}], "field 'source' must be a string"),
        ([{"name": "a", "c1sq": 7, "c2": 3, "flags": "x"}], "field 'flags' must be a list of strings"),
        ([{"name": "a", "c1sq": 7, "c2": 3, "flags": [1]}], "field 'flags' must be a list of strings"),
        ([1, 2], "surface record must be an object, got 1"),
    ],
)
def test_bad_surface_record_exit_1(capsys, tmp_path, command, records, message):
    path = tmp_path / "surfaces.json"
    path.write_text(json.dumps(records))
    assert dispatch(["geography", command, "--input", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("ValueError: ")
    assert message in captured.err
    assert captured.out == ""


@pytest.mark.parametrize(
    "command, record, field",
    [
        ("check", {"name": "a\tb\nc", "c1sq": 1, "c2": 2}, "'a\\tb\\nc'"),
        ("check", {"name": "a", "c1sq": 1, "c2": 2, "flags": ["x\ny"]}, "'a: x\\ny'"),
        ("plotdata", {"name": "a\rb", "c1sq": 1, "c2": 2}, "'a\\rb'"),
    ],
)
def test_tsv_rejects_tabs_and_line_breaks(capsys, tmp_path, command, record, field):
    # such text would shift TSV columns or start an uncommented line; JSON escapes it
    path = tmp_path / "surfaces.json"
    path.write_text(json.dumps([record]))
    argv = ["geography", command, "--input", str(path)]
    assert dispatch([*argv, "--format", "tsv"]) == 1
    captured = capsys.readouterr()
    assert captured.err == f"ValueError: TSV field {field} holds a tab or line break; use --format json\n"
    assert captured.out == ""
    assert dispatch(argv) == 0
    assert json.loads(capsys.readouterr().out)["payload"]


def test_output_write_failure_exit_1(capsys, tmp_path):
    out = tmp_path / "missing" / "result.json"
    argv = ["geography", "blowup", "--c1sq", "1", "--c2", "11", "--k", "1", "--output", str(out)]
    assert dispatch(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("FileNotFoundError: ")
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, error",
    [
        (["tensor", "validate", "--input", "{deep}"], "TensorFormatError"),
        (["geography", "check", "--input", "{deep}"], "ValueError"),
    ],
)
def test_deeply_nested_json_exits_1_naming_the_file(capsys, tmp_path, argv, error):
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000)
    assert dispatch([part.format(deep=deep) for part in argv]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(f"{error}: {deep}: JSON nested too deeply to decode")
    assert "Traceback" not in captured.err
    assert captured.out == ""
