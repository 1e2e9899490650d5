"""Single command-line entry point for the toolkit.

One binary, one subcommand group per module:

    hsckit cspace roots|classify ...
    hsckit surface analyze ...
    hsckit tensor validate|extremize ...
    hsckit geography check|blowup|scan-horikawa|plotdata ...

Every successful run emits exactly one output envelope ``{command, version,
payload, warnings}`` (JSON) or the equivalent commented TSV.  Payload shapes
are pinned by the JSON schema files shipped in ``hsckit/schemas``.  Exit
codes: 0 success (warnings allowed), 1 domain error (printed to stderr with
the error name), 2 usage error.

Output is deterministic: identical flags and seed give byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import fields
from pathlib import Path
from typing import TYPE_CHECKING

from . import __getattr__  # hsckit.cli.<name> finds a public name as hsckit.<name> does (PEP 562)
from . import __version__
from ._config import _C2_BOUND, FAMILIES, SYMMETRY_TOL, ExtremizeConfig
from .errors import HsckitError, RegimeViolation, TensorFormatError

if TYPE_CHECKING:  # runners import the modules they use, so a process loads only those
    import numpy as np

    from .curvature import KahlerCurvatureTensor
    from .geography import GeographyVerdict, SurfaceRecord

__all__ = ["SCHEMAS", "build_parser", "dispatch", "main", "schema_text"]

# a negative number, in exponent notation too, is a flag's value and not an
# option, and so are -inf, -infinity and -nan in any case; Python before 3.13
# matches only plain decimals such as -0.5
_NEGATIVE_NUMBER = re.compile(r"-(\.?\d|(inf|infinity|nan)$)", re.IGNORECASE)


def schema_text(command: str) -> str:
    """The published JSON schema for a subcommand's payload (or 'envelope')."""
    from importlib import resources

    return resources.files("hsckit.schemas").joinpath(SCHEMAS[command]).read_text()


def build_parser() -> argparse.ArgumentParser:
    """The ``hsckit`` parser: one subparser per entry of ``_COMMANDS``."""
    parser = argparse.ArgumentParser(prog="hsckit", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"hsckit {__version__}")
    groups = parser.add_subparsers(dest="group", required=True)
    group_cmds = {
        group: groups.add_parser(group, help=text).add_subparsers(dest="command", required=True)
        for group, text in _GROUPS.items()
    }
    sub = {}
    for name, (text, _, _) in _COMMANDS.items():
        group, command = name.split(" ")
        sub[name] = group_cmds[group].add_parser(command, help=text)

    for name in ("cspace roots", "cspace classify"):
        sub[name].add_argument("--family", required=True, choices=FAMILIES)
        sub[name].add_argument("--rank", required=True, type=int)
    classify = sub["cspace classify"]
    classify.add_argument("--node", type=int, default=None, help="restrict to one node")
    classify.add_argument(
        "--audit", action="store_true", help="compare against the published classification"
    )

    analyze = sub["surface analyze"]
    analyze.add_argument("--H", required=True, type=float, help="HSC minimum R_{1 1b 1 1b}")
    analyze.add_argument("--A", required=True, type=float, help="R_{1 1b 2 2b}")
    analyze.add_argument("--B-re", dest="b_re", type=float, default=0.0, help="Re R_{1 2b 1 2b}")
    analyze.add_argument("--B-im", dest="b_im", type=float, default=0.0, help="Im R_{1 2b 1 2b}")

    for name in ("tensor validate", "tensor extremize"):
        sub[name].add_argument("--input", required=True, type=Path, help="tensor JSON file")
    sub["tensor validate"].add_argument("--tolerance", type=float, default=SYMMETRY_TOL)
    for field in fields(ExtremizeConfig):
        flag = "--" + field.name.replace("_", "-")
        sub["tensor extremize"].add_argument(flag, type=type(field.default), default=field.default)

    source = sub["geography check"].add_mutually_exclusive_group(required=True)
    source.add_argument("--builtin", action="store_true", help="use the published family catalog")
    source.add_argument("--input", type=Path, help="surface JSON file")

    blowup = sub["geography blowup"]
    blowup.add_argument("--c1sq", required=True, type=int)
    blowup.add_argument("--c2", required=True, type=int)
    blowup.add_argument("--k", required=True, type=int)

    scan = sub["geography scan-horikawa"]
    scan.add_argument("--pg", required=True, help="inclusive range, e.g. 3..20")
    plotdata = sub["geography plotdata"]
    plotdata.add_argument("--input", type=Path, help="surface JSON file (default: the catalog)")

    for subparser in sub.values():
        subparser.add_argument("--format", choices=("json", "tsv"), default="json")
        subparser.add_argument(
            "--output", type=Path, default=None, help="write to file instead of stdout"
        )
        subparser._negative_number_matcher = _NEGATIVE_NUMBER
    return parser


def _run_cspace_roots(args) -> tuple[dict, list[str]]:
    from .rootsys import LieType, highest_root, positive_roots

    lie_type = LieType(args.family, args.rank)
    rs = positive_roots(lie_type)
    payload = {
        "family": lie_type.family,
        "rank": lie_type.rank,
        "count": len(rs.positive_roots),
        "cartan": [list(row) for row in rs.cartan],
        "highest_root": list(highest_root(rs)),
        "roots": [list(r) for r in rs.positive_roots],
    }
    return payload, []


def _run_cspace_classify(args) -> tuple[dict, list[str]]:
    from .cspace import AuditEntry, CSpaceDescriptor, classify_all, itoh_positive
    from .rootsys import LieType

    lie_type = LieType(args.family, args.rank)
    if args.node is None:
        verdicts = classify_all(lie_type)
    else:
        verdicts = [itoh_positive(CSpaceDescriptor(lie_type, args.node))]
    warnings: list[str] = []
    items = []
    for verdict in verdicts:
        if not args.audit:
            items.append(verdict.to_payload())
            continue
        entry = AuditEntry(verdict)
        items.append(entry.to_payload())
        if entry.category == "disagree":
            witnesses = ", ".join(str(tuple(r)) for r in verdict.evidence)
            warnings.append(
                f"audit disagreement at ({lie_type}, node {verdict.descriptor.node}): "
                f"computed {'positive' if verdict.itoh_positive else 'negative'}, "
                f"published {'positive' if entry.published_positive else 'negative'}; "
                f"witness roots {witnesses}"
            )
    payload = {"family": lie_type.family, "rank": lie_type.rank, "verdicts": items}
    return payload, warnings


def _run_surface_analyze(args) -> tuple[dict, list[str]]:
    from .surface import EinsteinFramePoint, chern_weil, max_hsc_surface, sufficient_negativity

    point = EinsteinFramePoint(H=args.H, A=args.A, B=complex(args.b_re, args.b_im))
    gamma1, gamma2 = chern_weil(point)
    surface_max = max_hsc_surface(point)
    warnings: list[str] = []
    try:
        sufficient = sufficient_negativity(point)
    except RegimeViolation:
        sufficient = None
        warnings.append(
            "sufficiency test skipped: it requires a negative einstein constant "
            f"(gamma1 = {gamma1})"
        )
    payload = {
        "H": point.H,
        "A": point.A,
        "B": {"re": point.B.real, "im": point.B.imag},
        "min_hsc": point.H,
        "max_hsc": surface_max.value,
        "negative": surface_max.negative,
        "gamma1": gamma1,
        "gamma2": gamma2,
        "einstein_constant": point.einstein_constant,
        "sufficient_negative": sufficient,
    }
    return payload, warnings


def _parse_file(path: Path, parse, error: type[Exception]):
    """parse(text of path); JSON nested too deeply to decode raises error,
    naming the file, instead of RecursionError."""
    text = path.read_text()
    try:
        return parse(text)
    except RecursionError:
        raise error(f"{path}: JSON nested too deeply to decode") from None


def _load_tensor(path: Path, tolerance: float) -> tuple[np.ndarray, KahlerCurvatureTensor, list[str]]:
    """The array a tensor file states, the tensor it canonicalizes to, and
    a warning when the two differ by more than tolerance."""
    from .curvature import KahlerCurvatureTensor, _stated_array

    stated = _stated_array(_parse_file(path, json.loads, TensorFormatError))
    tensor = KahlerCurvatureTensor(stated)
    warnings = []
    if tensor.asymmetry > tolerance:
        warnings.append(
            f"canonicalization adjusted stated entries by {tensor.asymmetry:.3g} "
            f"(tolerance {tolerance:g})"
        )
    return stated, tensor, warnings


def _run_tensor_validate(args) -> tuple[dict, list[str]]:
    from .curvature import validate

    stated, tensor, warnings = _load_tensor(args.input, args.tolerance)
    report = validate(stated, args.tolerance)
    payload = {"n": tensor.n, "asymmetry": tensor.asymmetry}
    payload.update(report.to_payload())
    return payload, warnings


def _run_tensor_extremize(args) -> tuple[dict, list[str]]:
    from .extremize import extremize_hsc

    _, tensor, warnings = _load_tensor(args.input, SYMMETRY_TOL)
    cfg = ExtremizeConfig(**{f.name: getattr(args, f.name) for f in fields(ExtremizeConfig)})
    result = extremize_hsc(tensor, cfg)
    if not result.converged:
        warnings.append("optimizer did not converge; values are best-so-far")
    for side, ties in (("minimum", result.min_starts_at_best), ("maximum", result.max_starts_at_best)):
        if ties == 1:
            warnings.append(f"the {side} was reached by only one of {cfg.starts} starts")
    return result.to_payload(), warnings


def _geography_verdict_payloads(verdicts: list[GeographyVerdict]) -> tuple[list[dict], list[str]]:
    warnings = [f"{verdict.record.name}: {flag}" for verdict in verdicts for flag in verdict.record.flags]
    return [verdict.to_payload() for verdict in verdicts], warnings


def _surface_records(args) -> list[SurfaceRecord]:
    """Records from ``--input``, or the builtin catalog when it is absent."""
    from .geography import builtin_surface_table, records_from_json

    if args.input is None:
        return list(builtin_surface_table())
    return _parse_file(args.input, records_from_json, ValueError)


def _run_geography_check(args) -> tuple[dict, list[str]]:
    from .geography import check_inequality

    verdicts = [check_inequality(r) for r in _surface_records(args)]
    items, warnings = _geography_verdict_payloads(verdicts)
    return {"verdicts": items}, warnings


def _run_geography_blowup(args) -> tuple[dict, list[str]]:
    from .geography import blowup_transform

    c1sq, c2 = blowup_transform(args.c1sq, args.c2, args.k)
    payload = {
        "input": {"c1sq": args.c1sq, "c2": args.c2},
        "k": args.k,
        "result": {"c1sq": c1sq, "c2": c2},
    }
    return payload, []


def _parse_pg_range(text: str) -> tuple[int, int]:
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            return int(lo), int(hi)
        value = int(text)
        return value, value
    except ValueError as exc:
        raise ValueError(f"bad pg range {text!r}; expected e.g. 3..20") from exc


def _run_geography_scan(args) -> tuple[dict, list[str]]:
    from .geography import horikawa_scan

    pg_min, pg_max = _parse_pg_range(args.pg)
    verdicts = horikawa_scan(pg_min, pg_max)
    items, warnings = _geography_verdict_payloads(verdicts)
    return {"pg_min": pg_min, "pg_max": pg_max, "verdicts": items}, warnings


def _run_geography_plotdata(args) -> tuple[dict, list[str]]:
    from .geography import plot_columns

    return {"rows": plot_columns(_surface_records(args))}, []


# TSV layouts: each turns a payload into (column names, rows)


def _roots_tsv(payload: dict) -> tuple[list[str], list[list]]:
    return [f"n{i+1}" for i in range(payload["rank"])], payload["roots"]


def _classify_tsv(payload: dict) -> tuple[list[str], list[list]]:
    audited = any("category" in v for v in payload["verdicts"])
    header = ["family", "rank", "node", "max_level", "positive", "census", "evidence"]
    if audited:
        header += ["published_positive", "category"]
    rows = []
    for v in payload["verdicts"]:
        census = ",".join(f"{k}:{n}" for k, n in v["census"].items())
        evidence = ";".join(",".join(map(str, r)) for r in v["evidence"])
        cells = [v["family"], v["rank"], v["node"], v["max_level"], v["positive"], census, evidence]
        if audited:
            cells += [v.get("published_positive"), v.get("category")]
        rows.append(cells)
    return header, rows


def _records_tsv(key: str, *extra: str):
    """Layout listing name, c1sq, c2 and the extra fields of each record in
    payload[key]."""
    header = ["name", "c1sq", "c2", *extra]
    return lambda payload: (header, [[r[c] for c in header] for r in payload[key]])


_GROUPS = {
    "cspace": "root systems and marked-node positivity",
    "surface": "distinguished-frame surface analysis",
    "tensor": "curvature tensor validation and extremization",
    "geography": "Chern-number bound bookkeeping",
}

_VERDICTS_TSV = _records_tsv("verdicts", "passes", "margin")

# every subcommand: its help, its runner and its TSV layout (None: key/value
# flattening).  build_parser, dispatch and SCHEMAS all read this table.
_COMMANDS = {
    "cspace roots": ("list the positive roots of a simple type", _run_cspace_roots, _roots_tsv),
    "cspace classify": (
        "positivity verdict per marked node, optionally audited",
        _run_cspace_classify,
        _classify_tsv,
    ),
    "surface analyze": ("extremes, bound verdict and gamma functions", _run_surface_analyze, None),
    "tensor validate": ("check the Kähler symmetries", _run_tensor_validate, None),
    "tensor extremize": ("HSC extremes over the unit sphere", _run_tensor_extremize, None),
    "geography check": (f"decide c2 <= {_C2_BOUND} c1^2 per record", _run_geography_check, _VERDICTS_TSV),
    "geography blowup": ("Chern numbers after k point blow-ups", _run_geography_blowup, None),
    "geography scan-horikawa": ("sweep both Horikawa lines", _run_geography_scan, _VERDICTS_TSV),
    "geography plotdata": (
        f"points plus the c2 = {_C2_BOUND} c1^2 line as columns",
        _run_geography_plotdata,
        _records_tsv("rows", "line_c2"),
    ),
}

# payload schema shipped for each subcommand, plus the envelope's
SCHEMAS = {name: name.replace(" ", "_").replace("-", "_") + ".json" for name in [*_COMMANDS, "envelope"]}


def _flattened(value, prefix: str = "") -> list[list]:
    """Key/value rows of a scalar-shaped payload: nested keys joined by dots,
    lists as JSON."""
    if isinstance(value, dict):
        return [row for key in sorted(value) for row in _flattened(value[key], f"{prefix}{key}.")]
    return [[prefix[:-1], json.dumps(value) if isinstance(value, list) else value]]


def _tsv_field(text: str) -> str:
    """text as one TSV field; a tab or line break would shift the columns or
    rows, so it raises ValueError naming the field."""
    if any(c in text for c in "\t\n\r"):
        raise ValueError(f"TSV field {text!r} holds a tab or line break; use --format json")
    return text


def _render_tsv(command: str, layout, payload: dict, warnings: list[str]) -> str:
    lines = [f"# command: {command}", f"# version: {__version__}"]
    lines += [f"# warning: {_tsv_field(w)}" for w in warnings]
    if layout is None:
        rows = _flattened(payload)
    else:
        header, rows = layout(payload)
        lines.append("# columns: " + "\t".join(header))
    lines += ["\t".join(_tsv_field(str(c)) for c in cells) for cells in rows]
    return "\n".join(lines) + "\n"


def dispatch(argv: list[str]) -> int:
    """Parse argv, run the command, emit one envelope.  Returns the exit code."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    command = f"{args.group} {args.command}"
    _, run, layout = _COMMANDS[command]
    try:
        payload, warnings = run(args)
        envelope = {
            "command": command,
            "version": __version__,
            "payload": payload,
            "warnings": warnings,
        }
        # serialized in both formats, so an inf or NaN fails TSV output too
        text = json.dumps(envelope, indent=2, sort_keys=True, allow_nan=False) + "\n"
        if args.format == "tsv":
            text = _render_tsv(command, layout, payload, warnings)
        if args.output is not None:
            args.output.write_text(text)
        else:
            sys.stdout.write(text)
    except (HsckitError, ValueError, ArithmeticError, OSError) as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    """Console entry point: run ``dispatch`` on the process arguments and exit with its code."""
    sys.exit(dispatch(sys.argv[1:]))


if __name__ == "__main__":
    main()
