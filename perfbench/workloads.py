"""The three workloads: inputs made from a seed, the call, and its checks.

Each workload gives

* ``make_input(seed, index)``: the op's input, the same for the same pair;
* ``run(input)``: the timed call into hsckit, and nothing else;
* ``check(input, output)``: ``(ok, error, counts, detail)``.  ``error`` is
  the largest deviation compared against a tolerance, reported as a
  diagnostic; ``counts`` are exact and must repeat bit for bit;
* ``adopt(output, tracer, span_id)``: attach spans the call recorded
  elsewhere (only the CLI child has any);
* ``block``: ops per whole mix.  A run holds whole blocks, and the first
  block is the set of ops the exact per-layer counts cover;
* ``block_s``: wall seconds one block took, checks included, at the
  version of hsckit the benchmark was written against, on a 2-vCPU Xeon
  VM.  It fixes how many blocks a run of given seconds holds, the same on
  every version measured.

Library calls go through the ``hsckit`` package attributes, never through
names imported here, so a traced run reaches the wrappers.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import hsckit

HERE = Path(__file__).resolve().parent
CLI_CHILD = HERE / "cli_child.py"


def halton(index: int, base: int) -> float:
    """The index-th point of the van der Corput sequence in ``base``."""
    result, scale = 0.0, 1.0
    while index > 0:
        scale /= base
        result += scale * (index % base)
        index //= base
    return result


def surface_point(index: int) -> hsckit.EinsteinFramePoint:
    """Distinguished-frame data with 2A above H + |B| by a margin >= 0.05,
    so the HSC minimum at e_1 is isolated up to phase.

    The points follow one Halton sequence, the same for every seed.  The
    cost of extremizing a point varies thirtyfold with the point and with
    the optimizer's random starts, in steps of whole capped ascents, so with
    points and starts drawn per seed the median op moved by 17% between
    seeds.  A fixed sequence covers the range evenly in every prefix, and
    every run does the same optimizer work.
    """
    u_h, u_b, u_margin, phase = (halton(index + 1, base) for base in (2, 3, 5, 7))
    H = -(0.2 + 2.8 * u_h)
    b_abs = 1.5 * u_b
    A = 0.5 * (H + b_abs) + 0.05 + 1.45 * u_margin
    return hsckit.EinsteinFramePoint(H=H, A=A, B=b_abs * np.exp(2j * np.pi * phase))


def surface_max(point: hsckit.EinsteinFramePoint) -> float:
    """Closed-form HSC maximum of a surface point, H + (2A - H + |B|)/2."""
    return point.H + 0.5 * (2.0 * point.A - point.H + abs(point.B))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def random_array(rng: np.random.Generator, n: int) -> np.ndarray:
    return rng.standard_normal((n,) * 4) + 1j * rng.standard_normal((n,) * 4)


def digest(*values) -> str:
    text = repr([float(v).hex() if isinstance(v, float) else repr(v) for v in values])
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Workload:
    block = 1
    block_s = 1.0
    in_process = True
    trace = False

    def ops(self, seconds: float) -> int:
        """Ops in a run of ``seconds``: whole blocks, at least one."""
        return self.block * max(1, round(seconds / self.block_s))

    def adopt(self, out, tracer, span_id: int) -> None:
        pass


# --- surface-sweep ----------------------------------------------------------


@dataclass(frozen=True)
class SurfaceInput:
    point: hsckit.EinsteinFramePoint
    unitary: np.ndarray
    cfg_seed: int


class SurfaceSweep(Workload):
    """Closed-form cross-check and frame round trip of a surface point."""

    name = "surface-sweep"
    block = 8
    block_s = 3.0
    starts = 8
    tolerance = 1e-6

    def make_input(self, seed: int, index: int) -> SurfaceInput:
        """The seed sets the frame rotation, the input of distinguished_frame."""
        rng = np.random.default_rng([seed, index, 1])
        return SurfaceInput(surface_point(index), random_unitary(rng, 2), index)

    def run(self, inp: SurfaceInput):
        tensor = hsckit.assemble_einstein_surface(inp.point)
        result = hsckit.extremize_hsc(tensor, hsckit.ExtremizeConfig(starts=self.starts, seed=inp.cfg_seed))
        frame = hsckit.distinguished_frame(hsckit.transform_frame(tensor, inp.unitary))
        return result, frame

    def check(self, inp: SurfaceInput, out):
        result, frame = out
        p, q = inp.point, frame.point
        error = max(
            abs(result.min_value - p.H),
            abs(result.max_value - surface_max(p)),
            abs(q.H - p.H),
            abs(q.A - p.A),
            abs(abs(q.B) - abs(p.B)),
        )
        ok = error <= self.tolerance and frame.residual <= self.tolerance
        counts = {
            "iterations_used": result.iterations_used,
            "unconverged": int(not result.converged),
            "digest": digest(result.min_value, result.max_value, q.H, q.A, abs(q.B), frame.residual),
        }
        return ok, error, counts, f"residual {frame.residual:.2e}"


# --- tensor-oracle ----------------------------------------------------------


@dataclass(frozen=True)
class TensorInput:
    tensor: hsckit.KahlerCurvatureTensor
    cfg_seed: int


class TensorOracle(Workload):
    """In-process ``tensor extremize --oracle-samples``, n cycling 3, 4, 6."""

    name = "tensor-oracle"
    dims = (3, 4, 6)
    block = len(dims)
    block_s = 2.5
    # Starts per n.  The axis starts e_j and i e_j trace the same orbit, so
    # 2n of them give only n directions.  At n = 4, 8 starts (no random
    # ones) and 12 starts each left about one tensor in 150 to 400 at a local
    # optimum that the sampler beat; 16 left none of 150.  At n = 6, 8
    # starts left none of about 100.
    starts = {3: 16, 4: 16, 6: 8}
    samples = 65_536  # one full sampling chunk per op
    sigmas = 6.0

    def make_input(self, seed: int, index: int) -> TensorInput:
        """A Gaussian tensor from a sequence that is the same for every seed,
        in a frame rotated by a seeded unitary.

        The optimizer's cost varies by tens of percent between Gaussian
        tensors, and a run holds only about ten of each n, so with tensors
        drawn per seed the median op moved by 20% between seeds.  A rotation
        keeps each tensor's critical values and basins but moves them
        against the fixed start directions, so the seed still changes the
        work, by less.
        """
        n = self.dims[index % len(self.dims)]
        base = random_array(np.random.default_rng([index, 2]), n)
        U = random_unitary(np.random.default_rng([seed, index, 2]), n)
        rotated = np.einsum("ijkl,ia,jb,kc,ld->abcd", base, U, U.conj(), U, U.conj())
        return TensorInput(hsckit.KahlerCurvatureTensor(rotated), index)

    def run(self, inp: TensorInput):
        tensor = hsckit.tensor_from_dict(hsckit.tensor_to_dict(inp.tensor))
        report = hsckit.validate(tensor)
        cfg = hsckit.ExtremizeConfig(starts=self.starts[tensor.n], seed=inp.cfg_seed)
        result = hsckit.extremize_hsc(tensor, cfg)
        sampled = hsckit.sample_hsc(tensor, self.samples, seed=inp.cfg_seed)
        return tensor, report, result, sampled

    def check(self, inp: TensorInput, out):
        tensor, report, result, sampled = out
        n = tensor.n
        slack = 1e-9 * max(1.0, abs(result.min_value), abs(result.max_value))
        # sampled values are attained values, so they lie inside the extremes
        excess = max(result.min_value - sampled.min_value, sampled.max_value - result.max_value)
        # Berger: the sphere mean of HSC is 2 scal / (n (n + 1)).  The values
        # lie in [min, max], so their standard deviation is at most half the
        # range, which bounds the standard error of the sampled mean.
        scal = float(np.einsum("iikk->", tensor.array).real)
        mean_error = abs(sampled.mean - 2.0 * scal / (n * (n + 1)))
        std_error = 0.5 * (sampled.max_value - sampled.min_value) / np.sqrt(self.samples)
        ok = report.ok and excess <= slack and mean_error <= self.sigmas * std_error
        counts = {
            "iterations_used": result.iterations_used,
            "unconverged": int(not result.converged),
            "samples": sampled.samples,
            "cmacs": sampled.samples * (n**4 + n**2),
            "digest": digest(result.min_value, result.max_value, sampled.min_value, sampled.max_value, sampled.mean),
        }
        detail = f"n={n} excess {excess:.2e} mean {mean_error / std_error:.2f} std errors"
        return ok, max(excess, 0.0), counts, detail


# --- cli-mix ----------------------------------------------------------------

# (label, argv with {placeholders}, schema command or error name)
CLI_CASES = (
    ("cspace-roots", ["cspace", "roots", "--family", "E", "--rank", "8"]),
    ("cspace-classify", ["cspace", "classify", "--family", "E", "--rank", "6", "--audit"]),
    ("surface-analyze", ["surface", "analyze", "--H", "{H}", "--A", "{A}", "--B-re", "{b_re}", "--B-im", "{b_im}"]),
    ("tensor-validate", ["tensor", "validate", "--input", "{tensor4}"]),
    ("tensor-extremize", ["tensor", "extremize", "--input", "{surface}", "--starts", "8", "--seed", "{cfg_seed}"]),
    ("geography-check", ["geography", "check", "--builtin"]),
    ("geography-blowup", ["geography", "blowup", "--c1sq", "{c1sq}", "--c2", "{c2}", "--k", "{k}"]),
    ("geography-scan-horikawa", ["geography", "scan-horikawa", "--pg", "3..{pg_max}"]),
    ("geography-plotdata", ["geography", "plotdata", "--format", "tsv"]),
    ("cspace-classify-badnode", ["cspace", "classify", "--family", "A", "--rank", "{rank}", "--node", "{node}"]),
    ("cspace-roots-badrank", ["cspace", "roots", "--family", "{family}", "--rank", "{bad_rank}"]),
)
CLI_ERRORS = {"cspace-classify-badnode": "NodeOutOfRange", "cspace-roots-badrank": "InadmissibleRank"}
E8_HIGHEST_ROOT = [2, 3, 4, 6, 5, 4, 3, 2]


@dataclass(frozen=True)
class CliInput:
    label: str
    argv: list
    values: dict


@dataclass
class CliRun:
    code: int
    stdout: bytes
    stderr: bytes
    spawned: float
    report_path: Path
    _report: dict | None = None

    @property
    def report(self) -> dict:
        if self._report is None:
            self._report = json.loads(self.report_path.read_text())
        return self._report


class CliMix(Workload):
    """Fresh ``hsckit`` processes, one at a time, over every subcommand."""

    name = "cli-mix"
    block = len(CLI_CASES)
    block_s = 3.0
    in_process = False

    def __init__(self, workdir: Path, child: list[str] | None = None):
        self.workdir = workdir
        self.child = child or [sys.executable, str(CLI_CHILD)]
        self._validators = None

    @property
    def validators(self) -> dict:
        """One schema validator per command, built on first use, so that the
        set-up probe measures only hsckit and the inputs."""
        if self._validators is None:
            import jsonschema

            import hsckit.cli

            schemas = {c: json.loads(hsckit.cli.schema_text(c)) for c in hsckit.cli.SCHEMAS}
            self._validators = {c: jsonschema.validators.validator_for(s)(s) for c, s in schemas.items()}
        return self._validators

    @staticmethod
    def label_of(index: int) -> str:
        return CLI_CASES[index % len(CLI_CASES)][0]

    def make_input(self, seed: int, index: int) -> CliInput:
        label, template = CLI_CASES[index % len(CLI_CASES)]
        cycle = index // len(CLI_CASES)
        rng = np.random.default_rng([seed, cycle, 3])
        point = surface_point(cycle)
        values = {
            "H": repr(point.H), "A": repr(point.A),
            "b_re": repr(point.B.real), "b_im": repr(point.B.imag),
            "cfg_seed": str(cycle),
            "c1sq": str(int(rng.integers(-20, 40))), "c2": str(int(rng.integers(-20, 120))),
            "k": str(int(rng.integers(0, 50))),
            "pg_max": str(int(rng.integers(1990, 2011))),
            "rank": str(int(rng.integers(2, 9))), "family": str(rng.choice(["E", "F", "G"])),
        }
        values["node"] = str(int(values["rank"]) + int(rng.integers(1, 4)))
        values["bad_rank"] = {"E": "5", "F": "3", "G": "4"}[values["family"]]
        if label == "tensor-validate":
            values["tensor4"] = self._write(index, hsckit.KahlerCurvatureTensor(random_array(rng, 4)))
        if label == "tensor-extremize":
            values["surface"] = self._write(index, hsckit.assemble_einstein_surface(point))
            values["point"] = point
        argv = [part.format(**values) for part in template]
        return CliInput(label, argv, values)

    def _write(self, index: int, tensor) -> str:
        path = self.workdir / f"tensor-{index}.json"
        path.write_text(json.dumps(hsckit.tensor_to_dict(tensor)))
        return str(path)

    def run(self, inp: CliInput) -> CliRun:
        report_path = self.workdir / "child-report.json"
        spawned = time.perf_counter()
        proc = subprocess.run(
            [*self.child, str(report_path), "1" if self.trace else "0", *inp.argv],
            capture_output=True, timeout=120,
        )
        return CliRun(proc.returncode, proc.stdout, proc.stderr, spawned, report_path)

    def adopt(self, out: CliRun, tracer, span_id: int) -> None:
        report = out.report
        spans = tracer.spans
        spans.append([len(spans), span_id, tracer.op_id, "cli.startup", out.spawned, report["t0"], None])
        tracer.adopt(report["spans"], span_id)
        spans.append([len(spans), span_id, tracer.op_id, "cli.exit", report["t_end"], spans[span_id][5], None])

    def check(self, inp: CliInput, out: CliRun):
        if out.report["code"] != out.code:
            return False, 0.0, {}, f"child reported exit {out.report['code']}, process exited {out.code}"
        counts = {
            "code": out.code,
            "output_bytes": len(out.stdout),
            "stdout_sha": hashlib.sha256(out.stdout).hexdigest()[:16],
        }
        error_name = CLI_ERRORS.get(inp.label)
        if error_name is not None:
            ok = out.code == 1 and not out.stdout and out.stderr.startswith(f"{error_name}:".encode())
            return ok, 0.0, counts, out.stderr.decode(errors="replace")[:120]
        if out.code != 0 or not out.stdout:
            return False, 0.0, counts, f"exit {out.code}, {len(out.stdout)} bytes on stdout"
        command = " ".join(inp.argv[:2])
        if inp.label == "geography-plotdata":
            envelope = parse_tsv(out.stdout.decode())
        else:
            envelope = json.loads(out.stdout)
        self.validators["envelope"].validate(envelope)
        self.validators[command].validate(envelope["payload"])
        if envelope["command"] != command:
            return False, 0.0, counts, f"envelope command {envelope['command']!r}"
        payload = envelope["payload"]
        if inp.label == "tensor-extremize":
            counts["iterations_used"] = payload["iterations_used"]
            counts["unconverged"] = int(not (payload["min_converged"] and payload["max_converged"]))
        ok, error = self._content(inp, payload)
        return ok, error, counts, ""

    def _content(self, inp: CliInput, payload: dict) -> tuple[bool, float]:
        """Spot checks of each payload against values known independently."""
        label, v = inp.label, inp.values
        if label == "cspace-roots":
            return payload["count"] == 120 and payload["highest_root"] == E8_HIGHEST_ROOT, 0.0
        if label == "cspace-classify":
            disagree = [x["node"] for x in payload["verdicts"] if x["category"] == "disagree"]
            return len(payload["verdicts"]) == 6 and disagree == [4], 0.0
        if label == "surface-analyze":
            point = hsckit.EinsteinFramePoint(float(v["H"]), float(v["A"]), complex(float(v["b_re"]), float(v["b_im"])))
            error = abs(payload["max_hsc"] - surface_max(point))
            return payload["min_hsc"] == point.H and error <= 1e-12, error
        if label == "tensor-validate":
            return payload["ok"] and payload["n"] == 4, 0.0
        if label == "tensor-extremize":
            point = v["point"]
            error = max(abs(payload["min_value"] - point.H), abs(payload["max_value"] - surface_max(point)))
            return error <= SurfaceSweep.tolerance, error
        if label == "geography-check":
            return len(payload["verdicts"]) == 9 and not any(x["passes"] for x in payload["verdicts"]), 0.0
        if label == "geography-blowup":
            k = int(v["k"])
            want = {"c1sq": int(v["c1sq"]) - k, "c2": int(v["c2"]) + k}
            return payload["result"] == want, 0.0
        if label == "geography-scan-horikawa":
            pg_max = int(v["pg_max"])
            verdicts = payload["verdicts"]
            return len(verdicts) == 2 * (pg_max - 2) and not any(x["passes"] for x in verdicts), 0.0
        if label == "geography-plotdata":
            rows = payload["rows"]
            return len(rows) == 9 and all(r["line_c2"] == 3 * r["c1sq"] for r in rows), 0.0
        raise ValueError(f"no content check for {label}")


def parse_tsv(text: str) -> dict:
    """The envelope a ``plotdata --format tsv`` output stands for."""
    envelope = {"command": None, "version": None, "payload": {"rows": []}, "warnings": []}
    columns = None
    for line in text.splitlines():
        if line.startswith("# columns: "):
            columns = line[len("# columns: "):].split("\t")
        elif line.startswith("# warning: "):
            envelope["warnings"].append(line[len("# warning: "):])
        elif line.startswith("# "):
            key, _, value = line[2:].partition(": ")
            envelope[key] = value
        else:
            cells = line.split("\t")
            if columns is None or len(cells) != len(columns):
                raise ValueError(f"malformed TSV row {line!r}")
            row = dict(zip(columns, cells))
            for key in ("c1sq", "c2", "line_c2"):
                row[key] = int(row[key])
            envelope["payload"]["rows"].append(row)
    return envelope


def make(name: str, workdir: Path) -> Workload:
    if name == "cli-mix":
        return CliMix(workdir)
    return {"surface-sweep": SurfaceSweep, "tensor-oracle": TensorOracle}[name]()
