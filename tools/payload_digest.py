"""SHA-256 digests of the CLI's output, of every ascended row and of ``ExtremizeResult.to_payload()``.

Usage (from the root of a checkout):

    PYTHONPATH=src python3 tools/payload_digest.py

The corpus is seeded here and nowhere else: distinguished-frame surface
points, as assembled and in a rotated frame; Gaussian tensors at n = 1-8;
constant-HSC tensors, the quadrics Q^3 and Q^5 and the Grassmannians
Gr(2, 2) and Gr(2, 3); 300 sparse tensors (n 3-6, 1-5 orbits with small
integer values, ``default_rng(0)``); and two Gaussian tensors, n = 3 and 6,
scaled by powers of two to max |R_ijkl| in [2^-602, 2^-601).  Each tensor
is extremized with 8 and 16 starts, at the default step cap and at caps 2
and 5 (set through ``hsckit.extremize._MAX_ITERS``).  Each payload is
serialized as sorted-key JSON, whose floats are exact round-trip reprs, one
line each, so two checkouts print the same digest exactly when every
payload is byte-identical.
The last line of output is the digest; the line before it counts payloads.

The two lines before those count the rows ``extremize._ascend`` returned
over the same calls and give a digest of them: each call's five per-row
arrays (value, point, steps, converged, capped) are hashed as raw bytes.
A payload keeps only the best of its rows and their counts, so a change
in how a single row ends, its step count or its flags, shows here first.

Before those two lines come a count of CLI runs and their digest.  Each
argv of ``CLI_ARGVS`` runs in process through ``hsckit.cli.dispatch`` in
both formats, and each of ``CLI_ERRORS`` once; its exit code, stdout and
stderr are hashed.  The tensor and surface files they read are written to
a temporary directory, whose path appears in no output.
"""

import contextlib
import hashlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np

import hsckit
from hsckit import extremize
from hsckit.cli import dispatch

STARTS = (8, 16)
CAPS = (None, 2, 5)  # None keeps the default cap

# every subcommand; {name} is the file cli_inputs writes under that name
CLI_ARGVS = (
    ["cspace", "roots", "--family", "E", "--rank", "8"],
    ["cspace", "roots", "--family", "B", "--rank", "5"],
    ["cspace", "classify", "--family", "E", "--rank", "6", "--audit"],
    ["cspace", "classify", "--family", "C", "--rank", "4", "--node", "2"],
    ["surface", "analyze", "--H", "-1", "--A", "0.25", "--B-re", "0.1", "--B-im", "-0.2"],
    ["surface", "analyze", "--H", "0", "--A", "0"],  # warns: the sufficiency test is skipped
    ["tensor", "validate", "--input", "{asymmetric}"],
    ["tensor", "validate", "--input", "{gaussian}", "--tolerance", "0"],
    ["tensor", "extremize", "--input", "{surface}", "--starts", "8", "--seed", "3", "--oracle-samples", "4096"],
    ["tensor", "extremize", "--input", "{gaussian}", "--starts", "16"],
    ["geography", "check", "--builtin"],
    ["geography", "check", "--input", "{records}"],
    ["geography", "blowup", "--c1sq", "9", "--c2", "3", "--k", "2"],
    ["geography", "scan-horikawa", "--pg", "3..40"],
    ["geography", "plotdata"],
    ["geography", "plotdata", "--input", "{records}"],
)
# the two domain errors of the benchmark's cli-mix workload
CLI_ERRORS = (
    ["cspace", "classify", "--family", "A", "--rank", "3", "--node", "4"],
    ["cspace", "roots", "--family", "E", "--rank", "5"],
)


def unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    Q, R = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def surface_tensors(rng: np.random.Generator, count: int):
    for _ in range(count):
        H = -rng.uniform(0.2, 3.0)
        b_abs = rng.uniform(0.0, 1.5)
        A = 0.5 * (H + b_abs) + rng.uniform(0.05, 1.5)
        point = hsckit.EinsteinFramePoint(H=H, A=A, B=b_abs * np.exp(2j * np.pi * rng.uniform()))
        tensor = hsckit.assemble_einstein_surface(point)
        yield tensor
        yield hsckit.transform_frame(tensor, unitary(rng, 2))


def gaussian_tensors(rng: np.random.Generator, per_n: int):
    for n in range(1, 9):
        for _ in range(per_n):
            shape = (n,) * 4
            yield hsckit.KahlerCurvatureTensor(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def special_tensors():
    for n in (1, 2, 3, 5):
        yield hsckit.constant_hsc_tensor(n, 2.0)
    for n in (3, 5):  # Q^n: (d_ij d_kl + d_il d_kj - d_ik d_jl) / 2
        d = np.eye(n)
        R = np.einsum("ij,kl->ijkl", d, d) + np.einsum("il,kj->ijkl", d, d) - np.einsum("ik,jl->ijkl", d, d)
        yield hsckit.KahlerCurvatureTensor(0.5 * R)
    for p, q in ((2, 2), (2, 3)):  # Gr(p, p + q) in the p x q matrix model
        B = np.eye(p * q).reshape(p * q, p, q)
        yield hsckit.KahlerCurvatureTensor(np.einsum("iab,jcb,kcd,lad->ijkl", B, B, B, B))


def sparse_tensors(count: int):
    rng = np.random.default_rng(0)
    for _ in range(count):
        n = int(rng.integers(3, 7))
        R = np.zeros((n,) * 4, dtype=complex)
        for _ in range(int(rng.integers(1, 6))):
            re, im = rng.integers(-3, 4, size=2)
            R[tuple(rng.integers(0, n, size=4))] = complex(re, im)
        if R.any():
            yield hsckit.KahlerCurvatureTensor(R)


def tiny_tensors():
    rng = np.random.default_rng(20233)
    for n in (3, 6):  # max |R_ijkl| below 1/2, then times 2^-600
        shape = (n,) * 4
        R = hsckit.KahlerCurvatureTensor(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).array
        exponent = int(np.frexp(np.abs(R).max())[1])
        yield hsckit.KahlerCurvatureTensor(np.ldexp(R.view(float), -601 - exponent).view(complex))


def corpus():
    rng = np.random.default_rng(20231)
    yield from surface_tensors(rng, 24)
    yield from gaussian_tensors(rng, 3)
    yield from special_tensors()
    yield from sparse_tensors(300)
    yield from tiny_tensors()


def cli_inputs(directory: Path) -> dict:
    """The files CLI_ARGVS read, written to directory, by name."""
    shape = (4,) * 4
    rng = np.random.default_rng(20232)
    gaussian = hsckit.KahlerCurvatureTensor(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    point = hsckit.EinsteinFramePoint(H=-1.0, A=0.25, B=0.5j)
    contents = {
        # a non-real value on a self-conjugate orbit: a warning and a violation
        "asymmetric": {"n": 2, "entries": [{"i": 0, "j": 0, "k": 0, "l": 0, "re": 1.0, "im": 0.5}]},
        "gaussian": hsckit.tensor_to_dict(gaussian),
        "surface": hsckit.tensor_to_dict(hsckit.assemble_einstein_surface(point)),
        "records": [record.to_payload() for record in hsckit.builtin_surface_table()[:4]],
    }
    paths = {}
    for name, content in contents.items():
        paths[name] = directory / f"{name}.json"
        paths[name].write_text(json.dumps(content))
    return paths


def cli_digest() -> tuple[int, str]:
    """Runs of CLI_ARGVS and CLI_ERRORS, and the SHA-256 of their exit codes and output."""
    runs = [argv + ["--format", fmt] for argv in CLI_ARGVS for fmt in ("json", "tsv")] + list(CLI_ERRORS)
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        paths = cli_inputs(Path(tmp))
        for argv in runs:
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = dispatch([part.format(**paths) for part in argv])
            if tmp in out.getvalue() + err.getvalue():
                raise SystemExit(f"output of {argv} names the temporary directory")
            total.update(json.dumps([argv, code, out.getvalue(), err.getvalue()]).encode() + b"\n")
    return len(runs), total.hexdigest()


def main() -> None:
    runs, digest = cli_digest()
    print(f"{runs} cli runs")
    print(digest)
    default_cap, ascend = extremize._MAX_ITERS, extremize._ascend
    total, count = hashlib.sha256(), 0
    row_total, row_count = hashlib.sha256(), 0

    def recorded_ascend(*args):
        nonlocal row_count
        returned = ascend(*args)
        for a in returned:
            row_total.update(a.tobytes())
        row_count += len(returned[0])
        return returned

    extremize._ascend = recorded_ascend
    try:
        for tensor in corpus():
            for cap in CAPS:
                extremize._MAX_ITERS = default_cap if cap is None else cap
                for starts in STARTS:
                    cfg = hsckit.ExtremizeConfig(starts=starts, seed=count)
                    payload = hsckit.extremize_hsc(tensor, cfg).to_payload()
                    total.update(json.dumps(payload, sort_keys=True).encode() + b"\n")
                    count += 1
    finally:
        extremize._MAX_ITERS, extremize._ascend = default_cap, ascend
    print(f"{row_count} ascended rows")
    print(row_total.hexdigest())
    print(f"{count} payloads")
    print(total.hexdigest())


if __name__ == "__main__":
    main()
