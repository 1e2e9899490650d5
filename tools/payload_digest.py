"""SHA-256 digests of sampled extremes, of the CLI's output, of distinguished frames, of every
ascended row and of ``ExtremizeResult.to_payload()``.

Usage (from the root of a checkout):

    PYTHONPATH=src python3 tools/payload_digest.py

The corpus is seeded here and nowhere else: distinguished-frame surface
points, as assembled and in a rotated frame; Gaussian tensors at n = 1-8;
constant-HSC tensors, the quadrics Q^3 and Q^5 and the Grassmannians
Gr(2, 2) and Gr(2, 3); 300 sparse tensors (n 3-6, 1-5 orbits with small
integer values, ``default_rng(0)``, redrawn where the canonical tensor is
zero); and two Gaussian tensors, n = 3 and 6, each scaled by powers of two
to max |R_ijkl| in [2^-602, 2^-601) and to max |R_ijkl| in [2^598, 2^599),
so the corpus scales tensors both down and up to the range that the scale
rule at ``extremize._STEP_TOLERANCE`` ascends.  Each tensor is extremized
with 8 and 16 starts, at the default step cap and at caps 2 and 5 (set
through ``hsckit.extremize._MAX_ITERS``).  Each payload is serialized as
sorted-key JSON, whose floats are exact round-trip reprs, one line each, so
two checkouts print the same digest exactly when every payload is
byte-identical.
The last line of output is the digest; the line before it counts payloads.

The two lines before those count the rows ``extremize._ascend`` returned
over the same calls and give a digest of them: each call's five per-row
arrays (value, point, steps, converged, capped) are hashed as raw bytes.
A payload keeps only the best of its rows and their counts, so a change
in how a single row ends, its step count or its flags, shows here first.

Before those two lines come a count of frames and their digest:
``distinguished_frame`` of each surface tensor of the corpus, its unitary,
point and residual written as hex floats, so a change to any bit of a
frame shows there and nowhere else.

The two lines before those count process runs and give their digest.  Each
argv of ``PROCESS_ARGVS`` runs once as a fresh ``python -m hsckit.cli``
process of the checkout that this tool imports, so the runs pass through
``main()`` and the process's exit, which the in-process runs below never
reach; its exit code, stdout, stderr and the bytes of its ``--output`` file
(null without one) are hashed.

The two lines before those count CLI runs and give their digest.  Each argv of
``CLI_ARGVS`` runs in process through ``hsckit.cli.dispatch`` in both
formats, and each of ``CLI_ERRORS`` once; its exit code, stdout and stderr
are hashed.  The tensor and surface files they read are written to a
temporary directory, whose path appears in no output.

The first two lines count sampled tensors and give their digest:
``sample_hsc`` draws 65,536 rows, as the benchmark's tensor-oracle workload
does, from each of the first three corpus tensors at n = 3, 4 and 6, the
sizes that workload samples, seeded by the tensor's count; the min, max and
mean are written as hex floats.
"""

import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import hsckit
from hsckit import extremize
from hsckit.cli import dispatch

STARTS = (8, 16)
CORPUS_SEED = 20231
SURFACE_POINTS = 24  # each is yielded assembled and rotated
CAPS = (None, 2, 5)  # None keeps the default cap
SAMPLED = {3: 3, 4: 3, 6: 3}  # corpus tensors sampled at each n
SAMPLES = 65_536

# every subcommand, cspace roots on each family, the audit on D, E, F and G and
# scan-horikawa at the benchmark's size; {name} is the file cli_inputs writes
# under that name
CLI_ARGVS = (
    *(["cspace", "roots", "--family", t[0], "--rank", t[1:]] for t in "E8 B5 A7 C6 D6 E6 E7 F4 G2".split()),
    *(["cspace", "classify", "--family", t[0], "--rank", t[1:], "--audit"] for t in "E6 D5 E7 E8 F4 G2".split()),
    ["cspace", "classify", "--family", "C", "--rank", "4", "--node", "2"],
    ["surface", "analyze", "--H", "-1", "--A", "0.25", "--B-re", "0.1", "--B-im", "-0.2"],
    ["surface", "analyze", "--H", "0", "--A", "0"],  # warns: the sufficiency test is skipped
    ["tensor", "validate", "--input", "{asymmetric}"],
    ["tensor", "validate", "--input", "{gaussian}", "--tolerance", "0"],
    ["tensor", "validate", "--input", "{subnormal}", "--tolerance", "0"],
    ["tensor", "validate", "--input", "{asymmetric}", "--tolerance", "0"],
    ["tensor", "extremize", "--input", "{surface}", "--starts", "8", "--seed", "3", "--oracle-samples", "4096"],
    ["tensor", "extremize", "--input", "{gaussian}", "--starts", "16"],
    ["geography", "check", "--builtin"],
    ["geography", "check", "--input", "{records}"],
    ["geography", "blowup", "--c1sq", "9", "--c2", "3", "--k", "2"],
    ["geography", "scan-horikawa", "--pg", "3..40"],
    ["geography", "scan-horikawa", "--pg", "3..12"],
    ["geography", "scan-horikawa", "--pg", "3..2000"],
    ["geography", "plotdata"],
    ["geography", "plotdata", "--input", "{records}"],
)
# the two domain errors of the benchmark's cli-mix workload, two surface
# records that SurfaceRecord refuses, and a Hermitian breach beyond the float range
CLI_ERRORS = (
    ["cspace", "classify", "--family", "A", "--rank", "3", "--node", "4"],
    ["cspace", "roots", "--family", "E", "--rank", "5"],
    ["geography", "check", "--input", "{float_c1sq}"],
    ["geography", "check", "--input", "{string_flags}"],
    ["tensor", "validate", "--input", "{huge_violation}"],
)

# fresh processes: a command that loads numpy, the largest output (1.09 MB), a TSV
# table, a domain error, and a run that writes its envelope to {output}
PROCESS_ARGVS = (
    ["tensor", "extremize", "--input", "{surface}", "--starts", "8", "--seed", "3", "--oracle-samples", "4096"],
    ["geography", "scan-horikawa", "--pg", "3..2000"],
    ["cspace", "classify", "--family", "E", "--rank", "6", "--audit", "--format", "tsv"],
    ["cspace", "roots", "--family", "E", "--rank", "5"],
    ["surface", "analyze", "--H", "-1", "--A", "0.25", "--output", "{output}"],
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
    made = 0
    while made < count:
        n = int(rng.integers(3, 7))
        R = np.zeros((n,) * 4, dtype=complex)
        for _ in range(int(rng.integers(1, 6))):
            re, im = rng.integers(-3, 4, size=2)
            R[tuple(rng.integers(0, n, size=4))] = complex(re, im)
        tensor = hsckit.KahlerCurvatureTensor(R)
        if tensor.array.any():  # a draw can canonicalize to zero; it is redrawn
            made += 1
            yield tensor


def scaled_tensors():
    rng = np.random.default_rng(20233)
    for n in (3, 6):  # max |R_ijkl| below 1/2, then times 2^-600 and times 2^600
        shape = (n,) * 4
        R = hsckit.KahlerCurvatureTensor(rng.standard_normal(shape) + 1j * rng.standard_normal(shape)).array
        exponent = int(np.frexp(np.abs(R).max())[1])
        for k in (-600, 600):
            yield hsckit.KahlerCurvatureTensor(np.ldexp(R.view(float), k - 1 - exponent).view(complex))


def corpus():
    rng = np.random.default_rng(CORPUS_SEED)
    yield from surface_tensors(rng, SURFACE_POINTS)
    yield from gaussian_tensors(rng, 3)
    yield from special_tensors()
    yield from sparse_tensors(300)
    yield from scaled_tensors()


def cli_inputs(directory: Path) -> dict:
    """The files CLI_ARGVS and CLI_ERRORS read, written to directory, by name."""
    shape = (4,) * 4
    rng = np.random.default_rng(20232)
    gaussian = hsckit.KahlerCurvatureTensor(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    point = hsckit.EinsteinFramePoint(H=-1.0, A=0.25, B=0.5j)
    contents = {
        # a non-real value on a self-conjugate orbit: a warning and a violation
        "asymmetric": {"n": 2, "entries": [{"i": 0, "j": 0, "k": 0, "l": 0, "re": 1.0, "im": 0.5}]},
        # subnormal parts, which canonicalization rounds: the asymmetry is that rounding
        "subnormal": {"n": 2, "entries": [
            {"i": 0, "j": 0, "k": 0, "l": 0, "re": 5e-324},
            {"i": 1, "j": 0, "k": 1, "l": 0, "re": 1.5e-323, "im": -5e-324},
            {"i": 0, "j": 0, "k": 1, "l": 1, "re": -3e-323},
            {"i": 0, "j": 1, "k": 1, "l": 1, "re": 2.0, "im": 1.5e-323},
        ]},
        # the stated value breaks the Hermitian relation by 2e308, beyond the float range
        "huge_violation": {"n": 2, "entries": [{"i": 0, "j": 0, "k": 1, "l": 1, "re": 1.0, "im": 1e308}]},
        "gaussian": hsckit.tensor_to_dict(gaussian),
        "surface": hsckit.tensor_to_dict(hsckit.assemble_einstein_surface(point)),
        "records": [record.to_payload() for record in hsckit.builtin_surface_table()[:4]],
        "float_c1sq": [{"name": "a", "c1sq": 1.5, "c2": 3}],
        "string_flags": [{"name": "a", "c1sq": 1, "c2": 3, "flags": "ab"}],
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


def process_digest() -> tuple[int, str]:
    """Fresh ``python -m hsckit.cli`` runs of PROCESS_ARGVS, and the SHA-256 of their exit codes,
    output and ``--output`` files."""
    src = str(Path(hsckit.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    total = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        paths = cli_inputs(Path(tmp))
        output = Path(tmp) / "output.json"
        for argv in PROCESS_ARGVS:
            command = [sys.executable, "-m", "hsckit.cli", *(part.format(output=output, **paths) for part in argv)]
            proc = subprocess.run(command, capture_output=True, text=True, env=env, timeout=120)
            written = output.read_text() if output.exists() else None
            output.unlink(missing_ok=True)
            if tmp in proc.stdout + proc.stderr + (written or ""):
                raise SystemExit(f"output of {argv} names the temporary directory")
            total.update(json.dumps([argv, proc.returncode, proc.stdout, proc.stderr, written]).encode() + b"\n")
    return len(PROCESS_ARGVS), total.hexdigest()


def frame_digest() -> tuple[int, str]:
    """Frames of the surface tensors of the corpus, and the SHA-256 of their unitaries, points and
    residuals as hex floats."""
    total, count = hashlib.sha256(), 0
    for tensor in surface_tensors(np.random.default_rng(CORPUS_SEED), SURFACE_POINTS):
        frame = hsckit.distinguished_frame(tensor)
        p = frame.point
        numbers = [*frame.unitary.ravel().view(float).tolist(), p.H, p.A, p.B.real, p.B.imag, frame.residual]
        total.update(" ".join(float(x).hex() for x in numbers).encode() + b"\n")
        count += 1
    return count, total.hexdigest()


def sample_digest() -> tuple[int, str]:
    """``sample_hsc`` of the first SAMPLED corpus tensors at each n, and the SHA-256 of their
    extremes and means as hex floats."""
    wanted, total, count = dict(SAMPLED), hashlib.sha256(), 0
    for tensor in corpus():
        if wanted.get(tensor.n):
            wanted[tensor.n] -= 1
            sampled = hsckit.sample_hsc(tensor, SAMPLES, seed=count)
            numbers = (sampled.min_value, sampled.max_value, sampled.mean)
            total.update(" ".join(x.hex() for x in numbers).encode() + b"\n")
            count += 1
            if not any(wanted.values()):
                break
    return count, total.hexdigest()


def main() -> None:
    samples, digest = sample_digest()
    print(f"{samples} sampled tensors")
    print(digest)
    runs, digest = cli_digest()
    print(f"{runs} cli runs")
    print(digest)
    runs, digest = process_digest()
    print(f"{runs} process runs")
    print(digest)
    frames, digest = frame_digest()
    print(f"{frames} frames")
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
