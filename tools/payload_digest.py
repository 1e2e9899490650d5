"""One SHA-256 over ``ExtremizeResult.to_payload()`` for a fixed corpus.

Usage (from the root of a checkout):

    PYTHONPATH=src python3 tools/payload_digest.py

The corpus is seeded here and nowhere else: distinguished-frame surface
points, as assembled and in a rotated frame; Gaussian tensors at n = 1-8;
constant-HSC tensors, the quadrics Q^3 and Q^5 and the Grassmannians
Gr(2, 2) and Gr(2, 3); and 300 sparse tensors (n 3-6, 1-5 orbits with small
integer values, ``default_rng(0)``).  Each tensor is extremized with 8 and
16 starts, at the default step cap and at caps 2 and 5 (set through
``hsckit.extremize._MAX_ITERS``).  Each payload is serialized as sorted-key
JSON, whose floats are exact round-trip reprs, one line each, so two
checkouts print the same digest exactly when every payload is byte-identical.
The last line of output is the digest; the line before it counts payloads.
"""

import hashlib
import json

import numpy as np

import hsckit
from hsckit import extremize

STARTS = (8, 16)
CAPS = (None, 2, 5)  # None keeps the default cap


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


def corpus():
    rng = np.random.default_rng(20231)
    yield from surface_tensors(rng, 24)
    yield from gaussian_tensors(rng, 3)
    yield from special_tensors()
    yield from sparse_tensors(300)


def main() -> None:
    default_cap = extremize._MAX_ITERS
    total, count = hashlib.sha256(), 0
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
        extremize._MAX_ITERS = default_cap
    print(f"{count} payloads")
    print(total.hexdigest())


if __name__ == "__main__":
    main()
