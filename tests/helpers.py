"""Shared test fixtures: oracles and seeded random generators."""

from __future__ import annotations

import numpy as np

from hsckit import EinsteinFramePoint, KahlerCurvatureTensor


def hsc_bruteforce(tensor: KahlerCurvatureTensor, v) -> float:
    """Independent HSC oracle: explicit quadruple loop, no einsum."""
    vec = np.asarray(getattr(v, "vector", v), dtype=complex).reshape(-1)
    n = tensor.n
    assert vec.shape[0] == n
    R = tensor.array
    total = 0.0 + 0.0j
    for i in range(n):
        for j in range(n):
            for k in range(n):
                for l in range(n):
                    total += R[i, j, k, l] * vec[i] * np.conj(vec[j]) * vec[k] * np.conj(vec[l])
    norm_sq = float(np.vdot(vec, vec).real)
    total /= norm_sq * norm_sq
    assert abs(total.imag) < 1e-9 * max(1.0, abs(total))
    return float(total.real)


def random_kahler_tensor(n: int, seed: int, scale: float = 1.0, shift: float = 0.0) -> KahlerCurvatureTensor:
    """Random symmetric-validated tensor; optional constant-curvature shift."""
    rng = np.random.default_rng(seed)
    raw = rng.standard_normal((n,) * 4) + 1j * rng.standard_normal((n,) * 4)
    eye = np.eye(n)
    const = 0.5 * shift * (np.einsum("ij,kl->ijkl", eye, eye) + np.einsum("il,kj->ijkl", eye, eye))
    return KahlerCurvatureTensor(scale * raw + const)


def random_unitary(n: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    Z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    Q, R = np.linalg.qr(Z)
    # fix column phases so the factorization is unique
    return Q * (np.diagonal(R) / np.abs(np.diagonal(R)))


def random_frame_point(rng: np.random.Generator, margin: float = 0.05) -> EinsteinFramePoint:
    """Random valid distinguished-frame data with a strict validity margin.

    H is negative, |B| moderate, and A sits above the constraint line
    2A = H + |B| by at least ``margin``, so the HSC minimum at e_1 is
    isolated (up to phase) and the Einstein constant is typically negative.
    """
    H = -rng.uniform(0.2, 3.0)
    b_abs = rng.uniform(0.0, 1.5)
    phase = rng.uniform(0.0, 2.0 * np.pi)
    A = 0.5 * (H + b_abs) + rng.uniform(margin, 1.5)
    return EinsteinFramePoint(H=H, A=A, B=b_abs * np.exp(1j * phase))


def quartic_values_einsum(R: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Reference quartic per row of V: the two-step einsum contraction."""
    W = np.einsum("ijkl,mj,ml->mik", R, V.conj(), V.conj())
    return np.einsum("mik,mi,mk->m", W, V, V).real


def trig_eval_serial(a: np.ndarray, b: np.ndarray, theta) -> np.ndarray:
    """sum a_k cos(k theta) + b_k sin(k theta) over k = 0..4, at each theta."""
    kt = np.multiply.outer(np.asarray(theta), np.arange(5))
    return np.cos(kt) @ a + np.sin(kt) @ b


def trig_argopt_roots(a: np.ndarray, b: np.ndarray, sign: float) -> float:
    """Reference line search: the best of theta = 0 and the arguments of the
    ``np.roots`` of z^4 f'(z) for the degree-4 trig polynomial (a, b)."""
    c = 0.5 * (a - 1j * b)
    c[0] = a[0]
    coeffs = 1j * np.arange(-4, 5) * np.concatenate((c[:0:-1].conj(), c))
    candidates = np.append(np.angle(np.roots(coeffs[::-1])), 0.0)
    return float(candidates[np.argmax(sign * trig_eval_serial(a, b, candidates))])


def best_of_starts_serial(R: np.ndarray, starts: np.ndarray, sign: float, max_iters: int) -> float:
    """Reference best value of sign*f over one ascent per start, run one at a
    time: einsum gradient, 9-point DFT and ``np.roots`` line search, and the
    library's stopping rules (relative tangent gradient 1e-9, stop when the
    best step on the circle does not improve)."""
    thetas = 2.0 * np.pi * np.arange(9) / 9

    def value(v):
        return float(quartic_values_einsum(R, v[None, :])[0])

    finals = []
    for v0 in starts:
        v = v0 / np.linalg.norm(v0)
        f = sign * value(v)
        for _ in range(max_iters):
            g = sign * 4.0 * np.einsum("imkl,i,k,l->m", R, v, v, v.conj())
            gt = g - np.vdot(v, g).real * v
            gn = float(np.linalg.norm(gt))
            if gn <= 1e-9 * max(1.0, abs(f)):
                break
            u = gt / gn
            X = np.fft.rfft(quartic_values_einsum(R, np.outer(np.cos(thetas), v) + np.outer(np.sin(thetas), u)))
            a = np.concatenate(([X[0].real], 2.0 * X[1:5].real)) / 9
            b = np.concatenate(([0.0], -2.0 * X[1:5].imag)) / 9
            theta = trig_argopt_roots(a, b, sign)
            w = np.cos(theta) * v + np.sin(theta) * u
            w = w / np.linalg.norm(w)
            fw = sign * value(w)
            if fw <= f:
                break
            v, f = w, fw
        finals.append(sign * f)
    return min(finals) if sign < 0 else max(finals)
