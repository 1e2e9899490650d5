"""Numerical extremization of HSC over the unit sphere of directions.

The objective is the smooth quartic ``f(v) = sum R[i,j,k,l] v_i conj(v_j)
v_k conj(v_l)`` restricted to ``|v| = 1``.  Multistart gradient ascent is
enough at these sizes: the Riemannian gradient is the cubic contraction of R
with (v, v, conj(v)) projected onto the sphere's tangent space, and each
step moves along the great circle it spans.  Restricted to a great circle
the objective is exactly a degree-4 trigonometric polynomial, recovered by a
9-point DFT.  The line search is exact: every stationary angle is the
argument of a root of a degree-8 polynomial, and the best of those angles
is the circle's global optimum, with no grid and no noise floor.

Determinism: start directions are derived from ``(seed, start index)``, the
ascent itself is deterministic, and the best-of-starts merge is an
index-ordered reduction, so identical configs give bitwise-identical
results.  A brute-force sphere-sampling oracle is provided for cross-checks.

``distinguished_frame`` needs no optimizer: for a unit v in C^2, ``v v^H =
(I + s.sigma) / 2`` with s on the Bloch sphere, so HSC is ``c + b.s + s^T Q
s``, where b = 0 for Einstein tensors, and Q's bottom eigenvector gives the
minimizer exactly.  The frame rotates it to ``e_1`` and reads off (H, A, B),
with the phase fixed so B is real and non-negative.  Within the 1e-8 Einstein
tolerance H may miss the true minimum by about the Ricci anisotropy, which
the frame's residual reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .curvature import (
    Direction,
    EinsteinFramePoint,
    KahlerCurvatureTensor,
    _values_batch,
    ricci,
    transform_frame,
)
from .errors import NotEinstein, NotSurface

__all__ = [
    "DistinguishedFrame",
    "ExtremizeConfig",
    "ExtremizeResult",
    "SampleResult",
    "distinguished_frame",
    "extremize_hsc",
    "sample_hsc",
    "sample_unit_sphere",
]

_CHUNK = 65536  # fixed batch size keeps sampling bitwise-deterministic
_STEP_TOLERANCE = 1e-9  # relative tangent-gradient norm at which an ascent stops
_VALUE_TOLERANCE = 1e-12  # relative gap within which two optima tie
_EINSTEIN_TOLERANCE = 1e-8  # largest Ricci eigenvalue spread of an Einstein tensor
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


@dataclass(frozen=True)
class ExtremizeConfig:
    starts: int = 32
    max_iters: int = 500
    seed: int = 0
    oracle_samples: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.oracle_samples < 0:
            raise ValueError("oracle_samples must be >= 0")


@dataclass(frozen=True, eq=False)
class ExtremizeResult:
    min_value: float
    max_value: float
    argmin: Direction
    argmax: Direction
    iterations_used: int
    min_converged: bool
    max_converged: bool
    oracle_min: float | None = None
    oracle_max: float | None = None

    @property
    def converged(self) -> bool:
        return self.min_converged and self.max_converged

    def to_payload(self) -> dict:
        return {
            "n": self.argmin.n,
            "min_value": self.min_value,
            "max_value": self.max_value,
            "argmin": [[z.real, z.imag] for z in self.argmin.vector],
            "argmax": [[z.real, z.imag] for z in self.argmax.vector],
            "iterations_used": self.iterations_used,
            "min_converged": self.min_converged,
            "max_converged": self.max_converged,
            "oracle_min": self.oracle_min,
            "oracle_max": self.oracle_max,
        }


@dataclass(frozen=True, eq=False)
class SampleResult:
    min_value: float
    max_value: float
    argmin: Direction
    argmax: Direction
    mean: float
    samples: int


def _value(R: np.ndarray, v: np.ndarray) -> float:
    return float(_values_batch(R, v[None, :])[0])


def _gradient(R: np.ndarray, v: np.ndarray) -> np.ndarray:
    # Euclidean gradient of f in R^{2n} coordinates, as a complex vector:
    # 2 d f / d conj(v), doubled again by the two barred slots.
    return 4.0 * np.einsum("imkl,i,k,l->m", R, v, v, v.conj())


def sample_unit_sphere(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m uniform points on the unit sphere of C^n, as rows."""
    Z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return Z / np.linalg.norm(Z, axis=1, keepdims=True)


def sample_hsc(tensor: KahlerCurvatureTensor, m: int, seed: int = 0) -> SampleResult:
    """HSC extremes (and mean) over m uniform unit-sphere samples.

    A brute-force oracle: deterministic per seed, chunked at a fixed size so
    results do not depend on memory pressure or parallelism.
    """
    if m < 1:
        raise ValueError("sample count must be >= 1")
    R = tensor.array
    n = tensor.n
    rng = np.random.default_rng(seed)
    best_min = np.inf
    best_max = -np.inf
    arg_min = arg_max = None
    total = 0.0
    done = 0
    while done < m:
        count = min(_CHUNK, m - done)
        V = sample_unit_sphere(n, count, rng)
        vals = _values_batch(R, V)
        i_min = int(np.argmin(vals))
        i_max = int(np.argmax(vals))
        if vals[i_min] < best_min:
            best_min = float(vals[i_min])
            arg_min = V[i_min].copy()
        if vals[i_max] > best_max:
            best_max = float(vals[i_max])
            arg_max = V[i_max].copy()
        total += float(vals.sum())
        done += count
    return SampleResult(
        min_value=best_min,
        max_value=best_max,
        argmin=Direction(_normalize_phase(arg_min)),
        argmax=Direction(_normalize_phase(arg_max)),
        mean=total / m,
        samples=m,
    )


def _normalize_phase(v: np.ndarray) -> np.ndarray:
    for x in v:
        if abs(x) > 1e-12:
            return v * (np.conj(x) / abs(x))
    return v


def _lex_key(v: np.ndarray) -> tuple:
    return tuple(np.column_stack((v.real, v.imag)).ravel())


_CIRCLE_SAMPLES = 9  # enough to fit a degree-4 trig polynomial exactly


def _circle_coefficients(
    R: np.ndarray, v: np.ndarray, u: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Fourier coefficients of f along the great circle cos(t) v + sin(t) u.

    With Re<v,u> = 0 and |v| = |u| = 1 the restriction is exactly a real
    trigonometric polynomial of degree 4, so nine equispaced samples recover
    its coefficients via the DFT with no fitting error.
    """
    thetas = 2.0 * np.pi * np.arange(_CIRCLE_SAMPLES) / _CIRCLE_SAMPLES
    W = np.outer(np.cos(thetas), v) + np.outer(np.sin(thetas), u)
    vals = _values_batch(R, W)
    X = np.fft.rfft(vals)
    a = np.zeros(5)
    b = np.zeros(5)
    a[0] = X[0].real / _CIRCLE_SAMPLES
    a[1:5] = 2.0 * X[1:5].real / _CIRCLE_SAMPLES
    b[1:5] = -2.0 * X[1:5].imag / _CIRCLE_SAMPLES
    return a, b


def _trig_eval(a: np.ndarray, b: np.ndarray, theta) -> np.ndarray:
    k = np.arange(5)
    kt = np.multiply.outer(np.asarray(theta), k)
    return np.cos(kt) @ a + np.sin(kt) @ b


def _trig_argopt(a: np.ndarray, b: np.ndarray, sign: float) -> float:
    """Angle of the global optimum of sign * (trig polynomial) on the circle.

    The polynomial is sum c_k z^k over |k| <= 4 with z = e^{i theta}, so
    stationary angles are root arguments of z^4 f'(z) = sum i k c_k z^{k+4};
    theta = 0 stands in when there are none.
    """
    c = 0.5 * (a - 1j * b)
    c[0] = a[0]
    k = np.arange(-4, 5)
    coeffs = 1j * k * np.concatenate((c[:0:-1].conj(), c))
    candidates = np.append(np.angle(np.roots(coeffs[::-1])), 0.0)
    return float(candidates[np.argmax(sign * _trig_eval(a, b, candidates))])


def _ascend(
    R: np.ndarray, v0: np.ndarray, sign: float, cfg: ExtremizeConfig
) -> tuple[float, np.ndarray, int, bool]:
    """Gradient ascent of sign*f with exact great-circle line search.

    Returns (f, v, iters, converged) with f the plain (unsigned) value.
    """
    v = v0 / np.linalg.norm(v0)
    f = sign * _value(R, v)
    converged = False
    iters = 0
    for iters in range(1, cfg.max_iters + 1):
        g = sign * _gradient(R, v)
        gt = g - np.vdot(v, g).real * v
        gn = float(np.linalg.norm(gt))
        scale = max(1.0, abs(f))
        if gn <= _STEP_TOLERANCE * scale:
            converged = True
            break
        u = gt / gn
        a, b = _circle_coefficients(R, v, u)
        theta = _trig_argopt(a, b, sign)
        w = np.cos(theta) * v + np.sin(theta) * u
        w = w / np.linalg.norm(w)
        fw = sign * _value(R, w)
        if fw <= f:
            # the best step on the circle (theta = 0 included) gives no
            # floating-point improvement; we are at the numerical optimum
            converged = gn <= 1e3 * _STEP_TOLERANCE * scale
            break
        v, f = w, fw
    return sign * f, v, iters, converged


def _start_directions(n: int, cfg: ExtremizeConfig) -> list[np.ndarray]:
    # the 2n coordinate axes, real then imaginary
    starts = [*np.eye(n, dtype=complex), *(1j * np.eye(n))]
    pair = 0
    while len(starts) < cfg.starts:
        rng = np.random.default_rng([cfg.seed, pair])
        w = sample_unit_sphere(n, 1, rng)[0]
        starts.append(w)
        if len(starts) < cfg.starts:
            # conjugate partner: -w would retrace the same orbit since
            # HSC(-v) = HSC(v), while conj(w) generically does not
            starts.append(w.conj())
        pair += 1
    return starts[: cfg.starts]


def _merge(
    results: list[tuple[float, np.ndarray, int, bool]], pick_min: bool
) -> tuple[float, Direction, bool]:
    values = [r[0] for r in results]
    best = min(values) if pick_min else max(values)
    tol = _VALUE_TOLERANCE * max(1.0, abs(best))
    candidates = [(r[1], r[3]) for r in results if abs(r[0] - best) <= tol]
    normalized = [(_normalize_phase(v), conv) for v, conv in candidates]
    normalized.sort(key=lambda item: _lex_key(item[0]))
    direction = Direction(normalized[0][0])
    converged = any(conv for _, conv in normalized)
    return best, direction, converged


def _best_of_starts(
    R: np.ndarray, starts: list[np.ndarray], sign: float, cfg: ExtremizeConfig
) -> tuple[float, Direction, bool, int]:
    """Merged best of the ascents of sign*f from every start, plus the
    total iteration count."""
    runs = [_ascend(R, v0, sign, cfg) for v0 in starts]
    return (*_merge(runs, sign < 0), sum(r[2] for r in runs))


def extremize_hsc(
    tensor: KahlerCurvatureTensor, cfg: ExtremizeConfig = ExtremizeConfig()
) -> ExtremizeResult:
    """Best-of-starts HSC extremes over the unit sphere.

    Starts are the 2n coordinate directions (real and imaginary axes) padded
    with conjugate-paired random sphere points; each start runs a projected
    gradient descent and ascent.  Non-convergence is flagged on the result,
    not raised, so batch runs keep going.  Reported argmin/argmax are
    phase-normalized (first nonzero component real positive) and ties within
    a relative 1e-12 break lexicographically.  A value beyond the float
    range raises FloatingPointError.
    """
    starts = _start_directions(tensor.n, cfg)
    oracle_min = oracle_max = None
    with np.errstate(over="raise"):
        min_value, argmin, min_conv, min_iters = _best_of_starts(tensor.array, starts, -1.0, cfg)
        max_value, argmax, max_conv, max_iters = _best_of_starts(tensor.array, starts, +1.0, cfg)
        if cfg.oracle_samples > 0:
            oracle = sample_hsc(tensor, cfg.oracle_samples, cfg.seed)
            oracle_min = oracle.min_value
            oracle_max = oracle.max_value
    return ExtremizeResult(
        min_value=min_value,
        max_value=max_value,
        argmin=argmin,
        argmax=argmax,
        iterations_used=min_iters + max_iters,
        min_converged=min_conv,
        max_converged=max_conv,
        oracle_min=oracle_min,
        oracle_max=oracle_max,
    )


@dataclass(frozen=True, eq=False)
class DistinguishedFrame:
    """Unitary frame change, recovered frame data, and vanishing residual."""

    unitary: np.ndarray
    point: EinsteinFramePoint
    residual: float


def distinguished_frame(tensor: KahlerCurvatureTensor) -> DistinguishedFrame:
    """Recover the distinguished frame of a Kähler-Einstein surface tensor.

    No optimizer: on the Bloch sphere HSC is c + s^T Q s, so the minimizer is
    the top eigenvector of ``s.sigma`` for Q's bottom eigenvector s, phase-
    normalized.  It is completed to a unitary frame with the second vector's
    phase fixed so B is real and non-negative, and (H, A, B) are read off the
    rotated tensor.  Exact for Einstein tensors; within the 1e-8 Einstein
    tolerance H may differ from the true minimum by about the anisotropy,
    which the residual (largest component with three equal indices) reports.

    Raises NotSurface unless n = 2 and NotEinstein (with the measured Ricci
    anisotropy) when the Ricci eigenvalue spread exceeds 1e-8.
    """
    if tensor.n != 2:
        raise NotSurface(f"distinguished frame requires n=2, got n={tensor.n}")
    eigs = np.linalg.eigvalsh(ricci(tensor))
    anisotropy = float(eigs[-1] - eigs[0])
    if anisotropy > _EINSTEIN_TOLERANCE:
        raise NotEinstein(
            f"tensor is not Einstein within {_EINSTEIN_TOLERANCE:g} "
            f"(Ricci anisotropy {anisotropy:.3g})",
            anisotropy=anisotropy,
        )
    # HSC = S^T T S for S = (1, Bloch vector s); T[0, 1:] is the traceless Ricci
    # part, zero here, so the minimizing s is the bottom eigenvector of T[1:, 1:]
    T = 0.25 * np.einsum("ijkl,aij,bkl->ab", tensor.array, _PAULI, _PAULI).real
    s = np.linalg.eigh(T[1:, 1:])[1][:, 0]
    v1 = _normalize_phase(np.linalg.eigh(np.einsum("a,aij->ij", s, _PAULI[1:]))[1][:, 1])
    v2 = np.array([-np.conj(v1[1]), np.conj(v1[0])])
    U = np.column_stack([v1, v2])
    Rp = transform_frame(tensor, U).array
    H = float(Rp[0, 0, 0, 0].real)
    A = float(Rp[0, 0, 1, 1].real)
    B = complex(Rp[0, 1, 0, 1])
    if abs(B) > 0.0:
        phase = np.exp(1j * np.angle(B) / 2.0)
        U = U @ np.diag([1.0, phase])
        B = abs(B)
    # components with three equal indices have an odd index sum when n = 2
    odd_mask = (np.indices(Rp.shape).sum(axis=0) % 2).astype(bool)
    residual = float(np.max(np.abs(Rp[odd_mask])))
    U.setflags(write=False)
    return DistinguishedFrame(U, EinsteinFramePoint(H=H, A=A, B=B), residual)
