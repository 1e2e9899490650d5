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

For Kähler-Einstein surface tensors, ``distinguished_frame`` rotates the
HSC minimizer to ``e_1`` and reads off the (H, A, B) data, with the frame
phase fixed so B is real and non-negative.
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


@dataclass(frozen=True)
class ExtremizeConfig:
    starts: int = 32
    max_iters: int = 500
    step_tolerance: float = 1e-9
    value_tolerance: float = 1e-12
    seed: int = 0
    oracle_samples: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.step_tolerance <= 0 or self.value_tolerance <= 0:
            raise ValueError("tolerances must be positive")
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
    return float(_values_batch(R, v[None, :])[0].real)


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
        vals = _values_batch(R, V).real
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


def _normalize_phase(v: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    for x in v:
        if abs(x) > tol:
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
    vals = _values_batch(R, W).real
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
        if gn <= cfg.step_tolerance * scale:
            converged = True
            break
        u = gt / gn
        a, b = _circle_coefficients(R, v, u)
        theta = _trig_argopt(a, b, sign)
        if abs(theta) < 1e-13:
            converged = gn <= 1e3 * cfg.step_tolerance * scale
            break
        w = np.cos(theta) * v + np.sin(theta) * u
        w = w / np.linalg.norm(w)
        fw = sign * _value(R, w)
        if fw < f:
            # the polynomial promised an improvement the floating-point
            # evaluation cannot deliver; we are at the numerical optimum
            converged = gn <= 1e3 * cfg.step_tolerance * scale
            break
        v, f = w, fw
    return sign * f, v, iters, converged


def _start_directions(n: int, cfg: ExtremizeConfig) -> list[np.ndarray]:
    starts: list[np.ndarray] = []
    for j in range(n):
        e = np.zeros(n, dtype=complex)
        e[j] = 1.0
        starts.append(e)
    for j in range(n):
        e = np.zeros(n, dtype=complex)
        e[j] = 1.0j
        starts.append(e)
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
    results: list[tuple[float, np.ndarray, int, bool]], pick_min: bool, tol: float
) -> tuple[float, Direction, bool]:
    values = [r[0] for r in results]
    best = min(values) if pick_min else max(values)
    candidates = [
        (r[1], r[3]) for r in results if abs(r[0] - best) <= tol * max(1.0, abs(best))
    ]
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
    return (*_merge(runs, sign < 0, cfg.value_tolerance), sum(r[2] for r in runs))


def extremize_hsc(
    tensor: KahlerCurvatureTensor, cfg: ExtremizeConfig = ExtremizeConfig()
) -> ExtremizeResult:
    """Best-of-starts HSC extremes over the unit sphere.

    Starts are the 2n coordinate directions (real and imaginary axes) padded
    with conjugate-paired random sphere points; each start runs a projected
    gradient descent and ascent.  Non-convergence is flagged on the result,
    not raised, so batch runs keep going.  Reported argmin/argmax are
    phase-normalized (first nonzero component real positive) and ties within
    value_tolerance break lexicographically.
    """
    starts = _start_directions(tensor.n, cfg)
    min_value, argmin, min_conv, min_iters = _best_of_starts(tensor.array, starts, -1.0, cfg)
    max_value, argmax, max_conv, max_iters = _best_of_starts(tensor.array, starts, +1.0, cfg)
    oracle_min = oracle_max = None
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


def distinguished_frame(
    tensor: KahlerCurvatureTensor,
    cfg: ExtremizeConfig | None = None,
    *,
    einstein_tol: float = 1e-8,
) -> DistinguishedFrame:
    """Recover the distinguished frame of a Kähler-Einstein surface tensor.

    Finds the HSC minimizer, completes it to a unitary frame with the phase
    of the second vector fixed so B is real and non-negative, and reads off
    (H, A, B) from the rotated tensor.  The residual is the largest magnitude
    over components with three equal indices, which vanish for genuinely
    Einstein inputs.

    Raises NotSurface unless n = 2 and NotEinstein (with the measured Ricci
    anisotropy) when the Ricci eigenvalue spread exceeds einstein_tol.
    """
    if tensor.n != 2:
        raise NotSurface(f"distinguished frame requires n=2, got n={tensor.n}")
    ric = ricci(tensor)
    eigs = np.linalg.eigvalsh(ric)
    anisotropy = float(eigs[-1] - eigs[0])
    if anisotropy > einstein_tol:
        raise NotEinstein(
            f"tensor is not Einstein within {einstein_tol:g} "
            f"(Ricci anisotropy {anisotropy:.3g})",
            anisotropy=anisotropy,
        )
    if cfg is None:
        cfg = ExtremizeConfig(starts=16)
    _, argmin, _, _ = _best_of_starts(tensor.array, _start_directions(2, cfg), -1.0, cfg)
    v1 = argmin.vector
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
    return DistinguishedFrame(
        unitary=U,
        point=EinsteinFramePoint(H=H, A=A, B=B),
        residual=residual,
    )
