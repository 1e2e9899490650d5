"""Numerical extremization of HSC over the unit sphere of directions.

The objective is the smooth quartic ``f(v) = sum R[i,j,k,l] v_i conj(v_j)
v_k conj(v_l)`` restricted to ``|v| = 1``.  Multistart gradient ascent is
enough at these sizes: the Riemannian gradient is the cubic contraction of R
with (v, v, conj(v)) projected onto the sphere's tangent space, and each
step moves along the great circle it spans.  Restricted to a great circle
the objective is a quartic form in (cos t, sin t), so it has only the even
harmonics 0, 2 and 4, recovered by a 5-point DFT over the half circle.  The
line search is exact: every stationary angle is half the argument of a root
of a degree-4 polynomial, and the best of those angles is the circle's
global optimum, with no grid and no noise floor.

Every evaluation is one product with the n^2 x n^2 quartic matrix K of
``curvature``, which gives f alone (``_values_batch``) or f and its
gradient together (``_value_and_gradient``); the accepted step's product is
the next step's gradient.  The minimum of f is minus the maximum of -f,
whose matrix is -K, so one ascent serves both extremes.  The starts ascend
in lockstep as the rows of one array: each step is one fused product for
the rows still running, one product for all their circle samples and one
batch of companion-matrix eigenvalues, and each row stops on its own rule.

Determinism: start directions are derived from ``(seed, start index)``, the
ascent is deterministic, and the best-of-starts merge is an index-ordered
reduction.  Which rows are still running at each step, and so the shape of
every product, depends only on the inputs, and the kernel cuts large batches
into blocks of a fixed size; so identical configs give bitwise-identical
results on a given BLAS build.  A brute-force sphere-sampling oracle is
provided for cross-checks.

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
    _quartic_matrix,
    _value_and_gradient,
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
_MAX_STARTS = 4096  # bounds the starts x n^2 ascent product: 64 MB at n = 32
_MAX_ORACLE_SAMPLES = 1 << 24  # 256 sampling chunks: about 17 s at n = 6
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
        if self.starts > _MAX_STARTS:
            raise ValueError(f"starts must be <= {_MAX_STARTS}")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.oracle_samples < 0:
            raise ValueError("oracle_samples must be >= 0")
        if self.oracle_samples > _MAX_ORACLE_SAMPLES:
            raise ValueError(f"oracle_samples must be <= {_MAX_ORACLE_SAMPLES}")


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
    """Smallest, largest and mean HSC over ``samples`` sphere points."""

    min_value: float
    max_value: float
    mean: float
    samples: int


def sample_unit_sphere(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m uniform points on the unit sphere of C^n, as rows."""
    Z = rng.standard_normal((m, n)) + 1j * rng.standard_normal((m, n))
    return Z / np.linalg.norm(Z, axis=1, keepdims=True)


def sample_hsc(tensor: KahlerCurvatureTensor, m: int, seed: int = 0) -> SampleResult:
    """HSC extremes and mean over m uniform unit-sphere samples (values
    only, no directions).

    A brute-force oracle: deterministic per seed, chunked at a fixed size so
    results do not depend on memory pressure or parallelism.  Each chunk
    keeps only its min, max and sum.
    """
    if m < 1:
        raise ValueError("sample count must be >= 1")
    K = _quartic_matrix(tensor.array)
    rng = np.random.default_rng(seed)
    lo, hi, total = np.inf, -np.inf, 0.0
    for done in range(0, m, _CHUNK):
        vals = _values_batch(K, sample_unit_sphere(tensor.n, min(_CHUNK, m - done), rng))
        # argmin/argmax pick the first extreme entry; np.min and np.max may
        # return either zero when 0.0 and -0.0 tie
        lo = min(lo, float(vals[vals.argmin()]))
        hi = max(hi, float(vals[vals.argmax()]))
        total += float(vals.sum())
    return SampleResult(min_value=lo, max_value=hi, mean=total / m, samples=m)


def _normalize_phase(v: np.ndarray) -> np.ndarray:
    for x in v:
        if abs(x) > 1e-12:
            return v * (np.conj(x) / abs(x))
    return v


def _lex_key(v: np.ndarray) -> tuple:
    return tuple(np.column_stack((v.real, v.imag)).ravel())


_CIRCLE_SAMPLES = 5  # enough to fit harmonics 0, 2 and 4 exactly
_CIRCLE_ANGLES = np.pi * np.arange(_CIRCLE_SAMPLES) / _CIRCLE_SAMPLES
_HARMONICS = np.fft.fftfreq(_CIRCLE_SAMPLES, 1.0 / _CIRCLE_SAMPLES)  # 0, 1, 2, -2, -1


def _circle_coefficients(K: np.ndarray, V: np.ndarray, U: np.ndarray) -> np.ndarray:
    """Coefficients c, one row each, of f along the great circles cos(t) v +
    sin(t) u through matching rows of V and U.

    With Re<v,u> = 0 and |v| = |u| = 1 the restriction is a quartic form in
    (cos t, sin t), so it has only the even harmonics 0, 2 and 4: f(t) = sum
    c_k e^{2ikt} over |k| <= 2, in the order of ``_HARMONICS``.  Five
    equispaced samples on the half circle recover them via the DFT with no
    aliasing.  All circles are sampled in one call to the kernel.
    """
    m, n = V.shape
    W = (
        np.cos(_CIRCLE_ANGLES)[None, :, None] * V[:, None, :]
        + np.sin(_CIRCLE_ANGLES)[None, :, None] * U[:, None, :]
    )
    vals = _values_batch(K, W.reshape(m * _CIRCLE_SAMPLES, n)).reshape(m, _CIRCLE_SAMPLES)
    return np.fft.fft(vals, axis=1) / _CIRCLE_SAMPLES


def _trig_eval(c: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Row r of the coefficients c at the angles theta[r, :]."""
    return (np.exp(2j * theta[:, :, None] * _HARMONICS) @ c[:, :, None])[:, :, 0].real


def _trig_argopt(c: np.ndarray) -> np.ndarray:
    """Angle of the global maximum of the trig polynomial on each circle.

    With w = e^{2i theta}, df/dtheta = 2i sum k c_k w^k, so the stationary
    angles are half the root arguments of sum k c_k w^{k+2}, a degree-4
    polynomial with coefficients (2 c_2, c_1, 0, -conj(c_1), -2 conj(c_2));
    theta = 0 is always the last candidate, and the first best one wins.  The roots
    are the eigenvalues of the 4 x 4 companion matrices, all rows in one
    call.  A row with 2 c_2 exactly 0 has a zero constant term too, so it is
    multiplied by w to keep degree 4; the added root w = 0 has angle 0, a
    candidate already.  The zero row takes lead 1, so its roots are all 0.
    """
    c1, c2 = c[:, 1], c[:, 2]
    # highest power first
    coeffs = np.column_stack((2.0 * c2, c1, np.zeros_like(c1), -c1.conj(), -2.0 * c2.conj()))
    low = coeffs[:, 0] == 0
    coeffs[low, :-1] = coeffs[low, 1:]
    coeffs[coeffs[:, 0] == 0, 0] = 1.0
    m = len(coeffs)
    companion = np.zeros((m, 4, 4), dtype=complex)
    companion[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
    companion[:, np.arange(1, 4), np.arange(3)] = 1.0
    candidates = np.zeros((m, 5))
    candidates[:, :4] = 0.5 * np.angle(np.linalg.eigvals(companion))
    best = np.argmax(_trig_eval(c, candidates), axis=1)
    return candidates[np.arange(m), best]


def _ascend(
    K: np.ndarray, V0: np.ndarray, cfg: ExtremizeConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Gradient ascent of f with exact great-circle line search, from every
    row of V0 in lockstep.

    Each step takes the rows still running through one fused value and
    gradient product, one circle-sampling product and one batch of
    companion eigenvalues; each row stops by the rules of a lone ascent.
    Returns per-row (f, v, iters, converged).
    """
    V = V0 / np.linalg.norm(V0, axis=1, keepdims=True)
    F, G = _value_and_gradient(K, V)
    iters = np.zeros(len(V), dtype=int)
    converged = np.zeros(len(V), dtype=bool)
    rows = np.arange(len(V))
    for step in range(1, cfg.max_iters + 1):
        iters[rows] = step
        v, f, g = V[rows], F[rows], G[rows]
        # Re<v, g> = 4 f by Euler's rule for the degree-4 f, and scaling by 4 is exact
        gt = g - 4.0 * f[:, None] * v
        gn = np.linalg.norm(gt, axis=1)
        scale = np.maximum(1.0, np.abs(f))
        moving = gn > _STEP_TOLERANCE * scale
        converged[rows[~moving]] = True
        rows = rows[moving]
        if not rows.size:
            break
        v, f, gn, scale = v[moving], f[moving], gn[moving], scale[moving]
        u = gt[moving] / gn[:, None]
        theta = _trig_argopt(_circle_coefficients(K, v, u))[:, None]
        w = np.cos(theta) * v + np.sin(theta) * u
        w = w / np.linalg.norm(w, axis=1, keepdims=True)
        fw, gw = _value_and_gradient(K, w)
        # the best step on the circle (theta = 0 included) gives no
        # floating-point improvement: that row is at the numerical optimum
        stalled = fw <= f
        converged[rows[stalled]] = gn[stalled] <= 1e3 * _STEP_TOLERANCE * scale[stalled]
        up = ~stalled
        rows = rows[up]
        V[rows], F[rows], G[rows] = w[up], fw[up], gw[up]
    return F, V, iters, converged


def _start_directions(n: int, cfg: ExtremizeConfig) -> np.ndarray:
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
    return np.array(starts[: cfg.starts])


def _best_of_starts(
    K: np.ndarray, starts: np.ndarray, cfg: ExtremizeConfig
) -> tuple[float, Direction, bool, int]:
    """Best value of the ascents of f from every start (one row each), its
    direction, whether any start tied for it converged, and the total
    iteration count.  Directions tied within ``_VALUE_TOLERANCE`` are
    phase-normalized and the lexicographically first one is reported."""
    values, V, iters, converged = _ascend(K, starts, cfg)
    best = float(values.max())
    ties = np.flatnonzero(best - values <= _VALUE_TOLERANCE * max(1.0, abs(best)))
    argbest = min((_normalize_phase(V[i]) for i in ties), key=_lex_key)
    return best, Direction(argbest), bool(converged[ties].any()), int(iters.sum())


def extremize_hsc(
    tensor: KahlerCurvatureTensor, cfg: ExtremizeConfig = ExtremizeConfig()
) -> ExtremizeResult:
    """Best-of-starts HSC extremes over the unit sphere.

    Starts are the 2n coordinate directions (real and imaginary axes) padded
    with conjugate-paired random sphere points; ``cfg.starts`` counts the n
    phase copies ``i e_j`` too.  Each start runs a projected gradient ascent
    of f for the maximum and of -f (matrix -K) for the minimum, reported as
    ``0.0 - best`` so that a zero minimum is +0.0.  Non-convergence is
    flagged on the result, not raised, so batch runs keep going.  Reported
    argmin/argmax are phase-normalized (first nonzero component real
    positive) and ties within a relative 1e-12 break lexicographically.  A
    value beyond the float range raises FloatingPointError.
    """
    K = _quartic_matrix(tensor.array)
    starts = _start_directions(tensor.n, cfg)
    oracle_min = oracle_max = None
    with np.errstate(over="raise"):
        neg_min, argmin, min_conv, min_iters = _best_of_starts(-K, starts, cfg)
        max_value, argmax, max_conv, max_iters = _best_of_starts(K, starts, cfg)
        if cfg.oracle_samples > 0:
            oracle = sample_hsc(tensor, cfg.oracle_samples, cfg.seed)
            oracle_min = oracle.min_value
            oracle_max = oracle.max_value
    return ExtremizeResult(
        min_value=0.0 - neg_min,
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
