"""Numerical extremization of HSC over the unit sphere of directions.

The objective is the smooth quartic ``f(v) = sum R[i,j,k,l] v_i conj(v_j)
v_k conj(v_l)`` restricted to ``|v| = 1``.  Multistart conjugate-gradient
ascent on the sphere (Absil, Mahony & Sepulchre, *Optimization Algorithms on
Matrix Manifolds*, 2008, ch. 8) is enough at these sizes: the Riemannian
gradient is the cubic contraction of R with (v, v, conj(v)) projected onto
the sphere's tangent space, the search direction adds the previous one,
carried along the last circle, with the Polak-Ribiere+ weight, and each step
moves along the great circle the direction spans.  Every 2n - 2 steps, the
real dimension of CP^{n-1} (the sphere less the phase direction), a row
restarts along the gradient: Powell (*Math. Programming* 12, 1977) showed
that conjugate gradient restarted every d steps in dimension d converges
quadratically per cycle, where the unrestarted Polak-Ribiere+ is linear.
Restricted to the plane of v and u the objective is a binary quartic,
f(a v + b u) = sum g_k a^(4-k) b^k: g_0 = f(v) and g_1, the slope along u,
are already known, and f at u and v +- u gives the other three.  The line
search is exact: every stationary angle t is a real root of a quartic in
tan t or in cot t (or t = pi/2), and the best of those angles is the
circle's global optimum, with no grid and no noise floor.  For 3 <= n <= 6
a row searches instead along the Riemannian Newton direction (ibid., ch. 6)
where the Hessian of its objective, on the tangents less the phase
direction, is negative definite with a margin, so that the local quadratic
model has a maximum: the Newton matrix X must stay positive definite less
1e-10 max |X_ij| on its diagonal, which bounds its condition number, so the
direction is finite and ascends.  Per step that is one batched Cholesky test
and one batched solve of real 2n-square systems, built from two GEMMs on v.
It about halves the lockstep steps; ``_ascend`` gives the reasons for the
cutoffs.

Every evaluation is one product with the quartic matrix K of ``curvature``,
folded onto Sym^2(C^n), which gives f alone (``_values_batch``) or f and
its gradient together (``_value_and_gradient``); the accepted step's product
is the next step's gradient.  The minimum of f is minus the maximum of -f,
and negating f, its gradient and its circle coefficients is exact, so every
start ascends twice, once per sign, and all those ascents run in lockstep
as the rows of one array: each step is one fused product for the rows still
running, one product that fits all their circles and one call of LAPACK's
eigenvalue routine on all their real 4 x 4 companion matrices, and each row
stops on its own rule.  That call goes to numpy's batched gufunc directly,
since at n = 2 a step's arrays hold a few dozen numbers and the cost is
numpy's per-call overhead; the guards of ``np.linalg.eigvals`` are kept
explicit, so a non-finite circle raises rather than giving a NaN step.

Determinism: the random starts are the rows of one stream seeded by a
child of ``seed``, the ascent is deterministic, and the best-of-starts
merge is an index-ordered reduction.  Which rows are still running at
each step, and so the shape of every product, depends only on the inputs,
and the kernel cuts large batches into blocks of a fixed size; so
identical configs give bitwise-identical results on a given BLAS build.
The brute-force cross-check oracle evaluates Gaussian rows z in block
buffers allocated once per call, as f(z) / |z|^4 = f(z / |z|).

``distinguished_frame`` needs no optimizer: for a unit v in C^2, ``v v^H =
(I + s.sigma) / 2`` with s on the Bloch sphere, so HSC is ``c + b.s + s^T Q
s``, where b = 0 for Einstein tensors, and Q's bottom eigenvector gives the
minimizer exactly.  The frame rotates it to ``e_1`` and reads off (H, A, B),
with the phase fixed so B is real and non-negative.  Within the Einstein
tolerance, 1e-8 max |R_ijkl|, H may miss the true minimum by about the Ricci
anisotropy, which the frame's residual reports.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from ._config import ExtremizeConfig
from .curvature import (
    _KERNEL_ROWS,
    Direction,
    KahlerCurvatureTensor,
    _block_values,
    _quartic_matrix,
    _re_dot,
    _value_and_gradient,
    _values_batch,
    ricci,
    transform_frame,
)
from .errors import NotEinstein, NotSurface
from .surface import EinsteinFramePoint

__all__ = [
    "DistinguishedFrame",
    "ExtremizeConfig",
    "ExtremizeResult",
    "SampleResult",
    "distinguished_frame",
    "extremize_hsc",
    "sample_hsc",
]

# the scale rule: the next two are relative to max(|f|, 1), and a tensor R with max |R_ijkl| < 1 is ascended as
# R 2^-e, that max in [1/2, 1), its extremes scaled back by 2^e: exact, so R times a power of two changes only the
# extremes' exponents, down to subnormal R; above max |R_ijkl| = 1 the tests stay absolute below |f| = 1
_STEP_TOLERANCE = 1e-9  # relative tangent-gradient norm at which an ascent stops
_VALUE_TOLERANCE = 1e-12  # relative gap within which two optima tie
_EINSTEIN_TOLERANCE = 1e-8  # largest Ricci eigenvalue spread of an Einstein tensor, over max |R_ijkl|
_MAX_ITERS = 500  # ascent steps per start before it is reported unconverged
_NEWTON_MAX_N = 6  # the ascent takes Newton directions for 3 <= n <= this
_NEWTON_MARGIN = 1e-10  # relative eigenvalue margin of a Newton matrix; bounds its condition number
_SUBDIAGONAL = np.eye(4, k=-1)  # the companion matrix of a monic quartic, less its top row
# t^j of a circle's tan quartic (``_companions``) is (j + 1) g_(j+1) - (5 - j) g_(j-1): j + 1 for j = 3, 2, 1
_DEGREES = np.array([4.0, 3.0, 2.0])
# the components of an n = 2 tensor with three equal indices: those with an odd index sum
_ODD_INDEX_SUM = np.indices((2,) * 4).sum(axis=0) % 2 == 1
_PAULI = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]])


@dataclass(frozen=True, eq=False)
class ExtremizeResult:
    """HSC extremes, their directions, ascent steps, convergence and oracle values.

    ``iterations_used`` sums the steps of every ascent, and ``steps`` is the
    most steps one ascent took, the length of the lockstep loop.  Per side,
    ``*_starts_at_best`` counts the starts whose ascent ties the best value
    within ``_VALUE_TOLERANCE``, and ``*_capped`` the starts still running
    after ``_MAX_ITERS`` steps.
    """

    min_value: float
    max_value: float
    argmin: Direction
    argmax: Direction
    iterations_used: int
    steps: int
    min_converged: bool
    max_converged: bool
    min_starts_at_best: int
    max_starts_at_best: int
    min_capped: int
    max_capped: int
    oracle_min: float | None = None
    oracle_max: float | None = None

    @property
    def converged(self) -> bool:
        return self.min_converged and self.max_converged

    def to_payload(self) -> dict:
        """Every field, each direction as [re, im] pairs, and n."""
        payload = asdict(self)
        for side in ("argmin", "argmax"):
            payload[side] = [[z.real, z.imag] for z in getattr(self, side).vector]
        return {"n": self.argmin.n, **payload}


@dataclass(frozen=True, eq=False)
class SampleResult:
    """Smallest, largest and mean HSC over ``samples`` sphere points."""

    min_value: float
    max_value: float
    mean: float
    samples: int


def _sample_unit_sphere(n: int, m: int, rng: np.random.Generator) -> np.ndarray:
    """m uniform points on the unit sphere of C^n, as rows; row k reads only
    the normal variates 2nk ... 2nk + 2n - 1, so m rows are a prefix of m + 1."""
    Z = rng.standard_normal((m, 2 * n)).view(complex)
    return Z / np.linalg.norm(Z, axis=1, keepdims=True)


def sample_hsc(tensor: KahlerCurvatureTensor, m: int, seed: int = 0) -> SampleResult:
    """HSC extremes and mean over m uniform unit-sphere samples (values
    only, no directions).

    A brute-force oracle, deterministic per seed: unnormalized rows z of
    ``_sample_unit_sphere``'s stream are evaluated as f(z) / |z|^4 = f(z / |z|)
    and reduced to their min, max and sum one ``_KERNEL_ROWS`` block at a
    time, in buffers allocated once per call, so memory stays at one block
    and results do not depend on memory pressure or parallelism.  Overflow
    raises FloatingPointError.
    """
    if m < 1:
        raise ValueError("sample count must be >= 1")
    rng = np.random.default_rng(seed)
    lo, hi, total = np.inf, -np.inf, np.float64(0.0)
    with np.errstate(over="raise", invalid="raise"):  # total is a numpy scalar, so its overflow raises too
        K = _quartic_matrix(tensor.array)
        X, Y = np.empty((2, min(m, _KERNEL_ROWS), len(K[0])), dtype=complex)
        Z, vals, q = np.empty((len(X), 2 * tensor.n)), np.empty(len(X)), np.empty(len(X))
        for done in range(0, m, _KERNEL_ROWS):
            k = min(_KERNEL_ROWS, m - done)
            z, v, qk = rng.standard_normal(out=Z[:k]), vals[:k], q[:k]
            _block_values(K, z.view(complex), X[:k], Y[:k], v)
            v /= np.square(np.vecdot(z, z, out=qk), out=qk)
            # argmin/argmax pick the first extreme entry; np.min and np.max may
            # return either zero when 0.0 and -0.0 tie
            lo = min(lo, float(v[v.argmin()]))
            hi = max(hi, float(v[v.argmax()]))
            total += v.sum()
    return SampleResult(min_value=lo, max_value=hi, mean=float(total) / m, samples=m)


def _normalize_phases(V: np.ndarray) -> np.ndarray:
    """The unit rows of V, each with its first component x above 1e-12 in
    modulus made real and positive.  Moduli are ``np.hypot``, which matches
    Python's abs of a complex scalar bit for bit, where numpy's SIMD complex
    abs does not."""
    modulus = np.hypot(V.real, V.imag)
    first = np.argmax(modulus > 1e-12, axis=1)
    rows = np.arange(len(V))
    return V * (V[rows, first].conj() / modulus[rows, first])[:, None]


def _circle_coefficients(K: tuple, V: np.ndarray, U: np.ndarray, f, slope, s) -> np.ndarray:
    """Coefficients g, one row each, of the binary quartic ``s f(a v + b u) =
    sum g_k a^(4-k) b^k`` on matching rows of V and U, with s = +-1 per row:
    g_0 = s f(v) and the slope g_1 = s Re<grad f(v), u> are given, one kernel
    call on the rows u and v +- u gives g_4 = s f(u), and the even and odd
    parts of s f(v +- u) give g_2 and g_3."""
    fu, fp, fm = s * _values_batch(K, np.concatenate((U, V + U, V - U))).reshape(3, len(V))
    g = np.empty((5, len(V)))
    g[0], g[1], g[4] = f, slope, fu
    g[2] = 0.5 * (fp + fm) - f - fu
    g[3] = 0.5 * (fp - fm) - slope
    return g.T


def _trig_eval(g: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Row r of the binary quartics g at (c, s) = (cos, sin) of the angles
    theta[r, :], as (g_0 c^2 + g_1 cs + g_2 s^2) c^2 + (g_3 cs + g_4 s^2) s^2:
    every product has |c|, |s| <= 1, so no term exceeds its |g_k|."""
    c, s = np.cos(theta), np.sin(theta)
    cc, cs, ss = c * c, c * s, s * s
    g0, g1, g2, g3, g4 = g.T[:, :, None]
    return (g0 * cc + g1 * cs + g2 * ss) * cc + (g3 * cs + g4 * ss) * ss


def _companions(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The 4 x 4 companion matrices whose eigenvalues t are the stationary
    angles of the binary quartics g as tan or cot, and per row whether cot.

    With t = tan(theta), dg/dtheta / cos^4 is the real quartic (-g_3, 4 g_4
    - 2 g_2, 3 g_3 - 3 g_1, 2 g_2 - 4 g_0, g_1) in t, highest power first.
    Where |g_3| < |g_1| its reverse, the quartic in cot(theta), is taken, so
    the lead is the larger end one (never 0 in the ascent, where g_1 > 0)
    and no rounding-level lead blows up the companion matrix.  That reverse
    is minus the tan quartic of g reversed, whose companion matrix is the
    same bit for bit (but for the sign of a zero entry), so a cot row is
    read as g reversed.  Each zero lead is shifted out, multiplying by t and
    adding the root t = 0; an all-zero row takes lead 1, so its roots are
    all 0.  A non-finite coefficient or companion entry raises LinAlgError.
    """
    cot = np.abs(g[:, 3]) < np.abs(g[:, 1])
    g = np.where(cot[:, None], g[:, ::-1], g)
    m = len(g)
    coeffs = np.empty((m, 5))
    np.negative(g[:, 3], out=coeffs[:, 0])
    np.subtract(_DEGREES * g[:, 4:1:-1], _DEGREES[::-1] * g[:, 2::-1], out=coeffs[:, 1:4])
    coeffs[:, 4] = g[:, 1]
    shifted = False
    for _ in range(4):
        low = coeffs[:, 0] == 0
        if not low.any():
            break
        shifted = True
        coeffs[low] = np.roll(coeffs[low], -1, axis=1)
    else:  # only a row of zeros keeps a zero lead after four shifts
        coeffs[coeffs[:, 0] == 0, 0] = 1.0
    companion = np.empty((m, 4, 4))
    companion[:] = _SUBDIAGONAL
    top = companion[:, 0]
    np.divide(coeffs[:, 1:], coeffs[:, :1], out=top)
    np.negative(top, out=top)
    # a finite lead and top row make every g_k finite; an infinite unshifted lead (-g_3 or
    # -g_1) makes 3 g_3 - 3 g_1 infinite or NaN and the top row NaN, so only a shifted one is checked
    if not np.isfinite(top).all() or (shifted and not np.isfinite(coeffs[:, 0]).all()):
        raise np.linalg.LinAlgError("a circle's quartic has a non-finite coefficient")
    return companion, cot


def _trig_argopt(g: np.ndarray) -> np.ndarray:
    """Angle theta of the global maximum of g(cos theta, sin theta) per row.

    The real part t of each eigenvalue of the rows' companion matrices
    (``_companions``) gives the candidate arctan(t) (pi/2 - arctan(t) for
    cot); pi/2 and 0 come last, and the first best one wins.  All rows
    reach LAPACK in one call of the batched gufunc that
    ``np.linalg.eigvals`` wraps, which returns the same roots bit for bit
    without the wrapper's checks and conversions.  So the wrapper's guards
    are explicit: ``_companions`` raises on a non-finite entry, and a stack
    that does not converge, which the gufunc flags as an invalid value,
    raises FloatingPointError.  No row yields a NaN angle.
    """
    companion, cot = _companions(g)
    with np.errstate(invalid="raise"):
        roots = np.arctan(_umath_linalg.eigvals(companion, signature="d->D").real)
    candidates = np.zeros((len(g), 6))
    candidates[:, :4] = np.where(cot[:, None], 0.5 * np.pi - roots, roots)
    candidates[:, 4] = 0.5 * np.pi
    best = np.argmax(_trig_eval(g, candidates), axis=1)
    return candidates[np.arange(len(g)), best]


def _norms(a: np.ndarray) -> np.ndarray:
    """|a| per row of a complex array."""
    return np.sqrt(_re_dot(a, a))


def _newton_matrix(K: tuple, V: np.ndarray, f: np.ndarray, w: np.ndarray, s: np.ndarray) -> np.ndarray:
    """Per row, the real 2n x 2n matrix X = c (q_1 q_1^T + q_2 q_2^T) - Pi M
    Pi for the objective s f, with complex vectors as their interleaved
    float views: f and 4 w are its value and tangent gradient, M = H / 4 -
    f for its Euclidean Hessian H, q_1 = v, q_2 = i v, Pi the projection
    off both, and c the largest |entry| of M.

    H xi = s (8 P xi + 4 Y conj(xi)), with P from one GEMM of v (x) conj(v)
    against ``K[4]`` and Y = (v (x) v) K from one of x_s against ``K[2]``,
    both unblocked.  Row 2a of the real matrix of xi -> A xi + B conj(xi) is
    the float view of row a of conj(A) + B, and row 2a + 1 that of i
    (conj(A) - B); for M, A = 2 s P - f and B = s Y.  On the
    horizontal space <v, xi> = 0, the tangents of the sphere less the phase
    direction i v, along which f is flat, Pi M Pi is a quarter of the
    Riemannian Hessian of s f (Absil, Mahony & Sepulchre 2008, ch. 5), with
    4 f = Re<v, grad> by Euler's rule.  By Euler's rule again M v = 3 w + 2
    f v, and M i v = i w; so with Q = (q_1, q_2), X = E Q^T + Q E^T - M for
    E = (3 w + (f + c / 2) v, i (w + c v / 2)).  X is c on the plane of v
    and i v, and minus the Riemannian Hessian on the horizontal space, so it
    is positive definite exactly where that Hessian is negative definite."""
    m, n = V.shape
    S = (((-2.0 * s)[:, None] * V)[:, :, None] * V.conj()[:, None, :]).reshape(m, n * n) @ K[4]
    S[:, :: n + 1] += f[:, None]
    S = S.reshape(m, n, n)  # -conj(A)
    B = s[:, None, None] * ((V[:, K[0]] * V[:, K[1]]) @ K[2]).reshape(m, n, n)
    X = np.empty((m, 2 * n, 2 * n))
    rows = X.reshape(m, n, 2, 2 * n)
    rows[:, :, 0] = (S - B).view(float)
    rows[:, :, 1] = (1j * (S + B)).view(float)
    half_cv = (0.5 * np.abs(X).max(axis=(1, 2)))[:, None] * V
    EQ = np.stack((3.0 * w + f[:, None] * V + half_cv, 1j * (w + half_cv), V, 1j * V), axis=1).view(float)
    EQ = EQ[:, :2].transpose(0, 2, 1) @ EQ[:, 2:]
    X += EQ
    X += EQ.transpose(0, 2, 1)
    return X


def _newton_direction(K: tuple, V: np.ndarray, f: np.ndarray, g: np.ndarray, s: np.ndarray) -> np.ndarray:
    """The Riemannian Newton direction of s f per row, the horizontal xi with
    Pi (H - 4 f) Pi xi = -g for the value f, tangent gradient g and
    Euclidean Hessian H of s f, on the rows whose Newton matrix X keeps a
    margin: X - delta a I is positive definite, for a = max |X_ij| of the row
    and delta = ``_NEWTON_MARGIN``; 0 on the other rows.  So Pi (H - 4 f) Pi
    is negative definite on the horizontal space there.

    Numpy's batched Cholesky gufunc, which ``np.linalg.cholesky`` wraps and
    then raises for the whole stack, writes NaN for each matrix that is not
    positive definite; so one call on the shifted matrices sorts the rows,
    and the unshifted X xi = g / 4 is solved, with the identity on the rows
    that fail.  On an accepted row of size 2n, n <= 6:

    - lambda_max(X) <= 2n a and lambda_min(X) > delta a, so cond(X) < 2n /
      delta <= 1.2e11, far from 1 / eps, and the partial-pivoting LU of
      ``np.linalg.solve`` meets no zero pivot.
    - X is c on the plane of v and i v, so a >= c / (2n), and 3 g / 4 = Pi M
      v gives |g| / 4 <= 2n c / 3; so |xi| < 4 n^2 / (3 delta), about 5e11,
      and no square of it overflows.
    - Re<g, xi> = 4 xi^T X xi > 0: the direction ascends."""
    w = 0.25 * g
    X = _newton_matrix(K, V, f, w, s)
    eye = np.eye(X.shape[1])
    with np.errstate(all="ignore"):
        shifted = X - (_NEWTON_MARGIN * np.abs(X).max(axis=(1, 2)))[:, None, None] * eye
        definite = np.isfinite(_umath_linalg.cholesky_lo(shifted)[:, 0, 0])
    X[~definite] = eye
    xi = np.linalg.solve(X, w.view(float)[:, :, None])[:, :, 0].view(complex)
    return np.where(definite[:, None], xi, 0.0)


def _ascend(
    K: tuple, V0: np.ndarray, signs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Conjugate-gradient ascent of s f with exact great-circle line search,
    from every row of V0 in lockstep, with s = signs[row] = +-1, and
    tolerances relative to max(|f|, 1) (the scale rule at ``_STEP_TOLERANCE``).

    The search direction is Polak-Ribiere+: d = g + beta T(d_prev) with
    beta = max(0, Re<g, g - g_prev> / |g_prev|^2) on tangent gradients,
    projected onto the complex-orthogonal complement of v (which also drops
    the phase direction i v), where T(d_prev) is the tangent of the accepted
    circle at the new point.  A row steps along g itself when it restarts,
    when beta = 0 or when Re<g, d> <= 0.  A row restarts at its first step,
    after a conjugate step that does not improve, and 2n - 2 steps after its
    last restart: 2n - 2 is the real dimension of CP^{n-1}, and this is
    Powell's restart (*Math. Programming* 12, 1977), quadratic per cycle
    near a nondegenerate optimum.  A gradient step that does not improve
    stops the row.  Each step takes the rows still running through one
    fused value and gradient product, one product on u and v +- u that fits
    each circle with the value and slope the row holds, and one batch of
    companion eigenvalues.  Negating f, g and the circle coefficients is
    exact, so a row with s = -1 descends f exactly as a row of -K would.

    Rows leave in one place, the top test of a step, which takes the
    tangent gradient norm |g_t| of each running row.  On step k a row
    leaves with step count k when |g_t| <= ``_STEP_TOLERANCE`` max(1, |f|);
    a row that stopped on step k - 1 leaves there too, with step count
    k - 1 and its point, value and gradient unchanged since.  A leaving row
    has converged when |g_t| <= 1e3 ``_STEP_TOLERANCE`` max(1, |f|), which
    the first kind always meets.  One more pass after step ``_MAX_ITERS``
    lets the rows that stopped on it leave; the rows still running after
    it are capped, with ``_MAX_ITERS`` steps, and unconverged.

    At a few dozen numbers per array a step costs numpy calls, not
    arithmetic, so it works only on what changes.  Running rows carry their
    point, value and gradient, written back with their step count only when
    they leave, and the carried arrays are cut down only on a step where a
    row leaves.  When every row restarts (every other step at n = 2) the
    Polak-Ribiere algebra is skipped, its beta being exactly 0.

    For 3 <= n <= ``_NEWTON_MAX_N`` a row instead searches along the
    Riemannian Newton direction xi of s f (``_newton_direction``) where the
    Hessian of s f on the horizontal space is negative definite with the
    margin ``_NEWTON_MARGIN``, which makes xi finite and ascending, unless
    the row stalled on the step before; its circle is then the one through
    the maximum of the local quadratic model, which about halves the steps.
    Newton seeks any critical point, saddles included, and the definiteness
    test keeps it off them (``test_ascent_ends_at_local_optima_not_saddles``).
    A Newton step that does not improve counts as a conjugate one: the row
    restarts along g.  Far from an optimum the Hessian is indefinite, which
    is why Newton rides on conjugate gradient rather than replacing it.
    At n = 2 Newton saves steps but not time, and past 6, the largest n the
    benchmark runs, its gain is unverified; there no Newton system is built.

    Returns per-row (s f, v, iters, converged, capped), where capped rows
    were still running after ``_MAX_ITERS`` steps.
    """
    V = V0 / _norms(V0)[:, None]
    newton = 3 <= V.shape[1] <= _NEWTON_MAX_N
    F, g = _value_and_gradient(K, V)
    F, g = signs * F, signs[:, None] * g
    iters = np.zeros(len(V), dtype=int)
    converged = np.zeros(len(V), dtype=bool)
    # per running row: its index, point, value, gradient and sign, whether it
    # stopped on the step before, its steps since it last restarted along g
    # (0: it restarts now), whether its last step improved, its previous
    # tangent gradient and its previous direction carried to the current
    # point; V, F and iters take a row when it leaves
    rows, v, f, s = np.arange(len(V)), V, F, signs
    stopped = np.zeros(len(V), dtype=bool)
    period = 2 * V.shape[1] - 2  # real dimension of CP^{n-1}
    since = np.zeros(len(V), dtype=int)
    fresh = np.ones(len(V), dtype=bool)
    g_prev = np.zeros_like(V)
    d_carried = np.zeros_like(V)
    for step in range(1, _MAX_ITERS + 2):
        # Re<v, g> = 4 f by Euler's rule for the degree-4 f, and scaling by 4 is exact
        gt = g - 4.0 * f[:, None] * v
        gn = _norms(gt)
        scale = np.maximum(1.0, np.abs(f))
        moving = ~stopped
        if step <= _MAX_ITERS:  # after the last step only the rows that stopped on it leave
            moving &= gn > _STEP_TOLERANCE * scale
        if not moving.all():
            out = ~moving
            left = rows[out]
            V[left], F[left], iters[left] = v[out], f[out], step - stopped[out]
            converged[left] = gn[out] <= 1e3 * _STEP_TOLERANCE * scale[out]
            rows = rows[moving]
            v, f, g, s, gt, since, fresh, g_prev, d_carried = (
                a[moving] for a in (v, f, g, s, gt, since, fresh, g_prev, d_carried)
            )
        if step > _MAX_ITERS or not rows.size:
            break
        if not since.any():  # every row restarts: each beta below would be exactly 0, so d = gt
            d, gradient = gt, True
        else:
            # a restarting row compares g with itself, so its beta is exactly 0
            g_prev = np.where((since == 0)[:, None], gt, g_prev)
            beta = np.maximum(0.0, _re_dot(gt, gt - g_prev) / _re_dot(g_prev, g_prev))
            d = gt + beta[:, None] * d_carried
            d -= np.vecdot(v, d)[:, None] * v
            gradient = (beta == 0.0) | (_re_dot(gt, d) <= 0.0)
            d = np.where(gradient[:, None], gt, d)
        if newton:
            xi = _newton_direction(K, v, f, gt, s)
            take = fresh & xi.any(axis=1)
            d = np.where(take[:, None], xi, d)
            gradient &= ~take
        dn = _norms(d)[:, None]
        u = d / dn
        theta = _trig_argopt(_circle_coefficients(K, v, u, f, _re_dot(gt, u), s))[:, None]
        cos, sin = np.cos(theta), np.sin(theta)
        w = cos * v + sin * u
        w = w / _norms(w)[:, None]
        fw, gw = _value_and_gradient(K, w)
        fw, gw = s * fw, s[:, None] * gw
        # the best step on the circle (theta = 0 included) gives no
        # floating-point improvement: along g, that row is at the numerical
        # optimum and stops, to leave at the next top test with its point,
        # value and gradient unchanged; along a conjugate direction, it
        # retries along g
        stalled = fw <= f
        stopped = stalled & gradient
        since = np.where(stalled | (since + 1 >= period), 0, since + 1)
        fresh, g_prev, d_carried = ~stalled, gt, dn * (cos * u - sin * v)
        v, f, g = np.where(stalled[:, None], v, w), np.where(stalled, f, fw), np.where(stalled[:, None], g, gw)
    V[rows], F[rows], iters[rows] = v, f, _MAX_ITERS  # the rows still running after _MAX_ITERS steps
    capped = np.zeros(len(V), dtype=bool)
    capped[rows] = True
    return F, V, iters, converged, capped


def _start_directions(n: int, cfg: ExtremizeConfig) -> np.ndarray:
    # the n axes, then random points from a spawned child of the seed, which
    # differs from every root seed: default_rng([seed, 0]) is the oracle's
    # default_rng(seed), and [seed, 1] is the root seed seed + 2^32
    rng = np.random.default_rng(np.random.SeedSequence(cfg.seed, spawn_key=(0,)))
    random = _sample_unit_sphere(n, max(0, cfg.starts - n), rng)
    return np.concatenate((np.eye(n, dtype=complex), random))[: cfg.starts]


def _best_of_starts(
    values: np.ndarray, V: np.ndarray, converged: np.ndarray
) -> tuple[float, Direction, bool, int]:
    """Best of the ascended values (one row per start), its direction,
    whether any start tied for it converged, and how many starts tie for it.
    Directions tied within ``_VALUE_TOLERANCE`` max(1, |best|), by the scale
    rule at ``_STEP_TOLERANCE``, are phase-normalized and the
    lexicographically first one is reported."""
    best = float(values.max())
    ties = np.flatnonzero(best - values <= _VALUE_TOLERANCE * max(1.0, abs(best)))
    W = _normalize_phases(V[ties])
    # lexsort's last key is its first: the stable order of the rows' real views
    first = np.lexsort(W.view(float).T[::-1])[0]
    return best, Direction(W[first]), bool(converged[ties].any()), len(ties)


def extremize_hsc(
    tensor: KahlerCurvatureTensor, cfg: ExtremizeConfig = ExtremizeConfig()
) -> ExtremizeResult:
    """Best-of-starts HSC extremes over the unit sphere.

    Starts are the n coordinate axes padded with random sphere points from
    one seeded stream, ``cfg.starts`` in all.  Every start runs a
    conjugate-gradient ascent of -f for the minimum and of f for the
    maximum, all 2 x starts of them as the rows of one lockstep loop; the
    minimum is reported as ``0.0 - best`` so that a zero minimum is +0.0.
    Non-convergence is flagged on the result, not raised, so batch runs keep
    going.  Reported argmin/argmax are phase-normalized (first nonzero
    component real positive) and ties within a relative 1e-12 break
    lexicographically.  By the scale rule at ``_STEP_TOLERANCE``, scaling a
    tensor with max |R_ijkl| < 1 by a power of two scales its extremes by
    it and changes nothing else.  A value or squared gradient beyond the
    float range, as past max |R_ijkl| of about 1e154, raises
    FloatingPointError.
    """
    starts = _start_directions(tensor.n, cfg)
    m = len(starts)
    signs = np.repeat([-1.0, 1.0], m)
    e = min(0, int(np.frexp(np.abs(tensor.array).max())[1]))  # the scale rule at _STEP_TOLERANCE
    oracle_min = oracle_max = None
    with np.errstate(over="raise"):  # the fold of K sums entries, so it is inside too
        K = _quartic_matrix(np.ldexp(tensor.array.view(float), -e).view(complex))  # R 2^-e, as ``_unit`` scales
        values, V, iters, converged, capped = _ascend(K, np.concatenate((starts, starts)), signs)
        neg_min, argmin, min_conv, min_ties = _best_of_starts(values[:m], V[:m], converged[:m])
        max_value, argmax, max_conv, max_ties = _best_of_starts(values[m:], V[m:], converged[m:])
        if cfg.oracle_samples > 0:
            oracle = sample_hsc(tensor, cfg.oracle_samples, cfg.seed)
            oracle_min, oracle_max = oracle.min_value, oracle.max_value
    return ExtremizeResult(
        min_value=float(np.ldexp(0.0 - neg_min, e)),
        max_value=float(np.ldexp(max_value, e)),
        argmin=argmin,
        argmax=argmax,
        iterations_used=int(iters.sum()),
        steps=int(iters.max()),
        min_converged=min_conv,
        max_converged=max_conv,
        min_starts_at_best=min_ties,
        max_starts_at_best=max_ties,
        min_capped=int(capped[:m].sum()),
        max_capped=int(capped[m:].sum()),
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
    rotated tensor.  Exact for Einstein tensors; within the Einstein
    tolerance H may differ from the true minimum by about the anisotropy,
    which the residual (largest component with three equal indices) reports.

    Raises NotSurface unless n = 2 and NotEinstein (with the measured Ricci
    anisotropy) when the Ricci eigenvalue spread exceeds 1e-8 max |R_ijkl|.
    """
    if tensor.n != 2:
        raise NotSurface(f"distinguished frame requires n=2, got n={tensor.n}")
    eigs = np.linalg.eigvalsh(ricci(tensor))
    anisotropy, bound = float(eigs[-1] - eigs[0]), _EINSTEIN_TOLERANCE * float(np.abs(tensor.array).max())
    if anisotropy > bound:
        raise NotEinstein(
            f"tensor is not Einstein within {_EINSTEIN_TOLERANCE:g} max|R_ijkl| = {bound:.3g} "
            f"(Ricci anisotropy {anisotropy:.3g})",
            anisotropy=anisotropy,
        )
    # HSC = S^T T S for S = (1, Bloch vector s); T[0, 1:] is the traceless Ricci
    # part, zero here, so the minimizing s is the bottom eigenvector of T[1:, 1:]
    T = 0.25 * np.einsum("ijkl,aij,bkl->ab", tensor.array, _PAULI, _PAULI).real
    s = np.linalg.eigh(T[1:, 1:])[1][:, 0]
    v1 = _normalize_phases(np.linalg.eigh(np.einsum("a,aij->ij", s, _PAULI[1:]))[1][None, :, 1])[0]
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
    residual = float(np.max(np.abs(Rp[_ODD_INDEX_SUM])))
    U.setflags(write=False)
    return DistinguishedFrame(U, EinsteinFramePoint(H=H, A=A, B=B), residual)
