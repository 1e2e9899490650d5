"""Sphere extremization: optimizer vs closed forms, sampling oracle, frames."""

from __future__ import annotations

import json
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.linalg import LinAlgError, _umath_linalg

from hsckit import (
    CSpaceDescriptor,
    Direction,
    EinsteinFramePoint,
    ExtremizeConfig,
    KahlerCurvatureTensor,
    LieType,
    NotEinstein,
    NotSurface,
    assemble_einstein_surface,
    constant_hsc_tensor,
    distinguished_frame,
    extremize_hsc,
    hsc,
    itoh_positive,
    max_hsc_surface,
    ricci,
    sample_hsc,
    tensor_from_dict,
    transform_frame,
)
from hsckit._config import _MAX_ORACLE_SAMPLES, _MAX_STARTS
from hsckit.curvature import (
    _KERNEL_ROWS,
    _quartic_matrix,
    _re_dot,
    _value_and_gradient,
    _values_batch,
)
from hsckit.extremize import (
    _MAX_ITERS,
    _NEWTON_MARGIN,
    _NEWTON_MAX_N,
    _STEP_TOLERANCE,
    _VALUE_TOLERANCE,
    _ascend,
    _best_of_starts,
    _circle_coefficients,
    _companions,
    _newton_direction,
    _newton_matrix,
    _norms,
    _sample_unit_sphere,
    _start_directions,
    _trig_argopt,
    _trig_eval,
)
from helpers import (
    best_of_starts_serial,
    grassmannian_tensor,
    hsc_bruteforce,
    product_tensor,
    quadric_tensor,
    quartic_values_einsum,
    random_frame_point,
    random_kahler_tensor,
    random_unitary,
    trig_argopt_roots,
    trig_eval_serial,
)


def test_config_validation():
    with pytest.raises(ValueError):
        ExtremizeConfig(starts=0)
    with pytest.raises(ValueError):
        ExtremizeConfig(oracle_samples=-1)
    with pytest.raises(ValueError, match="seed must be >= 0"):
        ExtremizeConfig(seed=-1)
    with pytest.raises(ValueError, match=f"starts must be <= {_MAX_STARTS}"):
        ExtremizeConfig(starts=_MAX_STARTS + 1)
    with pytest.raises(ValueError, match="oracle_samples must be <= 16777216"):
        ExtremizeConfig(oracle_samples=_MAX_ORACLE_SAMPLES + 1)


def test_gradient_matches_finite_differences():
    # independent oracle for the cubic-contraction gradient
    T = random_kahler_tensor(3, seed=77)
    K = _quartic_matrix(T.array)
    rng = np.random.default_rng(78)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    g = _value_and_gradient(K, v[None, :])[1][0]
    h = 1e-6
    for idx in range(3):
        for direction in (1.0, 1.0j):
            e = np.zeros(3, dtype=complex)
            e[idx] = direction
            ends = np.array([v + h * e, v - h * e])
            plus, minus = _values_batch(K, ends)
            num = (plus - minus) / (2 * h)
            ana = float((g * np.conj(e)).sum().real)
            assert num == pytest.approx(ana, rel=1e-5, abs=1e-6)


def _reduced_hessians(K: tuple, V: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Per row, Pi (H_E - 4 f) Pi from central differences of the gradient's
    float view, with Pi the projection off v and i v."""
    m, n = V.shape
    H = np.empty((m, 2 * n, 2 * n))
    for col in range(2 * n):
        e = np.zeros(2 * n)
        e[col] = h
        grad = _value_and_gradient(K, np.concatenate((V + e.view(complex), V - e.view(complex))))[1].view(float)
        H[:, :, col] = (grad[:m] - grad[m:]) / (2 * h)
    H = 0.5 * (H + H.transpose(0, 2, 1)) - 4.0 * _value_and_gradient(K, V)[0][:, None, None] * np.eye(2 * n)
    Q = np.stack((V, 1j * V), axis=1).view(float)
    Pi = np.eye(2 * n) - Q.transpose(0, 2, 1) @ Q
    return Pi @ H @ Pi


def _horizontal_eigenvalues(R: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric R on the complement of v and i v."""
    Z = np.linalg.svd(np.stack((v, 1j * v)).view(float))[2][2:]
    return np.linalg.eigvalsh(Z @ R @ Z.T)


def _newton_inputs(n: int, seed: int, rows: int = 4):
    """K, unit rows V, then f and the tangent gradient of s f for s = -1 on
    the first half of the rows and +1 on the rest, and s."""
    K = _quartic_matrix(random_kahler_tensor(n, seed=seed).array)
    V = _sample_unit_sphere(n, rows, np.random.default_rng(seed + 1))
    # half the rows near a start's optimum of s f, where the Hessian is definite
    s = np.repeat([-1.0, 1.0], rows // 2)
    W = _ascend(K, V, s)[1] + 0.01 * _sample_unit_sphere(n, rows, np.random.default_rng(seed + 2))
    V = np.concatenate((V, W / np.linalg.norm(W, axis=1)[:, None]))
    s = np.concatenate((s, s))
    f, g = _value_and_gradient(K, V)
    return K, V, s * f, s[:, None] * (g - 4.0 * f[:, None] * V), s


@pytest.mark.parametrize("n", [3, 4, 6])
def test_hessian_matches_finite_differences_of_the_gradient(n):
    # the Newton matrix is c on the plane of v and i v and minus a quarter
    # of the projected Hessian of s f on its complement, with that Hessian
    # from central differences of the gradient
    K, V, f, gt, s = _newton_inputs(n, seed=80 + n)
    X = _newton_matrix(K, V, f, 0.25 * gt, s)
    Q = np.stack((V, 1j * V), axis=1).view(float)
    c = np.abs(Q @ X @ Q.transpose(0, 2, 1))
    assert np.allclose(c, c[:, :1, :1] * np.eye(2), rtol=1e-13, atol=1e-13 * c.max())
    reduced = -0.25 * s[:, None, None] * _reduced_hessians(K, V)
    expected = reduced + c[:, :1, :1] * Q.transpose(0, 2, 1) @ Q
    for X_v, expected_v in zip(X, expected):
        assert np.abs(X_v - expected_v).max() <= 1e-7 * max(1.0, np.abs(expected_v).max())


@pytest.mark.parametrize("n", [3, 4, 6])
def test_newton_direction_is_horizontal_and_solves_the_projected_system(n):
    # xi is the Newton direction where the projected Hessian of s f is
    # negative definite, and 0 elsewhere; the rows near an optimum give the
    # first case and the random ones mostly the second
    K, V, f, gt, s = _newton_inputs(n, seed=90 + n)
    xi = _newton_direction(K, V, f, gt, s)
    kinds = set()
    for v, g, sign, R_v, x in zip(V, gt, s, _reduced_hessians(K, V), xi):
        definite = _horizontal_eigenvalues(sign * R_v, v).max() < 0.0
        kinds.add(definite)
        if not definite:
            assert np.array_equal(x, np.zeros(n, dtype=complex))
            continue
        assert abs(np.vdot(v, x)) <= 1e-12 * np.linalg.norm(x)
        Hx = (sign * R_v @ x.view(float)).view(complex)
        assert np.linalg.norm(Hx + g) <= 1e-6 * np.linalg.norm(g)
    assert kinds == {False, True}


KNOWN_RANGES = [
    (constant_hsc_tensor(4, -2.0), -2.0, -2.0),
    (grassmannian_tensor(2, 2), 0.5, 1.0),
    (grassmannian_tensor(2, 3), 0.5, 1.0),
    (quadric_tensor(3), 0.5, 1.0),
    (quadric_tensor(5), 0.5, 1.0),
    # HSC of a product is c1 c2 / (c1 + c2) at best: 1/3 for c1 = 1, c2 = 1/2
    (product_tensor(constant_hsc_tensor(2, 1.0), quadric_tensor(3)), 1.0 / 3.0, 1.0),
]


@pytest.mark.parametrize("tensor, low, high", KNOWN_RANGES)
def test_newton_ascent_reaches_known_ranges(tensor, low, high):
    # their optima are not isolated, so the Hessian is singular there
    assert 3 <= tensor.n <= _NEWTON_MAX_N
    res = extremize_hsc(tensor)
    assert res.min_value == pytest.approx(low, abs=1e-12)
    assert res.max_value == pytest.approx(high, abs=1e-12)
    assert res.min_capped == res.max_capped == 0
    assert res.converged


def test_singular_newton_rows_keep_conjugate_directions():
    # only the orbit of R[0,1,0,0] = 1: HSC is 4 Re(|v_0|^2 v_0 conj(v_1)),
    # with range [-3 sqrt(3) / 4, 3 sqrt(3) / 4].  At the start e_1 the
    # gradient is not 0, but nothing couples e_3, so the Newton matrix is
    # exactly singular there and that row alone keeps its conjugate direction
    T = tensor_from_dict({"n": 3, "entries": [{"i": 0, "j": 1, "k": 0, "l": 0, "re": 1.0}]})
    K = _quartic_matrix(T.array)
    V = np.concatenate((np.eye(3, dtype=complex)[:1], _sample_unit_sphere(3, 2, np.random.default_rng(3))))
    f, g = _value_and_gradient(K, V)
    xi = _newton_direction(K, V, f, g - 4.0 * f[:, None] * V, np.ones(3))
    assert np.array_equal(xi[0], np.zeros(3, dtype=complex))
    res = extremize_hsc(T, ExtremizeConfig(starts=16))
    assert res.max_value == pytest.approx(0.75 * np.sqrt(3.0), abs=1e-12)
    assert res.min_value == pytest.approx(-0.75 * np.sqrt(3.0), abs=1e-12)
    assert res.min_capped == res.max_capped == 0
    # only the orbit of R[0,0,5,5] = 1, with range [0, 1]: the maxima form the
    # torus |v_0| = |v_5|, where the Newton matrix is singular.  Near it a
    # row's matrix can pass an unshifted Cholesky test with a pivot of
    # rounding size while the LU of the batched solve meets an exact zero and
    # raises for the whole batch; the margin refuses such rows, so they give 0
    T = tensor_from_dict({"n": 6, "entries": [{"i": 0, "j": 0, "k": 5, "l": 5, "re": 1.0}]})
    K = _quartic_matrix(T.array)
    rng = np.random.default_rng(2)
    V = np.zeros((64, 6), dtype=complex)
    V[:, [0, 5]] = np.exp(2j * np.pi * rng.random((64, 2)))
    V += 1e-9 * rng.standard_normal((64, 12)).view(complex)
    V /= np.linalg.norm(V, axis=1)[:, None]
    f, g = _value_and_gradient(K, V)
    assert not _newton_direction(K, V, f, g - 4.0 * f[:, None] * V, np.ones(64)).any()
    for seed in range(6):
        res = extremize_hsc(T, ExtremizeConfig(starts=8, seed=seed))
        assert (res.min_value, res.max_value) == pytest.approx((0.0, 1.0), abs=1e-12)
        assert res.min_capped == res.max_capped == 0


def test_newton_margin_sorts_rows_by_their_smallest_eigenvalue(monkeypatch):
    # two positive definite matrices whose smallest eigenvalue sits 1% above
    # and 1% below the margin times their largest |entry|: the first is
    # solved, the second gives 0; with the right side along that eigenvector
    # the accepted direction is as long as the margin allows, and still
    # ascends and stays below the bound 4 n^2 / (3 delta)
    n = 3
    Q = np.linalg.qr(np.random.default_rng(5).standard_normal((2 * n, 2 * n)))[0]
    spectrum = np.linspace(0.0, 1.0, 2 * n)
    base = np.abs(Q @ np.diag(spectrum) @ Q.T).max()
    X = np.stack([Q @ np.diag(spectrum + k * _NEWTON_MARGIN * base * (spectrum == 0)) @ Q.T for k in (1.01, 0.99)])
    assert np.linalg.eigvalsh(X).min() > 0.0
    monkeypatch.setattr("hsckit.extremize._newton_matrix", lambda *args: X.copy())
    g = np.stack((4.0 * Q[:, 0], 4.0 * Q[:, 0])).view(complex)
    xi = _newton_direction(None, None, None, g, None)
    assert xi[0].any() and not xi[1].any()
    assert np.abs(X[0] @ xi[0].view(float) - 0.25 * g[0].view(float)).max() <= 1e-14 * np.linalg.norm(xi[0])
    assert _re_dot(g[:1], xi[:1])[0] > 0.0
    assert 1e9 < _norms(xi[:1])[0] < 4 * n * n / (3 * _NEWTON_MARGIN)


def test_cholesky_gufunc_writes_nan_where_a_matrix_is_not_positive_definite():
    # _newton_direction sorts its rows by this private numpy gufunc, which
    # np.linalg.cholesky wraps; a numpy release that changes it fails here
    A = np.array([[4.0, 2.0], [2.0, 3.0]])
    stack = np.stack((A, [[1.0, 2.0], [2.0, 1.0]], np.zeros((2, 2)), np.full((2, 2), np.nan)))
    with np.errstate(all="ignore"):
        L = _umath_linalg.cholesky_lo(stack)
    assert np.array_equal(L[0], np.linalg.cholesky(A))
    assert np.isnan(L[1:, 0, 0]).all()


@pytest.mark.parametrize("n, seed, starts", [(3, 4, 16), (4, 0, 16), (6, 1, 8)])
def test_ascent_ends_at_local_optima_not_saddles(n, seed, starts):
    # Newton seeks any critical point.  Taken wherever it ascended, it ended
    # one row here at a saddle of index 1 at n = 3 and 4; taken wherever the
    # projected Hessian had the determinant of a definite one, it ended one
    # at n = 6 at a saddle of index 2.  The projected Hessian of s f at every
    # row's end has no positive eigenvalue off the plane of v and i v.
    K = _quartic_matrix(random_kahler_tensor(n, seed=seed).array)
    V0 = _start_directions(n, ExtremizeConfig(starts=starts, seed=seed))
    s = np.repeat([-1.0, 1.0], len(V0))
    _, V, _, converged, _ = _ascend(K, np.concatenate((V0, V0)), s)
    assert converged.all()
    for v, sign, R_v in zip(V, s, _reduced_hessians(K, V)):
        assert _horizontal_eigenvalues(sign * R_v, v).max() <= 1e-5 * np.abs(R_v).max()


def test_newton_keeps_the_lockstep_loop_short():
    # the summed loop lengths over seeds 0-9 at the benchmark's start
    # counts were 132, 144 and 223 with Newton directions at n = 3, 4 and 6;
    # with conjugate gradient alone they were 219, 314 and 456
    for n, starts, bound in ((3, 16, 145), (4, 16, 160), (6, 8, 245)):
        steps = [
            extremize_hsc(random_kahler_tensor(n, seed=seed), ExtremizeConfig(starts=starts, seed=seed)).steps
            for seed in range(10)
        ]
        assert sum(steps) <= bound


def test_newton_memory_stays_below_the_largest_n():
    # with _MAX_STARTS starts the whole call peaked at 42.6 MiB at n = 6 with
    # Newton directions (16.9 MiB without), and at 100.46 MiB at n = 32,
    # where Newton is off
    T = random_kahler_tensor(6, seed=1)
    tracemalloc.start()
    try:
        extremize_hsc(T, ExtremizeConfig(starts=_MAX_STARTS))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100.5 * 2**20


def _coefficient_rows(c0, c1, c2) -> np.ndarray:
    """Rows laid out as ``_circle_coefficients`` returns them, the binary
    quartics g with g(cos t, sin t) = c_0 + 2 Re(c_1 e^{2it} + c_2 e^{4it})
    for real c_0 and c_k = p_k + i q_k."""
    c0, c1, c2 = np.asarray(c0, dtype=float), np.asarray(c1, dtype=complex), np.asarray(c2, dtype=complex)
    (p1, p2), (q1, q2) = (c1.real, c2.real), (c1.imag, c2.imag)
    return np.column_stack(
        (c0 + 2 * p1 + 2 * p2, -4 * q1 - 8 * q2, 2 * c0 - 12 * p2, -4 * q1 + 8 * q2, c0 - 2 * p1 + 2 * p2)
    )


def _harmonics(g: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """c_0, c_1 and c_2 of rows g, the inverse of ``_coefficient_rows``."""
    g0, g1, g2, g3, g4 = np.asarray(g).T
    c1 = (g0 - g4) / 4 - 1j * (g1 + g3) / 8
    return (3 * g0 + g2 + 3 * g4) / 8, c1, (g0 - g2 + g4) / 16 + 1j * (g3 - g1) / 16


def _even_ab(g: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The same polynomial as the cosine and sine coefficients (a, b) of
    harmonics 0..4 that the serial reference takes; odd ones are 0."""
    c0, c1, c2 = _harmonics(g)
    a = np.array([c0, 0.0, 2.0 * c1.real, 0.0, 2.0 * c2.real])
    b = np.array([0.0, 0.0, -2.0 * c1.imag, 0.0, -2.0 * c2.imag])
    return a, b


def _random_complex(rng: np.random.Generator, size: int) -> np.ndarray:
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_trig_argopt_reaches_dense_grid_optimum(sign):
    rng = np.random.default_rng(10)
    grid = np.linspace(-np.pi, np.pi, 20_001, endpoint=False)
    C = _coefficient_rows(rng.standard_normal(100), _random_complex(rng, 100), _random_complex(rng, 100))
    thetas = _trig_argopt(sign * C)
    reached = sign * _trig_eval(C, thetas[:, None])[:, 0]
    for c, value in zip(C, reached):
        best_on_grid = np.max(sign * _trig_eval(c[None], grid[None])[0])
        assert value >= best_on_grid - 1e-12


def _family_rows(family: str, rng: np.random.Generator, m: int) -> np.ndarray:
    """m coefficient rows of one family, each at a log-uniform scale."""
    scale = 10.0 ** rng.uniform(-3.0, 3.0, m)
    c0, c1, c2 = rng.standard_normal(m), _random_complex(rng, m), _random_complex(rng, m)
    if family == "c2 = 0":
        c2[:] = 0.0
    elif family == "lead zero":  # q1 = 2 q2: the t^4 coefficient is 0
        c1 = c1.real + 2j * c2.imag
    elif family == "two lead zeros":  # and p1 = 4 p2: the t^3 one too
        c1 = 4.0 * c2.real + 2j * c2.imag
    elif family == "c1 = c2 = 0":
        c1[:] = c2[:] = 0.0
    elif family == "c1 = 0":
        c1[:] = 0.0
    elif family == "real":
        c1, c2 = c1.real, c2.real
    elif family.startswith("near two lead zeros"):  # g_3 and g_2 - 2 g_4 at rounding level
        delta = float(family.split("=")[1]) * rng.uniform(-1.0, 1.0, (2, m))
        c1 = 4.0 * c2.real + delta[0] + 1j * (2.0 * c2.imag + delta[1] * (np.arange(m) % 2))
    return _coefficient_rows(scale * c0, scale * c1, scale * c2)


@pytest.mark.parametrize(
    "family",
    ["generic", "c2 = 0", "lead zero", "two lead zeros", "c1 = c2 = 0", "c1 = 0", "real"]
    + [f"near two lead zeros, delta={delta}" for delta in ("1e-17", "1e-15", "1e-13", "1e-11")],
)
def test_trig_argopt_beats_a_grid_in_every_degenerate_family(family):
    # 11 x 288 rows, each against 721 angles over the period [0, pi]; solved
    # in tan t alone, the rounding-level leads of the "two lead zeros" rows
    # missed the grid's best by up to 0.74 x scale
    C = _family_rows(family, np.random.default_rng(12), 288)
    thetas = _trig_argopt(C)
    assert np.isfinite(thetas).all()
    reached = _trig_eval(C, thetas[:, None])[:, 0]
    on_grid = _trig_eval(C, np.tile(np.linspace(0.0, np.pi, 721), (len(C), 1))).max(axis=1)
    c0, c1, c2 = _harmonics(C)
    scale = np.abs(c0) + 2 * np.abs(c1) + 2 * np.abs(c2)
    assert np.all(reached >= on_grid - 1e-15 * scale)


def test_trig_argopt_constant_polynomial_stays_put():
    assert _trig_argopt(_coefficient_rows([2.0], [0.0], [0.0]))[0] == 0.0


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_trig_argopt_mixed_degrees_reach_the_roots_optimum(sign):
    # rows whose w^4 coefficient 2 c_2 is exactly 0 (a constant row and
    # lower-degree rows) sit beside generic rows; each must reach the
    # optimum over np.roots' angles and 0
    rng = np.random.default_rng(11)
    c0, c1, c2 = rng.standard_normal(12), _random_complex(rng, 12), _random_complex(rng, 12)
    c1[0] = c2[0] = 0.0  # constant
    c2[3:6] = 0.0  # harmonic 2 only
    c2[6], c1[6] = 0.0, c1[6].real  # harmonic 2 in cos only
    c2[7] = 1j * c2[7].imag  # harmonic 4 in sin only: still full degree
    C = _coefficient_rows(c0, c1, c2)
    thetas = _trig_argopt(sign * C)
    for c, theta in zip(C, thetas):
        a, b = _even_ab(c)
        best = sign * trig_eval_serial(a, b, trig_argopt_roots(a, b, sign))
        assert sign * trig_eval_serial(a, b, theta) == pytest.approx(best, abs=1e-12)
    assert thetas[0] == 0.0


def _shifted_rows(rng: np.random.Generator, m: int) -> np.ndarray:
    """Rows that reach every lead shift: g_1 = g_3 = 0 zeroes the t^4 lead
    (one shift), g_2 = 2 g_4 too zeroes t^3 (two), and (a, 0, 2a, 0, a), the
    constant a (cos^2 + sin^2)^2, zeroes every coefficient (lead 1)."""
    g = rng.standard_normal((3 * m, 5))
    g[:, [1, 3]] = 0.0
    g[m:, 2] = 2.0 * g[m:, 4]
    g[2 * m :, 0] = g[2 * m :, 4]
    return np.concatenate((g, np.zeros((1, 5))))


@pytest.mark.parametrize(
    "family",
    ["generic", "c2 = 0", "lead zero", "two lead zeros", "c1 = c2 = 0", "c1 = 0", "real", "shifted"]
    + [f"near two lead zeros, delta={delta}" for delta in ("1e-17", "1e-13")],
)
def test_eigvals_gufunc_matches_the_wrapper_bit_for_bit(family):
    # _trig_argopt calls the batched gufunc under np.linalg.eigvals directly;
    # on the same companion stack both give the same roots, so only the
    # evaluation of the candidate angles can move an angle's bits
    rng = np.random.default_rng(13)
    C = _shifted_rows(rng, 32) if family == "shifted" else _family_rows(family, rng, 96)
    companion, cot = _companions(C)
    if family == "generic":
        assert cot.any() and not cot.all()
    if family == "shifted":  # two shifts leave a t^2 and no shift a zero row: all roots 0
        assert not cot.any() and (companion[:, 0] == 0.0).all(axis=1).sum() == 2 * 32 + 1
    direct = _umath_linalg.eigvals(companion, signature="d->D").real
    assert direct.tobytes() == np.linalg.eigvals(companion).real.tobytes()


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    m=st.integers(1, 6),
    zeros=st.lists(st.integers(0, 4), max_size=4),
    bad=st.lists(
        st.tuples(st.integers(0, 5), st.integers(0, 4), st.sampled_from([np.nan, np.inf, -np.inf])),
        min_size=1,
        max_size=4,
    ),
)
@example(seed=0, m=1, zeros=[1, 3], bad=[(0, 4, np.inf)])
def test_trig_argopt_raises_on_a_non_finite_coefficient(seed, m, zeros, bad):
    # the explicit guard of the direct gufunc call: zeroed columns send rows
    # through the cot and shifted paths, and any NaN or +-inf raises there
    # rather than reaching LAPACK or yielding an angle.  The example shifts
    # in an infinite lead 4 g_4 over finite entries, a companion of zeros
    g = np.random.default_rng(seed).standard_normal((m, 5))
    g[:, zeros] = 0.0
    for row, k, x in bad:
        g[row % m, k] = x
    with np.errstate(all="ignore"), pytest.raises((LinAlgError, FloatingPointError)):
        _trig_argopt(g)


@pytest.mark.parametrize("over, error", [("ignore", LinAlgError), ("raise", FloatingPointError)])
def test_trig_argopt_raises_where_a_companion_entry_overflows(over, error):
    # finite coefficients whose ratio to a subnormal lead g_1 passes the
    # float range; extremize_hsc runs with overflow raising
    g = np.array([[1.0, 0.5, 2.0, -0.25, 1.0], [0.0, 1e-310, 1e300, 0.0, 0.0]])
    with np.errstate(over=over), pytest.raises(error):
        _trig_argopt(g)


_TAN_ROW = (1.0, 0.5, 2.0, 3.0, 0.7)  # |g_3| >= |g_1|: the tan quartic, lead -g_3
_COT_ROW = (1.0, 3.0, 2.0, 0.5, 0.7)  # |g_3| < |g_1|: the cot quartic, lead g_1
_ZERO_LEAD_ROW = (1.0, 0.0, 3.0, 0.0, 0.5)  # g_1 = g_3 = 0: the t^4 lead is shifted out


@pytest.mark.parametrize("shifted", [False, True], ids=["unshifted", "shifted"])
@pytest.mark.parametrize("side", ["tan", "cot"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
@pytest.mark.parametrize("k", range(5))
def test_trig_argopt_raises_on_every_non_finite_slot(k, bad, side, shifted):
    # _companions checks the lead only on a stack where a zero lead was
    # shifted out: there g_4 = +-inf makes the shifted lead 4 g_4 - 2 g_2
    # infinite over finite entries, a top row of zeros.  A cot row never has
    # a zero lead, so its shifted stack adds a second, zero-lead row
    if side == "tan":
        g = np.array([_ZERO_LEAD_ROW if shifted else _TAN_ROW])
    else:
        g = np.array([_COT_ROW, _ZERO_LEAD_ROW] if shifted else [_COT_ROW])
    _trig_argopt(g)  # finite, it has its angles
    g[0, k] = bad
    with np.errstate(all="ignore"), pytest.raises((LinAlgError, FloatingPointError)):
        _trig_argopt(g)


def test_companions_match_the_explicit_tan_and_cot_quartics():
    # _companions reads a cot row as g reversed; against the quartics written
    # out, tan (-g_3, 4 g_4 - 2 g_2, 3 g_3 - 3 g_1, 2 g_2 - 4 g_0, g_1) and
    # cot (g_1, 2 g_2 - 4 g_0, 3 g_3 - 3 g_1, 4 g_4 - 2 g_2, -g_3), at scales
    # 1e+-100 and with g_2 = 2 g_0 or 2 g_4, which zeroes an inner coefficient
    rng = np.random.default_rng(17)
    g = rng.standard_normal((96, 5)) * 10.0 ** rng.choice([-100, 0, 100], size=(96, 1))
    g[::3, 2] = 2.0 * g[::3, 0]
    g[1::3, 2] = 2.0 * g[1::3, 4]
    companion, cot = _companions(g)
    assert cot.sum() >= 24 and (~cot).sum() >= 24
    g0, g1, g2, g3, g4 = g.T
    tan_quartic = np.stack((-g3, 4.0 * g4 - 2.0 * g2, 3.0 * g3 - 3.0 * g1, 2.0 * g2 - 4.0 * g0, g1), axis=1)
    cot_quartic = np.stack((g1, 2.0 * g2 - 4.0 * g0, 3.0 * g3 - 3.0 * g1, 4.0 * g4 - 2.0 * g2, -g3), axis=1)
    quartic = np.where(cot[:, None], cot_quartic, tan_quartic)
    expected = np.tile(np.eye(4, k=-1), (len(g), 1, 1))
    expected[:, 0] = -(quartic[:, 1:] / quartic[:, :1])
    assert np.array_equal(companion, expected)


@settings(max_examples=200, deadline=None)
@given(
    g=st.lists(st.floats(-1.0, 1.0), min_size=5, max_size=5),
    exponent=st.sampled_from([-300, 0, 300]),
    angle=st.floats(-np.pi, np.pi),
)
def test_trig_eval_is_within_a_few_ulp_of_the_exact_sum(g, exponent, angle):
    # against sum g_k c^(4-k) s^k in exact rationals on the same float c and
    # s, at rows scaled to 1e+-300 and at angles where c or s is 0 or tiny
    row = np.array(g) * 10.0**exponent
    theta = np.array([[angle, 0.0, 0.5 * np.pi, 0.5 * np.pi - 1e-12]])
    got = _trig_eval(row[None], theta)[0]
    assert np.isfinite(got).all()
    weight = sum(Fraction(abs(float(x))) for x in row)
    # a few ulp of sum |g_k|, plus a few subnormal steps for gradual underflow
    bound = 4 * Fraction(float(np.finfo(float).eps)) * weight + 16 * Fraction(2.0**-1074)
    for value, c, s in zip(got, np.cos(theta)[0], np.sin(theta)[0]):
        c, s = Fraction(float(c)), Fraction(float(s))
        exact = sum(Fraction(float(x)) * c ** (4 - k) * s**k for k, x in enumerate(row))
        assert abs(Fraction(float(value)) - exact) <= bound


def _best_of_starts_loop(values: np.ndarray, V: np.ndarray, converged: np.ndarray):
    """The per-row merge that ``_best_of_starts`` replaced, as its reference:
    each tied row phase-normalized on its own, then the first least of their
    real views as Python lists."""
    best = float(values.max())
    ties = np.flatnonzero(best - values <= _VALUE_TOLERANCE * max(1.0, abs(best)))

    def normalize(v):
        x = next(x for x in v if abs(x) > 1e-12)
        return v * (np.conj(x) / abs(x))

    argbest = min((normalize(V[i]) for i in ties), key=lambda v: v.view(float).tolist())
    return best, Direction(argbest), bool(converged[ties].any()), len(ties)


@settings(max_examples=300, deadline=None)
@given(
    n=st.integers(1, 4),
    seed=st.integers(0, 2**32 - 1),
    pool=st.integers(1, 6),
    best=st.sampled_from([0.0, 1e-13, 1.0, -3.5, 2.0e5]),
    gaps=st.lists(st.sampled_from([0.0, 0.0, 0.3, 0.999, 1.0, 1.001, 5.0]), min_size=1, max_size=8),
    heads=st.lists(st.sampled_from([1.0, 0.0, 1e-13, 1e-12, 1.0000000000000002e-12, 3e-12]), min_size=1, max_size=8),
)
def test_best_of_starts_matches_the_per_row_loop(n, seed, pool, best, gaps, heads):
    # values tie exactly (gap 0) or within _VALUE_TOLERANCE (gaps below 1
    # in its units); rows repeat from a small pool, some with a turned
    # phase, and for n > 1 some first components fall below 1e-12
    rng = np.random.default_rng(seed)
    k = len(gaps)
    P = rng.standard_normal((pool, n)) + 1j * rng.standard_normal((pool, n))
    V = P[rng.integers(0, pool, k)]
    V[rng.random(k) < 0.5] *= 1j
    if n > 1:
        V[:, 0] *= np.resize(heads, k)
    V /= np.linalg.norm(V, axis=1, keepdims=True)
    values = best - np.array(gaps) * _VALUE_TOLERANCE * max(1.0, abs(best))
    converged = rng.random(k) < 0.5
    got, expected = _best_of_starts(values, V, converged), _best_of_starts_loop(values, V, converged)
    assert got[0] == expected[0] and got[2:] == expected[2:]
    assert got[1].vector.tobytes() == expected[1].vector.tobytes()


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_circle_coefficients_reproduce_the_circle(n):
    # f(v), its slope along u and three kernel values fix the whole circle,
    # so 64 angles over the full turn match the kernel
    T = random_kahler_tensor(n, seed=800 + n)
    K = _quartic_matrix(T.array)
    rng = np.random.default_rng(900 + n)
    V = _sample_unit_sphere(n, 3, rng)
    U = _sample_unit_sphere(n, 3, rng)
    U -= (V.conj() * U).sum(axis=1).real[:, None] * V
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    angles = np.linspace(-np.pi, np.pi, 64, endpoint=False)
    F, G = _value_and_gradient(K, V)
    got = _trig_eval(_circle_coefficients(K, V, U, F, _re_dot(G, U), 1.0), np.tile(angles, (3, 1)))
    for v, u, row in zip(V, U, got):
        ref = _values_batch(K, np.outer(np.cos(angles), v) + np.outer(np.sin(angles), u))
        assert np.all(np.abs(row - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_ascent_stops_at_the_value_noise_floor():
    # the surface descent reaches H to within 3e-16 in 7 steps, and the
    # n = 4 descent from e_1 stops after 21; a stall test that let tied
    # steps through kept the second stepping until _MAX_ITERS, unconverged
    p = EinsteinFramePoint(
        H=-0.5581463227956642, A=0.5714659935519548, B=-0.3876308181887844 - 1.0304108040358098j
    )
    cfg = ExtremizeConfig(starts=8, seed=88)
    start = _start_directions(2, cfg)[2:3]
    K = _quartic_matrix(assemble_einstein_surface(p).array)
    values, _, iters, converged, _ = _ascend(K, start, np.array([-1.0]))
    assert converged[0]
    assert iters[0] < _MAX_ITERS
    assert -values[0] == pytest.approx(p.H, abs=1e-12)
    K = _quartic_matrix(random_kahler_tensor(4, seed=7).array)
    _, _, iters, converged, _ = _ascend(K, np.eye(4, dtype=complex)[:1], np.array([-1.0]))
    assert converged[0]
    assert iters[0] < _MAX_ITERS


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_values_batch_matches_einsum_across_blocks(n):
    T = random_kahler_tensor(n, seed=500 + n)
    K = _quartic_matrix(T.array)
    rng = np.random.default_rng(600 + n)
    for m in (1, _KERNEL_ROWS - 1, _KERNEL_ROWS, 2 * _KERNEL_ROWS + 3):
        V = _sample_unit_sphere(n, m, rng)
        ref = quartic_values_einsum(T.array, V)
        grad_ref = 4.0 * np.einsum("ijkl,ri,rk,rl->rj", T.array, V, V, V.conj())
        f, grad = _value_and_gradient(K, V)
        for got, want in ((_values_batch(K, V), ref), (f, ref), (grad, grad_ref)):
            assert got.shape == want.shape
            assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("rows", [1, 16, _KERNEL_ROWS, _KERNEL_ROWS + 1])
def test_row_reductions_match_explicit_sums_at_block_edges(rows):
    n = 4
    R = random_kahler_tensor(n, seed=510).array
    rng = np.random.default_rng(610)
    a, b = (rng.standard_normal((rows, 2 * n)).view(complex) for _ in range(2))
    norm_a, norm_b = (np.sqrt((x.conj() * x).sum(axis=1).real) for x in (a, b))
    want = (a.conj() * b).sum(axis=1).real
    assert np.all(np.abs(_re_dot(a, b) - want) <= 1e-13 * norm_a * norm_b)
    assert np.all(np.abs(_norms(a) - norm_a) <= 1e-13 * norm_a)
    # Y conj(v) with Y = (v (x) v) K read as an n x n matrix, summed explicitly
    W = np.einsum("ijkl,ri,rk->rjl", R, a, a)
    Yv = (W * a.conj()[:, None, :]).sum(axis=2)
    f, grad = _value_and_gradient(_quartic_matrix(R), a)
    for got, ref in ((f, (a.conj() * Yv).sum(axis=1).real), (grad, 4.0 * Yv)):
        assert np.all(np.abs(got - ref) <= 1e-13 * np.abs(ref).max())


@pytest.mark.parametrize("seed", [0, 5])
@pytest.mark.parametrize("n", range(2, 9))
def test_starts_are_distinct_points_of_cpn(n, seed):
    # n = 1 is left out: CP^0 is a single point.  The random rows are 2n
    # normal variates each, viewed as complex, from a spawned child of the
    # seed; fewer starts are a prefix of more, no row is a point of the
    # oracle's default_rng(seed) sample, and no two rows are equal or
    # conjugate in CP^{n-1}: |<s_a, s_b>| or |<conj(s_a), s_b>| would be 1
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,)))
    W = rng.standard_normal((33, 2 * n)).view(complex)
    drawn = W / np.linalg.norm(W, axis=1, keepdims=True)
    oracle = _sample_unit_sphere(n, 33, np.random.default_rng(seed))
    longest = _start_directions(n, ExtremizeConfig(starts=33, seed=seed))
    for starts in (1, n, 2 * n + 1, 16, 33):
        S = _start_directions(n, ExtremizeConfig(starts=starts, seed=seed))
        assert np.array_equal(S, longest[:starts])
        assert np.array_equal(S[:n], np.eye(n)[:starts])
        assert np.array_equal(S[n:], drawn[: max(0, starts - n)])
        assert np.abs(oracle.conj() @ S[n:].T).max(initial=0.0) <= 1.0 - 1e-9
        for overlap in (np.abs(S.conj() @ S.T), np.abs(S @ S.T)):
            np.fill_diagonal(overlap, 0.0)
            assert overlap.max() <= 1.0 - 1e-9


@pytest.mark.parametrize("n, seed", [(2, 703), (2, 704), (3, 700), (4, 701), (6, 702)])
def test_batched_starts_match_serial_ascents(n, seed):
    T = random_kahler_tensor(n, seed=seed)
    cfg = ExtremizeConfig(starts=16, seed=seed)
    starts = _start_directions(n, cfg)
    K = _quartic_matrix(T.array)
    for sign in (-1.0, 1.0):
        values, V, _, converged, _ = _ascend(K, starts, np.full(len(starts), sign))
        best, _, _, _ = _best_of_starts(values, V, converged)
        reference = best_of_starts_serial(T.array, starts, sign, _MAX_ITERS)
        assert sign * best == pytest.approx(reference, rel=1e-12)


@pytest.mark.parametrize("n, seed", [(3, 700), (4, 701), (6, 702)])
def test_joint_loop_matches_one_sign_ascents(n, seed):
    # the +-1 rows of one lockstep loop against one all-minus and one
    # all-plus loop; the products' shapes differ, so values agree to
    # rounding, not bitwise
    T = random_kahler_tensor(n, seed=seed)
    starts = _start_directions(n, ExtremizeConfig(starts=16, seed=seed))
    K = _quartic_matrix(T.array)
    m = len(starts)
    joint, V, _, converged, _ = _ascend(K, np.concatenate((starts, starts)), np.repeat([-1.0, 1.0], m))
    for half, sign in ((slice(None, m), -1.0), (slice(m, None), 1.0)):
        values, W, _, alone_converged, _ = _ascend(K, starts, np.full(m, sign))
        best = _best_of_starts(joint[half], V[half], converged[half])[0]
        assert best == pytest.approx(_best_of_starts(values, W, alone_converged)[0], rel=1e-12)


@pytest.mark.parametrize("n", [3, 4, 6, 8])
def test_default_starts_converge_without_hitting_the_cap(n):
    # steepest ascent runs 6 of these rows into _MAX_ITERS at n = 6 and 23
    # at n = 8; the restarted conjugate-gradient ascent needs at most 74
    # steps (n = 8), against 109 without the restart
    for seed in range(12):
        res = extremize_hsc(random_kahler_tensor(n, seed=seed))
        assert res.min_capped == res.max_capped == 0
        assert res.converged


@pytest.mark.parametrize("n", [1, 2, 4, 6])
def test_steps_is_the_longest_ascent(n, monkeypatch):
    # steps is the lockstep loop's length: at most the cap, and at most the
    # sum of every ascent's steps
    for seed in range(3):
        res = extremize_hsc(random_kahler_tensor(n, seed=seed), ExtremizeConfig(starts=8, seed=seed))
        assert 1 <= res.steps <= min(_MAX_ITERS, res.iterations_used)
    monkeypatch.setattr("hsckit.extremize._MAX_ITERS", 2)
    res = extremize_hsc(random_kahler_tensor(n, seed=0), ExtremizeConfig(starts=8))
    assert res.steps <= 2


def _exit_case(name: str) -> KahlerCurvatureTensor:
    if name == "constant":  # every point is critical: each row leaves at its first top test
        return constant_hsc_tensor(3, 2.0)
    if name == "surface axes":  # e_1 and e_2 are exact critical points of a frame-form surface
        return assemble_einstein_surface(EinsteinFramePoint(H=-1.0, A=0.25, B=0.5))
    if name == "last stalls":  # the last row to leave stops after a stall, at step 11
        return random_kahler_tensor(2, seed=43)
    if name == "cap boundary":  # at cap 5 one row stops on the last step, and two capped rows are stationary
        return random_kahler_tensor(2, seed=3)
    return random_kahler_tensor(int(name[-1]), seed=40 + int(name[-1]))


@pytest.mark.parametrize("cap", [1, 2, 5, _MAX_ITERS])
@pytest.mark.parametrize(
    "case",
    [
        "constant",
        "surface axes",
        "last stalls",
        "cap boundary",
        "gaussian n=2",
        "gaussian n=3",
        "gaussian n=4",
        "gaussian n=6",
    ],
)
def test_rows_leave_with_their_state_and_step_count(case, cap, monkeypatch):
    # a row leaves at a top test, once stationary or on the step after it
    # stops along g, or at the cap, and takes its point, value and step
    # count with it whichever way
    tensor = _exit_case(case)
    monkeypatch.setattr("hsckit.extremize._MAX_ITERS", cap)
    searched, ascended = [], []  # rows per line search; _ascend's outputs
    monkeypatch.setattr("hsckit.extremize._trig_argopt", lambda g: searched.append(len(g)) or _trig_argopt(g))
    monkeypatch.setattr("hsckit.extremize._ascend", lambda *args: ascended.append(_ascend(*args)) or ascended[0])
    res = extremize_hsc(tensor, ExtremizeConfig(starts=8, seed=3))
    F, V, iters, converged, capped = ascended[0]
    signs = np.repeat([-1.0, 1.0], 8)
    K = _quartic_matrix(tensor.array)
    assert np.all(np.abs(F - signs * _values_batch(K, V)) <= 1e-12 * np.maximum(1.0, np.abs(F)))
    assert np.all(iters[capped] == cap) and not converged[capped].any()
    assert np.all((1 <= iters) & (iters <= cap))
    # every row that leaves before the cap has converged exactly when its
    # tangent gradient is within 1e3 times the step tolerance
    f, g = _value_and_gradient(K, V)
    gn = _norms(signs[:, None] * g - 4.0 * (signs * f)[:, None] * V)
    scale = np.maximum(1.0, np.abs(F))
    assert np.array_equal(converged[~capped], (gn <= 1e3 * _STEP_TOLERANCE * scale)[~capped])
    assert res.steps == iters.max() and res.iterations_used == iters.sum()
    assert (res.min_capped, res.max_capped) == (capped[:8].sum(), capped[8:].sum())
    # step k searches every row with iters > k, and of those with iters = k
    # the ones that did not leave at its top test; so no step runs once the
    # last row has left, and only the last may end at the top test
    assert len(searched) in (res.steps - 1, res.steps) and min(searched, default=1) >= 1
    for k, rows in enumerate(searched, start=1):
        assert (iters > k).sum() <= rows <= (iters >= k).sum()
    at_top = iters.sum() - sum(searched)
    stalled = len(iters) - at_top - capped.sum()
    if case == "constant":
        assert at_top == 16 and np.all(iters == 1) and converged.all()
    if case == "surface axes":  # e_1 and e_2, each for both signs, leave at step 1
        assert at_top >= 4 and np.sum(iters == 1) >= 4
    if case.startswith("gaussian") and cap == _MAX_ITERS:
        assert stalled > 0 and not capped.any()
    if case == "last stalls" and cap == _MAX_ITERS:
        assert len(searched) == res.steps == 11 and not capped.any()
    if case.startswith("gaussian") and cap <= 2:
        assert capped.all()
    if case == "cap boundary" and cap == 5:
        # a row that stops on the last step leaves uncapped, under the rule
        # above; a row first found stationary after it stays capped
        assert np.sum((iters == cap) & ~capped) == 1 and converged[~capped].all()
        assert np.sum(capped & (gn <= _STEP_TOLERANCE * scale)) == 2


@pytest.mark.parametrize("c", [1e-6, 1e-9, 1e-12])
@pytest.mark.parametrize("n", [2, 3, 4])
def test_extremes_scale_with_the_tensor(n, c):
    # the stopping and tie tests are relative down to the tensor's own size;
    # relative only down to |f| = 1, every start of the 1e-12 tensors stopped
    # at step 1, 1.7e-2 to 1.7 relative off its extreme, and reported converged
    T = random_kahler_tensor(n, seed=5)
    cfg = ExtremizeConfig(starts=16)
    res, scaled = extremize_hsc(T, cfg), extremize_hsc(KahlerCurvatureTensor(c * T.array), cfg)
    assert scaled.min_value == pytest.approx(c * res.min_value, rel=1e-14, abs=0.0)
    assert scaled.max_value == pytest.approx(c * res.max_value, rel=1e-14, abs=0.0)
    assert (scaled.min_starts_at_best, scaled.max_starts_at_best) == (res.min_starts_at_best, res.max_starts_at_best)
    assert scaled.converged and res.converged


@pytest.mark.parametrize("n", [2, 3, 4])
def test_tiny_tensors_ascend_as_their_unscaled_twins(n):
    # below about 1e-155 the squared gradient norm underflows; with tests
    # relative to min(1, max |R_ijkl|), every start of these stopped at step 1,
    # 1.6e-2 to 1.1 relative off its extreme, and reported converged
    T = random_kahler_tensor(n, seed=5)
    res, tiny = extremize_hsc(T), extremize_hsc(KahlerCurvatureTensor(1e-200 * T.array))
    assert tiny.min_value == pytest.approx(1e-200 * res.min_value, rel=1e-15, abs=0.0)
    assert tiny.max_value == pytest.approx(1e-200 * res.max_value, rel=1e-15, abs=0.0)
    assert tiny.steps > 1 and tiny.converged


@pytest.mark.parametrize("n", range(2, 9))
def test_power_of_two_scaling_changes_only_the_extremes_exponents(n):
    # the ascent sees R 2^-e, with max |R_ijkl| in [1/2, 1), for every tensor
    # R below 1, so R 2^-k gives the same payload bit for bit, its extremes
    # times 2^-k; with tests relative to min(1, max |R_ijkl|), n = 4-6 changed
    # their step counts at k = 1, 2 or 10, and every start stopped at step 1
    # at k = 600
    T = random_kahler_tensor(n, seed=0)
    R = np.ldexp(T.array.view(float), -1 - int(np.frexp(np.abs(T.array).max())[1]))  # max |R_ijkl| < 1/2
    base = extremize_hsc(KahlerCurvatureTensor(R.view(complex))).to_payload()
    for k in (1, 2, 10, 600):
        got = extremize_hsc(KahlerCurvatureTensor(np.ldexp(R, -k).view(complex))).to_payload()
        extremes = {side: float(np.ldexp(base[side], -k)) for side in ("min_value", "max_value")}
        assert json.dumps(got) == json.dumps({**base, **extremes})


def test_starts_at_best_counts_the_tie_set():
    # every direction is optimal for constant HSC, so every start ties
    res = extremize_hsc(constant_hsc_tensor(3, 2.0), ExtremizeConfig(starts=10))
    assert res.min_starts_at_best == res.max_starts_at_best == 10
    assert res.min_capped == res.max_capped == 0


def test_constant_tensor_extremes():
    res = extremize_hsc(constant_hsc_tensor(2, -1.0))
    assert res.min_value == pytest.approx(-1.0, abs=1e-8)
    assert res.max_value == pytest.approx(-1.0, abs=1e-8)
    assert res.converged


def test_surface_max_matches_closed_form():
    p = EinsteinFramePoint(-2.0, 0.0, 1.0)
    res = extremize_hsc(assemble_einstein_surface(p), ExtremizeConfig(starts=8))
    assert res.max_value == pytest.approx(-0.5, abs=1e-6)


def test_surface_min_is_h_with_coordinate_argmin():
    p = EinsteinFramePoint(-1.0, 0.25, 0.0)
    res = extremize_hsc(assemble_einstein_surface(p), ExtremizeConfig(starts=8))
    assert res.min_value == pytest.approx(-1.0, abs=1e-6)
    # both coordinate axes attain H for this tensor; the argmin must be one
    # of them, phase-normalized
    mags = np.abs(res.argmin.vector)
    assert max(mags) == pytest.approx(1.0, abs=1e-6)
    assert min(mags) == pytest.approx(0.0, abs=1e-6)


def test_min_not_above_max():
    for seed in range(3):
        T = random_kahler_tensor(3, seed=seed)
        res = extremize_hsc(T, ExtremizeConfig(starts=8))
        assert res.min_value <= res.max_value


def test_sample_constant_tensor_exact():
    res = sample_hsc(constant_hsc_tensor(3, 1.0), 10_000, seed=0)
    assert res.min_value == pytest.approx(1.0, abs=1e-10)
    assert res.max_value == pytest.approx(1.0, abs=1e-10)


def test_sample_assembled_surface_brackets_closed_form():
    p = EinsteinFramePoint(-1.0, 0.25, 0.0)
    res = sample_hsc(assemble_einstein_surface(p), 1_000_000, seed=3)
    assert res.min_value == pytest.approx(-1.0, abs=1e-3)
    assert res.max_value == pytest.approx(-0.25, abs=1e-3)


def test_sample_product_min_near_half():
    T = product_tensor(constant_hsc_tensor(1, 1.0), constant_hsc_tensor(1, 1.0))
    res = sample_hsc(T, 1_000_000, seed=4)
    assert res.min_value == pytest.approx(0.5, abs=1e-3)


def test_sample_deterministic_per_seed():
    T = random_kahler_tensor(2, seed=10)
    a = sample_hsc(T, 50_000, seed=5)
    b = sample_hsc(T, 50_000, seed=5)
    assert a.min_value == b.min_value and a.max_value == b.max_value and a.mean == b.mean


@pytest.mark.parametrize("m", [0, -1])
def test_sample_count_must_be_positive(m):
    with pytest.raises(ValueError, match="sample count must be >= 1"):
        sample_hsc(constant_hsc_tensor(2, 1.0), m)


def test_sample_bit_identical_across_kernel_blocks():
    # 41 blocks of _KERNEL_ROWS = 1,024 rows, each drawn, evaluated and reduced in turn, the last one partial
    T = random_kahler_tensor(4, seed=12)
    a = sample_hsc(T, 5 * 8192 + 17, seed=6)
    b = sample_hsc(T, 5 * 8192 + 17, seed=6)
    for x, y in ((a.min_value, b.min_value), (a.max_value, b.max_value), (a.mean, b.mean)):
        assert np.float64(x).tobytes() == np.float64(y).tobytes()


def test_sample_matches_explicit_unit_rows():
    # 2,100 rows are two full blocks and a partial one: the sampler reads the
    # prefix of one normal stream and divides f(z) by |z|^4, which must agree
    # with the brute-force HSC at each row normalized first
    n, m, seed = 3, 2_100, 8
    T = random_kahler_tensor(n, seed=14)
    Z = np.random.default_rng(seed).standard_normal((m, 2 * n)).view(complex)
    vals = np.array([hsc_bruteforce(T, z) for z in Z / np.linalg.norm(Z, axis=1, keepdims=True)])
    res = sample_hsc(T, m, seed=seed)
    assert res.samples == m
    for got, want in ((res.min_value, vals.min()), (res.max_value, vals.max()), (res.mean, vals.mean())):
        assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("scale", [1e305, 1e308])
def test_sample_overflow_raises(scale):
    # at 1e305 every value fits but the sum of 65,536 does not; at 1e308 the
    # fold of the quartic matrix overflows
    with pytest.raises(FloatingPointError):
        sample_hsc(KahlerCurvatureTensor(constant_hsc_tensor(3, 1.0).array * scale), 65_536)


def test_sample_memory_stays_at_one_kernel_block():
    # drawn one 1,024-row block at a time into buffers allocated once per
    # call, 65,536 samples at n = 8 peak at 1.33 MiB; drawn as one
    # 65,536-row chunk they peaked at 17.1 MiB
    T = random_kahler_tensor(8, seed=13)
    tracemalloc.start()
    try:
        sample_hsc(T, 65_536, seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2**20


def test_extremes_bracket_samples():
    for seed in (1, 2):
        T = random_kahler_tensor(3, seed=seed, shift=-1.0)
        res = extremize_hsc(T, ExtremizeConfig(starts=16, seed=seed))
        oracle = sample_hsc(T, 200_000, seed=seed)
        assert res.min_value <= oracle.min_value + 1e-9
        assert oracle.max_value <= res.max_value + 1e-9


def test_oracle_fields_populated_on_request():
    T = constant_hsc_tensor(2, 2.0)
    res = extremize_hsc(T, ExtremizeConfig(starts=4, oracle_samples=1000))
    assert res.oracle_min == pytest.approx(2.0, abs=1e-9)
    assert res.oracle_max == pytest.approx(2.0, abs=1e-9)
    res = extremize_hsc(T, ExtremizeConfig(starts=4))
    assert res.oracle_min is None and res.oracle_max is None


def test_extremize_deterministic():
    T = random_kahler_tensor(3, seed=20)
    cfg = ExtremizeConfig(starts=12, seed=99)
    a = extremize_hsc(T, cfg)
    b = extremize_hsc(T, cfg)
    assert a.min_value == b.min_value and a.max_value == b.max_value
    assert np.array_equal(a.argmin.vector, b.argmin.vector)
    assert np.array_equal(a.argmax.vector, b.argmax.vector)
    assert a.iterations_used == b.iterations_used
    assert a.to_payload() == b.to_payload()


def test_extremes_invariant_under_frame_change():
    T = random_kahler_tensor(3, seed=30)
    U = random_unitary(3, seed=31)
    res = extremize_hsc(T, ExtremizeConfig(starts=16))
    res_rot = extremize_hsc(transform_frame(T, U), ExtremizeConfig(starts=16))
    assert res.min_value == pytest.approx(res_rot.min_value, abs=1e-6)
    assert res.max_value == pytest.approx(res_rot.max_value, abs=1e-6)


def test_surface_extremes_match_closed_form_over_random_points():
    rng = np.random.default_rng(123)
    for trial in range(10):
        p = random_frame_point(rng)
        res = extremize_hsc(assemble_einstein_surface(p), ExtremizeConfig(starts=8, seed=trial))
        assert res.max_value == pytest.approx(max_hsc_surface(p).value, abs=1e-6)
        assert res.min_value == pytest.approx(p.H, abs=1e-6)


def test_surface_ascents_converge_within_a_few_restart_cycles(monkeypatch):
    # restarted every 2n - 2 = 2 steps, the longest n = 2 row here takes 9
    # steps; unrestarted Polak-Ribiere+ converges linearly and took 22
    longest = []

    def ascend(*args):
        out = _ascend(*args)
        longest.append(int(out[2].max()))
        return out

    monkeypatch.setattr("hsckit.extremize._ascend", ascend)
    rng = np.random.default_rng(2024)
    for seed in range(32):
        p = random_frame_point(rng)
        res = extremize_hsc(assemble_einstein_surface(p), ExtremizeConfig(starts=8, seed=seed))
        assert res.steps == longest[-1]
        assert res.min_value == pytest.approx(p.H, abs=1e-9)
        assert res.max_value == pytest.approx(max_hsc_surface(p).value, abs=1e-9)
    assert len(longest) == 32
    assert max(longest) <= 12


@pytest.mark.parametrize("n", [3, 5, 7])
def test_quadric_hsc_range_is_known(n):
    # Q^n is Hermitian symmetric of rank 2, so HSC ranges over [1/2, 1]; both
    # optima are non-isolated (real and isotropic directions), where
    # conjugate gradient's restart has the least to work with
    res = extremize_hsc(quadric_tensor(n))
    assert res.converged
    assert res.min_capped == res.max_capped == 0
    assert res.min_value == pytest.approx(0.5, abs=1e-10)
    assert res.max_value == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("p, q", [(1, 3), (2, 2), (2, 3), (2, 4), (3, 3), (2, 5)])
def test_grassmannian_hsc_range_is_known(p, q):
    # (A_{p+q-1}, alpha_p) is Hermitian symmetric, of dimension p q and rank
    # min(p, q); its HSC ranges over [c / rank, c] (polysphere theorem)
    verdict = itoh_positive(CSpaceDescriptor(LieType("A", p + q - 1), p))
    assert verdict.level_census == {1: p * q}
    res = extremize_hsc(grassmannian_tensor(p, q), ExtremizeConfig(starts=32))
    assert res.converged
    assert res.max_value == pytest.approx(1.0, abs=1e-12)
    assert res.min_value / res.max_value == pytest.approx(1.0 / min(p, q), abs=1e-12)


def test_product_positive_blocks_give_positive_min():
    T1 = constant_hsc_tensor(1, 1.0)
    T2 = constant_hsc_tensor(1, 2.0)
    T = product_tensor(T1, T2)
    res = extremize_hsc(T, ExtremizeConfig(starts=16))
    # one-variable optimization of the weighted combination: c1 c2 / (c1 + c2)
    assert res.min_value == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert res.min_value > 0


def test_product_positivity_propagates():
    T1 = KahlerCurvatureTensor(
        constant_hsc_tensor(2, 2.0).array + 0.1 * random_kahler_tensor(2, seed=55).array
    )
    T2 = constant_hsc_tensor(2, 1.0)
    min1 = extremize_hsc(T1, ExtremizeConfig(starts=16)).min_value
    min2 = extremize_hsc(T2, ExtremizeConfig(starts=16)).min_value
    assert min1 > 0 and min2 > 0
    res = extremize_hsc(product_tensor(T1, T2), ExtremizeConfig(starts=24))
    assert res.min_value > 0


# --- distinguished frame -----------------------------------------------------


def test_frame_round_trip_recovers_point():
    p = EinsteinFramePoint(-1.0, 0.25, 0.0)
    U = random_unitary(2, seed=7)
    T = transform_frame(assemble_einstein_surface(p), U)
    frame = distinguished_frame(T)
    assert frame.point.H == pytest.approx(-1.0, abs=1e-6)
    assert frame.point.A == pytest.approx(0.25, abs=1e-6)
    assert abs(frame.point.B) == pytest.approx(0.0, abs=1e-6)
    assert frame.residual <= 1e-6


def test_frame_phase_fix_makes_b_real_nonnegative():
    p = EinsteinFramePoint(-1.5, 0.6, 0.3 + 0.4j)
    U = random_unitary(2, seed=17)
    T = transform_frame(assemble_einstein_surface(p), U)
    frame = distinguished_frame(T)
    assert frame.point.B.imag == pytest.approx(0.0, abs=1e-9)
    assert frame.point.B.real == pytest.approx(0.5, abs=1e-6)
    # the returned unitary reproduces the reported components
    T_fixed = transform_frame(T, frame.unitary)
    assert T_fixed.array[0, 0, 0, 0].real == pytest.approx(frame.point.H, abs=1e-9)
    assert complex(T_fixed.array[0, 1, 0, 1]) == pytest.approx(frame.point.B, abs=1e-8)


def test_frame_constant_tensor():
    frame = distinguished_frame(constant_hsc_tensor(2, -2.0))
    assert frame.point.H == pytest.approx(-2.0, abs=1e-8)
    assert frame.point.A == pytest.approx(-1.0, abs=1e-8)
    assert abs(frame.point.B) == pytest.approx(0.0, abs=1e-8)
    assert frame.residual <= 1e-8


def test_frame_rejects_non_einstein_with_anisotropy():
    T = assemble_einstein_surface(EinsteinFramePoint(-1.0, 0.25, 0.0))
    R = T.array.copy()
    R[0, 0, 0, 0] += 0.1
    with pytest.raises(NotEinstein) as excinfo:
        distinguished_frame(KahlerCurvatureTensor(R))
    assert excinfo.value.anisotropy == pytest.approx(0.1, abs=1e-9)


def test_frame_accepts_a_large_einstein_tensor():
    # the exact KE point at 1e8 has a rounding-level Ricci spread of 8.9e-8,
    # which an absolute 1e-8 tolerance refused
    point = EinsteinFramePoint(-1e8, 0.25e8, 0.5e8j)
    frame = distinguished_frame(transform_frame(assemble_einstein_surface(point), random_unitary(2, 0)))
    assert frame.point.H == pytest.approx(-1e8, rel=1e-12)
    assert frame.point.A == pytest.approx(0.25e8, rel=1e-12)
    assert frame.point.B == pytest.approx(0.5e8, rel=1e-12)


def test_frame_rejects_a_small_non_einstein_tensor():
    # a Ricci spread of 30% of max |R_ijkl|, at 1e-9: an absolute 1e-8
    # tolerance accepted it and reported a wrong frame
    R = assemble_einstein_surface(EinsteinFramePoint(-1.0, 0.25, 0.5)).array.copy()
    R[0, 0, 0, 0] += 0.3
    with pytest.raises(NotEinstein, match=r"within 1e-08 max\|R_ijkl\| = 1e-17") as excinfo:
        distinguished_frame(KahlerCurvatureTensor(1e-9 * R))
    assert excinfo.value.anisotropy == pytest.approx(3e-10, rel=1e-9)


def test_frame_rejects_non_surface():
    with pytest.raises(NotSurface):
        distinguished_frame(constant_hsc_tensor(3, -1.0))


def test_frame_unitary_maps_min_to_e1():
    rng = np.random.default_rng(200)
    p = random_frame_point(rng)
    U0 = random_unitary(2, seed=201)
    T = transform_frame(assemble_einstein_surface(p), U0)
    frame = distinguished_frame(T)
    e1 = np.array([1.0, 0.0])
    assert hsc(T, frame.unitary @ e1) == pytest.approx(p.H, abs=1e-9)


def test_frame_round_trip_is_exact():
    # the closed-form frame has no optimizer tolerance: the worst case over
    # the acceptance generator sits at rounding level, not at 1e-8
    rng = np.random.default_rng(9)
    for trial in range(100):
        p = random_frame_point(rng)
        T = transform_frame(assemble_einstein_surface(p), random_unitary(2, seed=9000 + trial))
        frame = distinguished_frame(T)
        assert frame.point.H == pytest.approx(p.H, abs=1e-12)
        assert frame.point.A == pytest.approx(p.A, abs=1e-12)
        assert abs(frame.point.B) == pytest.approx(abs(p.B), abs=1e-12)
        assert frame.residual <= 1e-12


@pytest.mark.parametrize(
    "tensor, point",
    [
        # constant HSC: Q = 0, every direction is a minimizer
        (constant_hsc_tensor(2, -2.0), EinsteinFramePoint(-2.0, -1.0, 0.0)),
        # 2A = H + |B|: Q has a double bottom eigenvalue
        (assemble_einstein_surface(EinsteinFramePoint(-1.0, 0.0, 1.0)), EinsteinFramePoint(-1.0, 0.0, 1.0)),
        # B = 0: the phase fix has nothing to rotate
        (assemble_einstein_surface(EinsteinFramePoint(-1.0, 0.25, 0.0)), EinsteinFramePoint(-1.0, 0.25, 0.0)),
    ],
    ids=["constant", "double-eigenvalue", "b-zero"],
)
def test_frame_degenerate_cases(tensor, point):
    T = transform_frame(tensor, random_unitary(2, seed=31))
    frame = distinguished_frame(T)
    assert frame.point.H == pytest.approx(point.H, abs=1e-12)
    assert frame.point.A == pytest.approx(point.A, abs=1e-12)
    assert frame.point.B.imag == 0.0
    assert frame.point.B.real == pytest.approx(abs(point.B), abs=1e-12)
    assert frame.residual <= 1e-12
    assert hsc(T, frame.unitary[:, 0]) == pytest.approx(point.H, abs=1e-12)
    assert distinguished_frame(T).unitary.tobytes() == frame.unitary.tobytes()


@pytest.mark.parametrize("seed", range(5))
def test_frame_near_einstein_tracks_optimizer_minimum(seed):
    rng = np.random.default_rng(400 + seed)
    p = random_frame_point(rng)
    T = transform_frame(assemble_einstein_surface(p), random_unitary(2, seed=410 + seed))
    T = KahlerCurvatureTensor(T.array + 1e-9 * random_kahler_tensor(2, seed=420 + seed).array)
    eigs = np.linalg.eigvalsh(ricci(T))
    assert 0.0 < eigs[-1] - eigs[0] <= 1e-8
    frame = distinguished_frame(T)
    best = extremize_hsc(T, ExtremizeConfig(starts=16)).min_value
    assert frame.point.H == pytest.approx(best, abs=1e-8)
    assert frame.residual <= 1e-8
