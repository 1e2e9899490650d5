"""Symbolic proofs (sympy) of the surface closed forms, the Bloch form and
the distinguished frame's readouts from it, and of the ascent's formulas:
its gradient and Hessian at n = 2 and 3, its circle fit and the tan and cot
quartics of its line search; then the weights of the Sym^2 fold and
Berger's average of the HSC over the sphere.

These sit next to the numeric checks in test_curvature and test_extremize
and do not replace them.  Library functions whose arithmetic is plain
Python (``chern_weil``, ``max_hsc_surface``) are run on sympy symbols
directly; ``assemble_einstein_surface`` and ``_quartic_matrix`` are
real-linear in their inputs, so their exact coefficient arrays are read off
numerically.  Each proof of a formula also refutes a mutated coefficient.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp

from hsckit import (
    EinsteinFramePoint,
    KahlerCurvatureTensor,
    assemble_einstein_surface,
    chern_weil,
    constant_hsc_tensor,
    hsc_surface_closed_form,
    max_hsc_surface,
    scalar,
)
from hsckit import extremize
from hsckit.curvature import _HERMITIAN, _LINEAR, _fold_indices, _quartic_matrix
from hsckit.extremize import _PAULI, _bloch_form, _circle_coefficients, _companions
from hsckit.geography import _C2_BOUND
from helpers import random_kahler_tensor

H, A, B_RE, B_IM = sp.symbols("H A B_re B_im", real=True)
X1, Y1, X2, Y2 = sp.symbols("x1 y1 x2 y2", real=True)
V = (X1 + sp.I * Y1, X2 + sp.I * Y2)
INDICES = list(product(range(2), repeat=4))


def _exact(z: complex):
    return sp.Rational(z.real) + sp.I * sp.Rational(z.imag)


E = [sp.Matrix(2, 2, [_exact(z) for z in m.ravel()]) for m in _PAULI]  # I, sigma_x, sigma_y, sigma_z


def _surface_array(h: float, a: float, b: complex) -> np.ndarray:
    return assemble_einstein_surface(EinsteinFramePoint(h, a, b)).array


def _symbolic_surface() -> dict:
    """``assemble_einstein_surface(H, A, B)`` as exact sympy entries."""
    base = _surface_array(0.0, 1.0, 0.0)
    coeffs = {
        H: -_surface_array(-1.0, 0.0, 0.0),
        A: base,
        B_RE: _surface_array(0.0, 1.0, 1.0) - base,
        B_IM: _surface_array(0.0, 1.0, 1j) - base,
    }
    # real-linearity, checked at a generic valid point
    h, a, b = -0.7, 0.9, 0.3 - 0.4j
    combined = sum(x * c for x, c in zip((h, a, b.real, b.imag), coeffs.values()))
    assert np.allclose(_surface_array(h, a, b), combined, rtol=0.0, atol=1e-15)
    return {idx: sum(s * _exact(c[idx]) for s, c in coeffs.items()) for idx in INDICES}


def _quartic(R: dict, v=V):
    """sum R[i,j,k,l] v_i conj(v_j) v_k conj(v_l) for the symbolic v."""
    conj = [sp.conjugate(z) for z in v]
    return sum(z * v[i] * conj[j] * v[k] * conj[l] for (i, j, k, l), z in R.items())


def _bloch_matrix(R: dict) -> sp.Matrix:
    """T[a,b] = sum R[i,j,k,l] E_a[i,j] E_b[k,l] / 4 over the library's Pauli basis."""
    return sp.Matrix(
        4, 4,
        lambda a, b: sp.expand(
            sum(R[i, j, k, l] * E[a][i, j] * E[b][k, l] for i, j, k, l in INDICES) / 4
        ),
    )


def _is_zero(expr) -> bool:
    return sp.expand(expr) == 0


def test_quartic_is_the_bloch_form_for_every_tensor():
    # generic complex entries, no symmetry assumed
    R = {idx: sp.Symbol("r%d%d%d%d" % idx) for idx in INDICES}
    T = _bloch_matrix(R)
    conj = [sp.conjugate(z) for z in V]
    # S_a = v^H E_a v: S_0 = |v|^2 and (S_1, S_2, S_3) = |v|^2 times the Bloch vector
    S = [sum(conj[i] * E[a][i, j] * V[j] for i in range(2) for j in range(2)) for a in range(4)]
    bloch = sum(S[a] * S[b] * T[a, b] for a in range(4) for b in range(4))
    assert _is_zero(_quartic(R) - bloch)
    # (s.sigma)^2 = |s|^2 I, so for a unit s the top eigenvector of s.sigma
    # spans the projector (I + s.sigma) / 2 that has Bloch vector s
    s = sp.symbols("s1:4", real=True)
    s_sigma = sum((si * Ei for si, Ei in zip(s, E[1:])), sp.zeros(2, 2))
    assert (s_sigma**2 - sum(si**2 for si in s) * sp.eye(2)).applyfunc(sp.expand) == sp.zeros(2, 2)


def _generic_kahler(n: int = 2) -> dict:
    """A generic Kähler tensor on C^n: each orbit of the symmetry group takes
    x + i y, with y dropped on the orbits conjugation maps to themselves; the
    linear images of an index take the value and the others its conjugate."""
    R = {}
    for idx in product(range(n), repeat=4):
        if idx in R:
            continue
        linear = {tuple(idx[a] for a in p) for p in _LINEAR}
        conjugating = {tuple(i[a] for a in _HERMITIAN) for i in linear}
        z = sp.Symbol("x%d%d%d%d" % idx, real=True)
        if conjugating != linear:
            z += sp.I * sp.Symbol("y%d%d%d%d" % idx, real=True)
        R.update({i: sp.conjugate(z) for i in conjugating})
        R.update({i: z for i in linear})
    return R


def test_generic_kahler_tensor():
    R = _generic_kahler()
    assert len(set().union(*(sp.sympify(z).free_symbols for z in R.values()))) == 9  # (n (n + 1) / 2)^2
    for i, j, k, l in INDICES:
        assert R[i, j, k, l] == R[k, j, i, l] == R[i, l, k, j]
        assert _is_zero(sp.conjugate(R[i, j, k, l]) - R[j, i, l, k])
    T = _bloch_matrix(R)
    assert (T - T.conjugate()).applyfunc(sp.expand) == sp.zeros(4, 4)  # real
    assert (T - T.T).applyfunc(sp.expand) == sp.zeros(4, 4)  # symmetric


def test_ricci_spread_is_four_times_the_bloch_linear_part():
    R = _generic_kahler()
    T = _bloch_matrix(R)
    t = T[0, 1:]
    Ric = sp.Matrix(2, 2, lambda i, j: R[i, j, 0, 0] + R[i, j, 1, 1])
    expected = 2 * (T[0, 0] * E[0] + sum((T[0, a] * E[a].T for a in range(1, 4)), sp.zeros(2, 2)))
    assert (Ric - expected).applyfunc(sp.expand) == sp.zeros(2, 2)
    # Ric is Hermitian 2 x 2, so its eigenvalue spread squared is tr^2 - 4 det
    spread_squared = sp.expand(Ric.trace() ** 2 - 4 * Ric.det())
    assert _is_zero(spread_squared - 4**2 * t.dot(t))
    assert not _is_zero(spread_squared - 2**2 * t.dot(t))  # mutation: a spread of 2|t| is refuted


def test_frame_components_read_off_the_bloch_form():
    # in the frame itself e_1 is the minimizer: its Bloch vector s is e_z, an
    # eigenvector of Q, so lambda_1 = T_zz and t.s = T_0z
    R = _generic_kahler()
    T = _bloch_matrix(R)
    assert _is_zero(T[1, 1] + T[2, 2] + T[3, 3] - T[0, 0])  # tr Q = T_00
    assert _is_zero(R[0, 0, 0, 0] - (T[0, 0] + 2 * T[0, 3] + T[3, 3]))  # H
    assert _is_zero(R[0, 0, 1, 1] - (T[0, 0] - T[3, 3]))  # A
    assert _is_zero(R[0, 1, 0, 1] - (T[1, 1] - T[2, 2] + 2 * sp.I * T[1, 2]))  # B
    # and B is conj(z^T Q z) for z_a = e_1^H sigma_a e_2
    z = sp.Matrix([E[a][0, 1] for a in range(1, 4)])
    assert _is_zero(R[0, 1, 0, 1] - sp.conjugate((z.T * T[1:, 1:] * z)[0]))
    # each component with an odd index sum (three equal indices) is
    # (T_x0 + e T_xz) + i d (T_y0 + e T_yz) for signs d and e: where T_xz =
    # T_yz = 0 its modulus is |(T_x0, T_y0)|, the part of t off s = e_z
    for idx in INDICES:
        if sum(idx) % 2:
            signs = [
                (d, e)
                for d, e in product((1, -1), repeat=2)
                if _is_zero(R[idx] - (T[1, 0] + e * T[1, 3]) - sp.I * d * (T[2, 0] + e * T[2, 3]))
            ]
            assert len(signs) == 1, idx


def test_bloch_form_matches_the_symbolic_matrix():
    R = random_kahler_tensor(2, seed=3).array
    exact = np.array(_bloch_matrix({idx: _exact(R[idx]) for idx in INDICES}).tolist(), dtype=complex)
    assert not exact.imag.any()
    assert np.allclose(_bloch_form(R), exact.real, rtol=0.0, atol=1e-15 * np.abs(R).max())


def test_bloch_form_of_einstein_surface():
    T = _bloch_matrix(_symbolic_surface())
    assert (T - T.conjugate()).applyfunc(sp.expand) == sp.zeros(4, 4)  # real
    assert (T - T.T).applyfunc(sp.expand) == sp.zeros(4, 4)  # symmetric
    assert _is_zero(T[0, 0] - (H + A) / 2)  # c
    assert all(_is_zero(2 * T[0, a]) for a in range(1, 4))  # b = 0
    Q = sp.Matrix([[A + B_RE, B_IM, 0], [B_IM, A - B_RE, 0], [0, 0, H - A]]) / 2
    assert (T[1:, 1:] - Q).applyfunc(sp.expand) == sp.zeros(3, 3)
    # eigenvalues (H - A)/2 and (A +- |B|)/2, through the characteristic polynomial
    lam = sp.Symbol("lam")
    expected = ((H - A) / 2 - lam) * ((A / 2 - lam) ** 2 - (B_RE**2 + B_IM**2) / 4)
    assert _is_zero((Q - lam * sp.eye(3)).det() - expected)


def test_bloch_extremes_are_the_closed_forms():
    # 2A >= H + |B| written as A = (H + r)/2 + t with r = |B| >= 0, t >= 0
    r, t = sp.symbols("r t", nonnegative=True)
    a = (H + r) / 2 + t
    c = (H + a) / 2
    low, mid, high = (H - a) / 2, (a - r) / 2, (a + r) / 2
    assert _is_zero(mid - low - t)  # >= 0, so low is the bottom eigenvalue
    assert _is_zero(high - mid - r)  # >= 0, so high is the top eigenvalue
    assert _is_zero(c + low - H)  # min HSC = H
    assert _is_zero(c + high - (H + (2 * a - H + r) / 2))
    closed_max = max_hsc_surface(SimpleNamespace(H=H, A=a, B=r)).value
    assert _is_zero(sp.nsimplify(closed_max, rational=True) - (c + high))


def test_surface_quartic_expands_to_closed_form():
    cross = V[0] * sp.conjugate(V[1])
    norm_sq = sum(z * sp.conjugate(z) for z in V)
    # hsc_surface_closed_form, homogenized to degree 4
    closed = sp.expand(
        H * norm_sq**2
        + 2 * (2 * A - H) * cross * sp.conjugate(cross)
        + 2 * sp.re((B_RE + sp.I * B_IM) * cross**2)
    )
    assert _is_zero(_quartic(_symbolic_surface()) - closed)
    # the homogenized expression is the library's formula on unit vectors
    point = EinsteinFramePoint(-1.3, 0.4, 0.2 + 0.7j)
    values = {H: point.H, A: point.A, B_RE: point.B.real, B_IM: point.B.imag}
    rng = np.random.default_rng(5)
    for _ in range(5):
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        v /= np.linalg.norm(v)
        at_v = {**values, X1: v[0].real, Y1: v[0].imag, X2: v[1].real, Y2: v[1].imag}
        assert float(closed.subs(at_v)) == pytest.approx(hsc_surface_closed_form(point, v), abs=1e-12)


def test_chern_weil_discriminant_identity():
    b = B_RE + sp.I * B_IM
    gamma1, gamma2 = chern_weil(SimpleNamespace(H=H, A=A, B=b))
    gamma1, gamma2 = sp.nsimplify(gamma1, rational=True), sp.nsimplify(gamma2, rational=True)
    expected = (H - 2 * A) ** 2 / 2 + sp.Rational(3, 2) * (B_RE**2 + B_IM**2)
    assert _is_zero(3 * gamma2 - gamma1**2 - expected)


def _normalized_gammas(h, r):
    """(gamma1, gamma2, 2 max HSC) at (H, A, |B|) = (h, -1 - h, r), as exact
    expressions; every point with gamma1 < 0 scales to gamma1 = -1, which
    keeps the signs of the max and of gamma2 - k gamma1^2."""
    point = SimpleNamespace(H=h, A=-1 - h, B=r)
    gamma1, gamma2 = (sp.nsimplify(x, rational=True) for x in chern_weil(point))
    twice_max = sp.nsimplify(2 * max_hsc_surface(point).value, rational=True)
    return gamma1, gamma2, twice_max


def test_gammas_scale_with_the_point():
    t = sp.Symbol("t", positive=True)
    r = sp.Symbol("r", nonnegative=True)
    point, scaled = SimpleNamespace(H=H, A=A, B=r), SimpleNamespace(H=t * H, A=t * A, B=t * r)
    (g1, g2), (g1t, g2t) = chern_weil(point), chern_weil(scaled)
    assert _is_zero(g1t - t * g1) and _is_zero(g2t - t**2 * g2)
    assert _is_zero(max_hsc_surface(scaled).value - t * max_hsc_surface(point).value)


def test_sufficiency_test_implies_negative_hsc():
    # claim (a): with gamma1 = -1, a max HSC >= 0 forces gamma2 >= gamma1^2,
    # so gamma2 < gamma1^2 implies negative HSC
    y, z, r = sp.symbols("y z r", nonnegative=True)
    x = sp.Symbol("x", positive=True)
    # case H + 2 = y >= 0: max >= 0 means |B| = y + z with z >= 0, and
    # 2 (gamma2 - gamma1^2) = 4 (H + 1)^2 + |B|^2 - (H + 2)^2 >= 0
    gamma1, gamma2, twice_max = _normalized_gammas(y - 2, y + z)
    assert gamma1 == -1
    assert _is_zero(twice_max - z)
    assert sp.expand(2 * (gamma2 - gamma1**2) - 4 * (y - 1) ** 2).is_nonnegative
    # case H + 2 = -x < 0, with any |B| = r: gamma2 > gamma1^2
    gamma1, gamma2, _ = _normalized_gammas(-2 - x, r)
    assert sp.expand(2 * (gamma2 - gamma1**2)).is_positive
    # sharp: at (-1, 0, 1), on the cone, gamma2 = gamma1^2 and the max is 0
    gamma1, gamma2, twice_max = _normalized_gammas(-1, 1)
    assert (gamma2 - gamma1**2, twice_max) == (0, 0)


def test_negative_hsc_bounds_gamma2_by_three():
    # claim (b): with gamma1 = -1, write H = p - 2 and |B| = p - q.  Negative
    # HSC is q > 0, |B| >= 0 is q <= p, and the cone 2A >= H + |B| is
    # 4 - 4p + q >= 0, so p <= 4/3.  Then 2 (3 gamma1^2 - gamma2) =
    # 4 p (2 - p) + q (2p - q) > 0: the first term is >= 0 and the second > 0
    p, q = sp.symbols("p q", positive=True)
    r = sp.Symbol("r", nonnegative=True)  # |B|, so that |r| = r
    gamma1, gamma2, twice_max = (x.subs(r, p - q) for x in _normalized_gammas(p - 2, r))
    assert _is_zero(twice_max + q)
    assert _is_zero(2 * (-1 - (p - 2)) - (p - 2) - (p - q) - (4 - 4 * p + q))
    assert _is_zero(2 * (3 * gamma1**2 - gamma2) - (4 * p * (2 - p) + q * (2 * p - q)))
    # 3 is the supremum: at p = q = e the max HSC is -e/2 < 0, the point is on
    # the cone for e <= 4/3, and gamma2 / gamma1^2 -> 3 as e -> 0
    e = sp.Symbol("e", positive=True)
    gamma1, gamma2, _ = _normalized_gammas(e - 2, 0)
    assert sp.limit(gamma2 / gamma1**2, e, 0) == 3


def test_ball_quotient_fixes_the_chern_normalization():
    # constant HSC c is (H, A, B) = (c, c/2, 0): gamma1^2 = 3 gamma2 at every
    # point, as c1^2 = 3 c2 for the ball quotient, so c1^2 and c2 integrate
    # gamma1^2 and gamma2 with one constant and gamma2 < 3 gamma1^2
    # integrates to c2 <= 3 c1^2, the geography module's bound
    c = sp.Symbol("c", real=True)
    gamma1, gamma2 = chern_weil(SimpleNamespace(H=c, A=c / 2, B=0))
    assert _is_zero(sp.nsimplify(gamma1**2 - 3 * gamma2, rational=True))
    assert _C2_BOUND == 3


# --- the ascent's derivatives and its line search ---------------------------


@lru_cache(maxsize=2)  # n = 2 and 3, each built once for both of its tests
def _ascent_terms(n: int) -> dict:
    """For a generic Kähler tensor R on C^n (``_generic_kahler``), symbolic
    v = x + i y and xi = a + i b: the quartic f, its gradient grad f_x + i
    grad f_y and Hessian-vector product H xi in real coordinates, as complex
    vectors, beside the terms the code forms from ``_quartic_matrix(R)``: Y
    conj(v) and Y conj(xi) for Y = x_s Kc, and P xi for P = conj((v (x)
    conj(v)) Rt).  ``_quartic_matrix`` is real-linear in R, so its matrices
    are read off numerically, one real symbol of R at a time, exactly."""
    R = _generic_kahler(n)
    x, y, a, b = (sp.symbols(f"{name}1:{n + 1}", real=True) for name in "xyab")
    v = [xj + sp.I * yj for xj, yj in zip(x, y)]
    xi = [aj + sp.I * bj for aj, bj in zip(a, b)]
    symbols = sorted(set().union(*(sp.sympify(z).free_symbols for z in R.values())), key=str)
    folds = []
    for c in symbols:
        coefficient = np.array([complex(sp.diff(R[idx], c)) for idx in product(range(n), repeat=4)])
        folds.append(_quartic_matrix(coefficient.reshape((n,) * 4)))
    I, J = folds[0][:2]
    exact = np.vectorize(_exact, otypes=[object])
    Kc, Rt = (sum(c * exact(fold[part]) for c, fold in zip(symbols, folds)) for part in (2, 4))
    conj_v, conj_xi = np.array([sp.conjugate(z) for z in v]), np.array([sp.conjugate(z) for z in xi])
    Y = (np.array([v[i] * v[j] for i, j in zip(I, J)]) @ Kc).reshape(n, n)
    P = np.vectorize(sp.conjugate, otypes=[object])((np.outer(v, conj_v).reshape(n * n) @ Rt).reshape(n, n))
    f = sp.expand(_quartic(R, v))
    grad = [sp.diff(f, xj) + sp.I * sp.diff(f, yj) for xj, yj in zip(x, y)]
    hess_xi = [sum(sp.diff(g, xk) * ak + sp.diff(g, yk) * bk for xk, yk, ak, bk in zip(x, y, a, b)) for g in grad]
    return dict(
        f=f, conj_v=conj_v, grad=grad, hess_xi=hess_xi, Y_v=Y @ conj_v, Y_xi=Y @ conj_xi, P_xi=P @ np.array(xi)
    )


def _all_zero(exprs) -> bool:
    return all(_is_zero(e) for e in exprs)


@pytest.mark.parametrize("n", [2, 3])
def test_gradient_is_four_y_conj_v(n):
    # curvature._value_and_gradient: f = Re conj(v).Y conj(v), here exactly
    # real, and the gradient in real coordinates is 4 Y conj(v)
    t = _ascent_terms(n)
    assert not t["f"].has(sp.I)
    assert _is_zero(t["conj_v"] @ t["Y_v"] - t["f"])
    assert _all_zero(g - 4 * yv for g, yv in zip(t["grad"], t["Y_v"]))
    assert not _all_zero(g - 3 * yv for g, yv in zip(t["grad"], t["Y_v"]))  # mutation: 4 -> 3 is refuted


@pytest.mark.parametrize("n", [2, 3])
def test_euclidean_hessian_is_eight_p_plus_four_y_conj(n):
    # extremize._newton_matrix: H xi = 8 P xi + 4 Y conj(xi)
    t = _ascent_terms(n)
    assert _all_zero(h - 8 * p - 4 * q for h, p, q in zip(t["hess_xi"], t["P_xi"], t["Y_xi"]))
    assert not _all_zero(h - 7 * p - 4 * q for h, p, q in zip(t["hess_xi"], t["P_xi"], t["Y_xi"]))  # 8 -> 7


G = sp.symbols("g0:5", real=True)


def _binary_quartic(a, b, g=G):
    return sum(gk * a ** (4 - k) * b**k for k, gk in enumerate(g))


def test_circle_coefficients_recover_any_binary_quartic(monkeypatch):
    # _circle_coefficients: g_0 = q(1, 0), the slope g_1 = dq(1, b)/db at 0 and
    # g_4 = q(0, 1) are read directly, and the even and odd parts of q(1, +-1) give g_2 and g_3
    b = sp.Symbol("b", real=True)
    f, fu, fp, fm = (_binary_quartic(*ab) for ab in ((1, 0), (0, 1), (1, 1), (1, -1)))
    slope = sp.diff(_binary_quartic(1, b), b).subs(b, 0)
    assert (f, slope, fu) == G[:2] + G[4:]
    assert _is_zero(fp / 2 + fm / 2 - f - fu - G[2])
    assert _is_zero(fp / 2 - fm / 2 - slope - G[3])
    # the code runs these formulas: with v = e_1 and u = e_2 the kernel's rows u and v +- u
    # are the points (0, 1) and (1, +-1), and small integers make every float exact
    g = np.random.default_rng(7).integers(-9, 10, size=(16, 5)).astype(float)
    V, U = np.eye(2, dtype=complex)[[0, 1]][:, None, :].repeat(len(g), axis=1)
    rows = np.tile(g, (3, 1))
    monkeypatch.setattr(extremize, "_values_batch", lambda K, W: _binary_quartic(*W.real.T, g=rows.T))
    for s in (1.0, -1.0):
        fitted = _circle_coefficients(None, V, U, s * g[:, 0], s * g[:, 1], np.full(len(g), s))
        assert np.array_equal(fitted, s * g)


T, U_COT, THETA = sp.symbols("t u theta", real=True)


def _stationary_quartics(g=G):
    """dq/dtheta at (cos theta, sin theta) over cos^4 theta, in t = tan theta, and
    over sin^4 theta, in u = cot theta, for q = ``_binary_quartic`` of g; along
    the circle d/dtheta is -s d/dc + c d/ds."""
    c, s = sp.symbols("c s", real=True)
    q = _binary_quartic(c, s, g)
    dq = -s * sp.diff(q, c) + c * sp.diff(q, s)
    trig = _binary_quartic(sp.cos(THETA), sp.sin(THETA), g)
    assert _is_zero(sp.diff(trig, THETA) - dq.subs({c: sp.cos(THETA), s: sp.sin(THETA)}))
    tan, cot = dq.subs({c: 1, s: T}), dq.subs({c: U_COT, s: 1})
    return sp.Poly(tan, T).all_coeffs(), sp.Poly(cot, U_COT).all_coeffs()


TAN_QUARTIC = [-G[3], 4 * G[4] - 2 * G[2], 3 * G[3] - 3 * G[1], 2 * G[2] - 4 * G[0], G[1]]


def test_stationary_angles_are_roots_of_the_tan_and_cot_quartics():
    # _companions: the tan quartic, highest power first, and its reverse in cot theta
    tan, cot = _stationary_quartics()
    assert _all_zero(x - y for x, y in zip(tan, TAN_QUARTIC))
    assert _all_zero(x - y for x, y in zip(cot, TAN_QUARTIC[::-1]))
    # and that reverse is minus the tan quartic of g reversed, which a cot row reads
    reversed_tan, _ = _stationary_quartics(G[::-1])
    assert _all_zero(x + y for x, y in zip(reversed_tan, TAN_QUARTIC[::-1]))


def _companions_match_the_quartics(g: np.ndarray) -> bool:
    """Whether the characteristic polynomial of each of ``_companions``' matrices on the
    rows g is the monic tan quartic of its row, or the cot quartic on a cot row."""
    companion, cot = _companions(g)
    assert cot.any() and not cot.all()
    quartic = sp.lambdify(G, TAN_QUARTIC)
    expected = [quartic(*row)[:: -1 if flag else 1] for row, flag in zip(g, cot)]
    expected = [np.array(q) / q[0] for q in expected]
    return all(np.allclose(np.poly(m), q, rtol=1e-9, atol=1e-12) for m, q in zip(companion, expected))


def test_companion_matrices_carry_the_stationary_quartics(monkeypatch):
    g = np.random.default_rng(11).standard_normal((32, 5))
    assert _companions_match_the_quartics(g)
    monkeypatch.setattr(extremize, "_DEGREES", np.array([4.0, 3.0, 3.0]))  # mutation: refuted
    assert not _companions_match_the_quartics(g)


# --- the Sym^2 fold's weights and Berger's average ---------------------------


def _complex_vector(n: int) -> tuple:
    """Real symbols x, y and v = x + i y on C^n."""
    x, y = (sp.symbols(f"{name}1:{n + 1}", real=True) for name in "xy")
    return x, y, [xj + sp.I * yj for xj, yj in zip(x, y)]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_fold_weights_give_the_squared_norm(n):
    # |v|^4 = sum_s w_s |x_s|^2 over the pairs s = (i, k), i <= k, of
    # curvature._fold_indices, with x_s = v_i v_k and w_s = 1 on i = k, 2 on i < k
    I, J, _, _, off = _fold_indices(n)
    _, _, v = _complex_vector(n)
    squared = [sp.expand(v[i] * v[k] * sp.conjugate(v[i] * v[k])) for i, k in zip(I, J)]
    norm4 = sp.expand(sum(z * sp.conjugate(z) for z in v) ** 2)
    assert _is_zero(sum((1 + int(w)) * q for w, q in zip(off, squared)) - norm4)
    assert not _is_zero(sum(squared) - norm4)  # mutation: dropped off-diagonal weights are refuted
    # the fold of constant HSC 1, whose quartic is |v|^4, is diag(w) exactly
    assert np.array_equal(_quartic_matrix(constant_hsc_tensor(n, 1.0).array)[3], np.diag(1.0 + off))


@lru_cache(maxsize=None)
def _gaussian_moment(a: int):
    """E t^a for t ~ N(0, 1/2), exactly."""
    t = sp.Symbol("t", real=True)
    return sp.integrate(t**a * sp.exp(-(t**2)), (t, -sp.oo, sp.oo)) / sp.sqrt(sp.pi)


def _sphere_mean(f, x, y):
    """The mean of the quartic form f(x + i y) over the unit sphere of C^n.  With
    x and y independent N(0, 1/2), |v| and v/|v| are independent and f(v) =
    |v|^4 f(v/|v|), so the sphere mean is E f / E |v|^4, each a sum of
    monomial moments."""

    def gaussian_mean(g):
        terms = sp.Poly(sp.expand(g), *x, *y).terms()
        return sp.expand(sum(c * sp.prod([_gaussian_moment(a) for a in powers]) for powers, c in terms))

    return sp.expand(gaussian_mean(f) / gaussian_mean(sum(xj**2 + yj**2 for xj, yj in zip(x, y)) ** 2))


@pytest.mark.parametrize("n", [2, 3])
def test_berger_average_is_two_scal_over_n_n_plus_one(n):
    # on the unit sphere E |v_i|^2 |v_j|^2 = (1 + d_ij) / (n (n + 1)), so the mean
    # of HSC = sum R[i,j,k,l] v_i conj(v_j) v_k conj(v_l) is (sum R[i,i,k,k] +
    # sum R[i,k,k,i]) / (n (n + 1)) = 2 Scal / (n (n + 1))
    x, y, v = _complex_vector(n)
    for i, j in product(range(n), repeat=2):
        moment = _sphere_mean(v[i] * sp.conjugate(v[i]) * v[j] * sp.conjugate(v[j]), x, y)
        assert moment == sp.Rational(1 + (i == j), n * (n + 1))
    R = _generic_kahler(n)
    # Scal as curvature.scalar contracts it: scalar is real-linear in R, so it is
    # read off one real symbol of R at a time, exactly
    symbols = sorted(set().union(*(sp.sympify(z).free_symbols for z in R.values())), key=str)
    scal = 0
    for c in symbols:
        coefficient = np.array([complex(sp.diff(R[idx], c)) for idx in product(range(n), repeat=4)])
        scal += c * sp.Rational(scalar(KahlerCurvatureTensor(coefficient.reshape((n,) * 4))))
    assert _is_zero(scal - sum(R[i, i, k, k] for i, k in product(range(n), repeat=2)))
    mean = _sphere_mean(_quartic(R, v), x, y)
    assert _is_zero(mean - 2 * scal / (n * (n + 1)))
    assert not _is_zero(mean - scal / (n * (n + 1)))  # mutation: 2 -> 1 is refuted
