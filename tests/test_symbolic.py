"""Symbolic proofs (sympy) of the surface closed forms and the Bloch form.

These sit next to the numeric checks in test_curvature and test_extremize
and do not replace them.  Library functions whose arithmetic is plain
Python (``chern_weil``, ``max_hsc_surface``) are run on sympy symbols
directly; ``assemble_einstein_surface`` is real-linear in (H, A, Re B,
Im B), so its exact coefficient arrays are read off numerically.
"""

from __future__ import annotations

from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
import sympy as sp

from hsckit import (
    EinsteinFramePoint,
    assemble_einstein_surface,
    chern_weil,
    hsc_surface_closed_form,
    max_hsc_surface,
)
from hsckit.extremize import _PAULI

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


def _quartic(R: dict):
    """sum R[i,j,k,l] v_i conj(v_j) v_k conj(v_l) for the symbolic v."""
    conj = [sp.conjugate(z) for z in V]
    return sum(R[i, j, k, l] * V[i] * conj[j] * V[k] * conj[l] for i, j, k, l in INDICES)


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
