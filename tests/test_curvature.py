"""Curvature tensors: symmetries, contractions, closed forms, wire format."""

from __future__ import annotations

import copy
import pickle
import re
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsckit import (
    DimensionMismatch,
    Direction,
    EinsteinFramePoint,
    FrameConstraintViolated,
    KahlerCurvatureTensor,
    NotUnitary,
    RegimeViolation,
    TensorFormatError,
    assemble_einstein_surface,
    chern_weil,
    constant_hsc_tensor,
    hsc,
    hsc_surface_closed_form,
    max_hsc_surface,
    ricci,
    scalar,
    sufficient_negativity,
    tensor_from_dict,
    tensor_to_dict,
    transform_frame,
    validate,
)
from hsckit._wire import _orbit
from hsckit.curvature import _HERMITIAN, _fold_indices, _orbit_maps, _stated_array
from helpers import hsc_bruteforce, product_tensor, random_kahler_tensor, random_unitary, transform_frame_einsum

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


# --- validation and canonicalization ---------------------------------------


def test_validate_constant_tensor_ok():
    assert validate(constant_hsc_tensor(2, -1.0)).ok


def test_validate_assembled_tensor_ok():
    T = assemble_einstein_surface(EinsteinFramePoint(-1.0, 0.25, 0.0))
    assert validate(T).ok


@pytest.mark.parametrize("scale", [1.0, 1e8, 1e12])
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_canonical_tensor_is_exactly_invariant(n, scale):
    # every image holds its orbit's value bit for bit, at any magnitude
    assert validate(random_kahler_tensor(n, seed=70 + n, scale=scale), 0.0).ok


def test_validate_reports_injected_defect():
    T = assemble_einstein_surface(EinsteinFramePoint(-1.0, 0.25, 0.1))
    R = T.array.copy()
    R[0, 1, 0, 1] += 1e-3
    report = validate(R, 1e-9)
    assert not report.ok
    assert any(v.indices == (0, 1, 0, 1) for v in report.violations)


@pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1.0])
def test_validate_rejects_bad_tolerance(tol):
    R = np.zeros((2, 2, 2, 2), dtype=complex)
    R[0, 1, 0, 1] = 1.0  # conjugate image left unset
    assert not validate(R, 1e-9).ok
    with pytest.raises(ValueError, match="tolerance must be finite and >= 0"):
        validate(R, tol)


def test_canonicalization_records_residual():
    R = np.zeros((2, 2, 2, 2), dtype=complex)
    R[0, 0, 0, 0] = 1.0
    R[0, 1, 0, 1] = 0.5  # conjugate image left unset: asymmetric input
    T = KahlerCurvatureTensor(R)
    assert T.asymmetry > 0.1
    assert validate(T).ok  # canonicalized result is symmetric
    assert repr(T) == "KahlerCurvatureTensor(n=2, asymmetry=0.25)"


def test_tensor_is_readonly():
    T = constant_hsc_tensor(2, 1.0)
    with pytest.raises(ValueError):
        T.array[0, 0, 0, 0] = 5.0


@pytest.mark.filterwarnings("error")  # no RuntimeWarning may surface
@pytest.mark.parametrize(
    "value, symmetric_input",
    [(np.inf, True), (np.inf, False), (np.nan, True), (np.nan, False)],
)
def test_non_finite_tensor_rejected(value, symmetric_input):
    R = np.zeros((2, 2, 2, 2), dtype=complex)
    if symmetric_input:
        R[0, 0, 0, 0] = value  # an orbit of one entry: already symmetric
    else:
        R[0, 1, 0, 1] = value  # conjugate image left unset: asymmetric input
    with pytest.raises(ValueError, match="not finite"):
        KahlerCurvatureTensor(R)


@pytest.mark.filterwarnings("error")
def test_huge_finite_tensor_loads():
    R = np.zeros((2, 2, 2, 2), dtype=complex)
    R[0, 0, 0, 0] = 1e308  # summing the orbit images before scaling would overflow
    T = KahlerCurvatureTensor(R)
    assert T.array[0, 0, 0, 0] == 1e308
    assert T.asymmetry == 0.0


def test_bad_shape_rejected():
    with pytest.raises(DimensionMismatch):
        KahlerCurvatureTensor(np.zeros((2, 2, 2)))
    with pytest.raises(DimensionMismatch):
        KahlerCurvatureTensor(np.zeros((2, 2, 2, 3)))
    # n = 0 has no unit sphere, and the wire format already rejects it
    with pytest.raises(DimensionMismatch, match="n >= 1"):
        KahlerCurvatureTensor(np.zeros((0, 0, 0, 0)))


# --- hsc --------------------------------------------------------------------


@pytest.mark.parametrize("v", [[1, 0, 0], [0, 1j, 0], [1, 1, 1], [0.3, -2j, 1 + 1j]])
def test_constant_tensor_has_constant_hsc(v):
    T = constant_hsc_tensor(3, 0.7)
    assert hsc(T, v) == pytest.approx(0.7, abs=1e-12)


def test_hsc_assembled_surface_mixed_direction():
    T = assemble_einstein_surface(EinsteinFramePoint(-1.0, 0.25, 0.0))
    assert hsc(T, np.array([1.0, 1.0]) / np.sqrt(2)) == pytest.approx(-0.25, abs=1e-12)


def test_hsc_coordinate_direction_reads_diagonal_entry():
    T = random_kahler_tensor(3, seed=5)
    e1 = np.array([1.0, 0.0, 0.0])
    assert hsc(T, e1) == pytest.approx(float(T.array[0, 0, 0, 0].real), abs=1e-12)


@pytest.mark.parametrize("seed", range(4))
def test_hsc_matches_bruteforce_oracle(seed):
    T = random_kahler_tensor(3, seed=seed)
    rng = np.random.default_rng(100 + seed)
    for _ in range(5):
        v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert hsc(T, v) == pytest.approx(hsc_bruteforce(T, v), abs=1e-10)


def test_hsc_scale_invariant():
    T = random_kahler_tensor(2, seed=9)
    v = np.array([0.3 + 1j, -0.7])
    base = hsc(T, v)
    for lam in (2.0, -3.5, 1j, 0.1 - 0.2j, 1e200, 1e-200):
        assert hsc(T, lam * v) == pytest.approx(base, rel=1e-12)
    for bad in ([np.inf, 0.0], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            hsc(T, bad)


def test_hsc_near_the_float_range():
    # the fold of the quartic matrix sums entries: unscaled, they would overflow to inf - inf = nan
    T = KahlerCurvatureTensor(constant_hsc_tensor(3, 1.0).array * 1e308)
    assert hsc(T, [1, 1, 0]) == pytest.approx(1e308, rel=1e-15)
    # every entry 1e308 gives HSC 1e308 |v_1 + v_2|^4 = 4e308 along (1, 1)
    with pytest.raises(FloatingPointError):
        hsc(KahlerCurvatureTensor(np.full((2,) * 4, 1e308)), [1, 1])


@pytest.mark.parametrize("k", [-900, -7, 0, 6, 900])
def test_hsc_scales_exactly_by_powers_of_two(k):
    T = random_kahler_tensor(3, seed=12)
    scaled = KahlerCurvatureTensor(np.ldexp(1.0, k) * T.array)
    v = np.array([0.3 + 1j, -0.7, 0.2j])
    assert hsc(scaled, v) == np.ldexp(hsc(T, v), k)


def test_hsc_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        hsc(constant_hsc_tensor(2, 1.0), [1, 0, 0])


def test_direction_normalizes_and_rejects_zero():
    d = Direction([3.0, 4.0])
    assert np.linalg.norm(d.vector) == pytest.approx(1.0)
    for scale in (1e200, 1e-200):
        assert np.allclose(Direction([3.0 * scale, 4.0 * scale]).vector, d.vector, rtol=0, atol=1e-12)
    with pytest.raises(ValueError):
        Direction([0.0, 0.0])
    for bad in ([np.inf, 0.0], [np.nan, 1.0]):
        with pytest.raises(ValueError, match="finite"):
            Direction(bad)


def test_direction_replace_renormalizes_and_copies_keep_bits():
    d = Direction([3.0, 4.0])
    with pytest.raises(AttributeError):
        d.vector = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        d.vector[0] = 1.0  # read-only
    assert np.array_equal(d._replace(vector=[0.0, 2.0]).vector, [0.0, 1.0])
    with pytest.raises(ValueError, match="nonzero"):
        d._replace(vector=[0.0, 0.0])
    # a copy keeps the bits: renormalizing a unit vector may move its last bit
    d = Direction(np.random.default_rng(0).standard_normal(12).view(complex))
    assert not np.array_equal(Direction(d.vector).vector, d.vector)
    for twin in (pickle.loads(pickle.dumps(d)), copy.copy(d), copy.deepcopy(d)):
        assert type(twin) is Direction and not twin.vector.flags.writeable
        assert np.array_equal(twin.vector, d.vector)


# --- contractions -------------------------------------------------------------


@pytest.mark.parametrize("n,c", [(2, -1.0), (3, 2.0), (4, 0.5)])
def test_ricci_of_constant_tensor(n, c):
    T = constant_hsc_tensor(n, c)
    expected = 0.5 * c * (n + 1) * np.eye(n)
    assert np.allclose(ricci(T), expected, atol=1e-12)


def test_scalar_of_constant_surface_tensor():
    assert scalar(constant_hsc_tensor(2, 1.5)) == pytest.approx(4.5)


def test_zero_tensor_contractions():
    T = KahlerCurvatureTensor(np.zeros((3, 3, 3, 3)))
    assert np.allclose(ricci(T), 0.0)
    assert scalar(T) == 0.0


def test_ricci_and_scalar_near_the_float_range():
    # both contract R 2^-e and scale back; summed as stated, Ric_00 = 1.5e308 + 1.5e308 - 1.5e308 read inf
    entries = [(0, 0, 0, 0, 1.5e308), (0, 0, 1, 1, 1.5e308), (0, 0, 2, 2, -1.5e308)]
    T = tensor_from_dict({"n": 3, "entries": [dict(zip(("i", "j", "k", "l", "re"), entry)) for entry in entries]})
    assert np.diagonal(ricci(T)).tolist() == [1.5e308, 1.5e308, -1.5e308]
    assert scalar(T) == 1.5e308
    # a contraction beyond the float range raises rather than reading inf
    with pytest.raises(FloatingPointError):
        ricci(assemble_einstein_surface(EinsteinFramePoint(-1.5e308, -0.6e308, 0.3e308)))
    with pytest.raises(FloatingPointError):
        scalar(KahlerCurvatureTensor(constant_hsc_tensor(3, 1.0).array * 1e308))


def test_ricci_is_hermitian():
    T = random_kahler_tensor(4, seed=3)
    ric = ricci(T)
    assert np.allclose(ric, ric.conj().T, atol=1e-12)


# --- frame changes ------------------------------------------------------------


def test_transform_identity_is_identity():
    T = random_kahler_tensor(3, seed=1)
    assert np.allclose(transform_frame(T, np.eye(3)).array, T.array, atol=1e-14)


def test_constant_tensor_unitarily_invariant():
    T = constant_hsc_tensor(2, 0.8)
    U = random_unitary(2, seed=2)
    assert np.allclose(transform_frame(T, U).array, T.array, atol=1e-12)


def test_transform_round_trip():
    T = random_kahler_tensor(3, seed=7)
    U = random_unitary(3, seed=8)
    back = transform_frame(transform_frame(T, U), U.conj().T)
    assert np.allclose(back.array, T.array, atol=1e-12)


def test_transform_consistent_with_direction_change():
    T = random_kahler_tensor(3, seed=11)
    U = random_unitary(3, seed=12)
    Tp = transform_frame(T, U)
    rng = np.random.default_rng(13)
    for _ in range(4):
        w = rng.standard_normal(3) + 1j * rng.standard_normal(3)
        assert hsc(Tp, w) == pytest.approx(hsc(T, U @ w), abs=1e-10)


def test_unitary_invariance_of_spectral_data():
    T = random_kahler_tensor(3, seed=21)
    U = random_unitary(3, seed=22)
    Tp = transform_frame(T, U)
    assert np.allclose(
        np.linalg.eigvalsh(ricci(T)), np.linalg.eigvalsh(ricci(Tp)), atol=1e-8
    )
    assert scalar(T) == pytest.approx(scalar(Tp), abs=1e-8)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_transform_matches_einsum_reference(n):
    T = random_kahler_tensor(n, seed=40 + n)
    U = random_unitary(n, seed=50 + n)
    reference = KahlerCurvatureTensor(transform_frame_einsum(T.array, U)).array
    assert np.max(np.abs(transform_frame(T, U).array - reference)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_transform_matches_tensordot_bit_for_bit(n):
    # each factor is one matmul on the (n, n^3) view, the product that
    # np.tensordot(R, M, axes=(0, 0)) forms
    for seed in range(4):
        T = random_kahler_tensor(n, seed=100 + 10 * n + seed)
        U = random_unitary(n, seed=200 + 10 * n + seed)
        R = T.array
        for M in (U, U.conj(), U, U.conj()):
            R = np.tensordot(R, M, axes=(0, 0))
        assert transform_frame(T, U).array.tobytes() == KahlerCurvatureTensor(R).array.tobytes()


def test_transform_at_n16_is_fast():
    T = random_kahler_tensor(16, seed=60)
    U = random_unitary(16, seed=61)
    start = time.perf_counter()
    transform_frame(T, U)
    assert time.perf_counter() - start < 1.0


def test_not_unitary_rejected():
    with pytest.raises(NotUnitary):
        transform_frame(constant_hsc_tensor(2, 1.0), np.array([[1.0, 0.1], [0.0, 1.0]]))


@pytest.mark.parametrize("U", [np.array([[np.nan, 0.0], [0.0, 1.0]]), np.full((2, 2), np.nan)])
def test_nan_frame_rejected_as_not_unitary(U):
    # a NaN defect compares False with the tolerance; tested as "defect > tol", such a U
    # passed and failed later, as a non-finite curvature array
    with pytest.raises(NotUnitary, match="defect nan"):
        transform_frame(constant_hsc_tensor(2, 1.0), U)


def test_frame_of_wrong_shape_rejected():
    with pytest.raises(DimensionMismatch, match=r"expected a 2x2 matrix, got \(3, 3\)"):
        transform_frame(constant_hsc_tensor(2, 1.0), np.eye(3))


# --- distinguished-frame closed forms ----------------------------------------


def test_assemble_constant_identification():
    assert np.allclose(
        assemble_einstein_surface(EinsteinFramePoint(-1.0, -0.5, 0.0)).array,
        constant_hsc_tensor(2, -1.0).array,
        atol=1e-14,
    )


def test_assemble_zero_point():
    T = assemble_einstein_surface(EinsteinFramePoint(0.0, 0.0, 0.0))
    assert np.allclose(T.array, 0.0)


def test_assemble_is_einstein():
    T = assemble_einstein_surface(EinsteinFramePoint(-1.3, 0.4, 0.2 + 0.1j))
    ric = ricci(T)
    lam = EinsteinFramePoint(-1.3, 0.4, 0.2 + 0.1j).einstein_constant
    assert np.allclose(ric, lam * np.eye(2), atol=1e-12)


def test_frame_constraint_enforced():
    with pytest.raises(FrameConstraintViolated):
        EinsteinFramePoint(-1.0, -0.8, 0.0)  # 2A = -1.6 < H + |B| = -1
    with pytest.raises(FrameConstraintViolated):
        EinsteinFramePoint(0.0, 0.0, 1.0)


@pytest.mark.parametrize(
    "H, A, B",
    [
        (float("nan"), 0.0, 0.0),
        (-1.0, float("inf"), 0.0),
        (-1.0, 0.0, complex(0, float("nan"))),
        pytest.param(np.float64("nan"), 0.0, 0.0, id="numpy-nan"),
        pytest.param(-1.0, 0.0, np.complex128(complex(0, float("nan"))), id="numpy-nanj"),
    ],
)
def test_frame_point_rejects_non_finite(H, A, B):
    with pytest.raises(ValueError, match="finite"):
        EinsteinFramePoint(H, A, B)


def test_frame_point_takes_numpy_scalars():
    point = EinsteinFramePoint(np.float64(-1.0), np.float64(0.25), np.complex128(0.1 - 0.2j))
    assert point == EinsteinFramePoint(-1.0, 0.25, 0.1 - 0.2j)
    assert (type(point.H), type(point.A), type(point.B)) == (float, float, complex)


def test_frame_point_rejects_an_overflowing_modulus():
    # both parts are finite, but |B| is past the float range
    error = "frame data too large: |B| overflows at H=0.0, A=1.0, B=(1.5e+308+1.5e+308j)"
    with pytest.raises(ValueError, match=re.escape(error)):
        EinsteinFramePoint(0, 1, 1.5e308 + 1.5e308j)


def test_closed_form_examples():
    assert hsc_surface_closed_form(
        EinsteinFramePoint(-1.0, -0.5, 0.0), [0.6, 0.8j]
    ) == pytest.approx(-1.0, abs=1e-12)
    assert hsc_surface_closed_form(
        EinsteinFramePoint(-1.0, 0.25, 0.0), np.array([1, 1]) / np.sqrt(2)
    ) == pytest.approx(-0.25, abs=1e-12)
    assert hsc_surface_closed_form(
        EinsteinFramePoint(-2.0, 0.0, 1.0), np.array([1, 1j]) / np.sqrt(2)
    ) == pytest.approx(-1.5, abs=1e-12)


def test_closed_form_matches_tensor_contraction():
    rng = np.random.default_rng(31)
    for trial in range(25):
        H = -rng.uniform(0.2, 3.0)
        b = rng.uniform(0, 1.5) * np.exp(1j * rng.uniform(0, 2 * np.pi))
        A = 0.5 * (H + abs(b)) + rng.uniform(0.0, 1.5)
        p = EinsteinFramePoint(H, A, b)
        T = assemble_einstein_surface(p)
        v = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert hsc(T, v) == pytest.approx(hsc_surface_closed_form(p, v), abs=1e-10)


def test_max_hsc_surface_examples():
    assert max_hsc_surface(EinsteinFramePoint(-1.0, -0.5, 0.0)) == (-1.0, True)
    value, negative = max_hsc_surface(EinsteinFramePoint(-1.0, 0.25, 0.0))
    assert value == pytest.approx(-0.25) and negative
    value, negative = max_hsc_surface(EinsteinFramePoint(-2.0, 0.0, 1.0))
    assert value == pytest.approx(-0.5) and negative


def test_max_hsc_can_be_positive():
    value, negative = max_hsc_surface(EinsteinFramePoint(-1.0, 0.26, 0.9))
    assert value == pytest.approx(0.21, abs=1e-12)
    assert not negative


def test_chern_weil_examples():
    assert chern_weil(EinsteinFramePoint(-1.0, -0.5, 0.0)) == pytest.approx((-1.5, 0.75))
    assert chern_weil(EinsteinFramePoint(-2.0, 0.0, 1.0)) == pytest.approx((-2.0, 2.5))
    assert chern_weil(EinsteinFramePoint(0.0, 0.0, 0.0)) == (0.0, 0.0)


def test_ball_quotient_equality_constant_point():
    gamma1, gamma2 = chern_weil(EinsteinFramePoint(-1.0, -0.5, 0.0))
    assert abs(gamma1**2 - 3.0 * gamma2) < 1e-12


@given(
    H=finite,
    A=finite,
    b_re=finite,
    b_im=finite,
)
@settings(max_examples=200, deadline=None)
def test_gamma_identity(H, A, b_re, b_im):
    # 3 gamma2 - gamma1^2 = (H - 2A)^2 / 2 + 3 |B|^2 / 2, for any (H, A, B)
    B = complex(b_re, b_im)
    gamma1 = H + A
    gamma2 = 0.5 * (H**2 + 2 * A**2 + abs(B) ** 2)
    lhs = 3.0 * gamma2 - gamma1**2
    rhs = 0.5 * (H - 2 * A) ** 2 + 1.5 * abs(B) ** 2
    assert lhs == pytest.approx(rhs, abs=1e-9 * max(1.0, abs(lhs)))


def test_sufficiency_examples():
    assert sufficient_negativity(EinsteinFramePoint(-1.0, -0.5, 0.0)) is True
    assert sufficient_negativity(EinsteinFramePoint(-2.0, 0.0, 1.0)) is True
    assert sufficient_negativity(EinsteinFramePoint(-1.0, 0.26, 0.9)) is False


def test_sufficiency_when_gamma1_squared_overflows():
    # gamma2 = 7.5e307 is finite; gamma1^2 = 2.25e308 is past the float range
    assert sufficient_negativity(EinsteinFramePoint(-1e154, -5e153, 0.0)) is True


@pytest.mark.parametrize("H, A, B", [(1e200, 1e200, 0.0), (0.0, 1e308, 1e308), (0.0, 1.1e154, 0.0)])
def test_chern_weil_overflow_names_the_frame_data(H, A, B):
    point = EinsteinFramePoint(H, A, B)
    with pytest.raises(ValueError, match=re.escape(f"at H={point.H}, A={point.A}, B={point.B}")):
        chern_weil(point)


def test_sufficiency_outside_regime_raises():
    with pytest.raises(RegimeViolation):
        sufficient_negativity(EinsteinFramePoint(0.0, 0.0, 0.0))
    with pytest.raises(RegimeViolation):
        sufficient_negativity(EinsteinFramePoint(1.0, 1.0, 0.0))


# --- products -----------------------------------------------------------------


def test_product_of_unit_constants():
    T = product_tensor(constant_hsc_tensor(1, 1.0), constant_hsc_tensor(1, 1.0))
    assert hsc(T, np.array([1.0, 1.0]) / np.sqrt(2)) == pytest.approx(0.5, abs=1e-12)


def test_product_supported_directions_reads_factor():
    T1 = random_kahler_tensor(2, seed=41)
    T2 = random_kahler_tensor(2, seed=42)
    T = product_tensor(T1, T2)
    v = np.array([0.6, -0.8j])
    assert hsc(T, np.concatenate([v, np.zeros(2)])) == pytest.approx(hsc(T1, v), abs=1e-12)
    assert hsc(T, np.concatenate([np.zeros(2), v])) == pytest.approx(hsc(T2, v), abs=1e-12)


def test_product_mixed_blocks_vanish():
    T = product_tensor(constant_hsc_tensor(1, 1.0), constant_hsc_tensor(2, 2.0))
    assert T.array[0, 1, 1, 0] == 0.0
    assert T.array[0, 0, 1, 1] == 0.0


# --- Berger sphere average -----------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_berger_average_small(n):
    from hsckit import sample_hsc

    T = random_kahler_tensor(n, seed=50 + n, shift=2.0)
    result = sample_hsc(T, 200_000, seed=n)
    predicted = 2.0 * scalar(T) / (n * (n + 1))
    assert result.mean == pytest.approx(predicted, rel=0.02)


# --- wire format ---------------------------------------------------------------


def test_tensor_json_round_trip():
    T = random_kahler_tensor(3, seed=61)
    back = tensor_from_dict(tensor_to_dict(T))
    assert np.allclose(back.array, T.array, atol=1e-14)
    assert back.asymmetry < 1e-14


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_tensor_json_round_trip_is_bit_exact(n):
    T = random_kahler_tensor(n, seed=62 + n, scale=1e8)
    back = tensor_from_dict(tensor_to_dict(T))
    assert back.array.tobytes() == T.array.tobytes()
    assert back.asymmetry == 0.0


def test_tensor_json_unlisted_orbits_default_zero():
    T = tensor_from_dict({"n": 2, "entries": [{"i": 0, "j": 0, "k": 0, "l": 0, "re": -1.0, "im": 0.0}]})
    assert T.array[0, 0, 0, 0] == -1.0
    assert T.array[1, 1, 1, 1] == 0.0


def test_tensor_json_generates_symmetry_images():
    T = tensor_from_dict(
        {"n": 2, "entries": [{"i": 0, "j": 1, "k": 0, "l": 1, "re": 0.25, "im": 0.5}]}
    )
    assert T.array[0, 1, 0, 1] == pytest.approx(0.25 + 0.5j)
    assert T.array[1, 0, 1, 0] == pytest.approx(0.25 - 0.5j)
    assert T.asymmetry < 1e-14


def test_tensor_json_duplicate_orbit_rejected():
    entries = [
        {"i": 0, "j": 0, "k": 1, "l": 1, "re": 1.0, "im": 0.0},
        {"i": 1, "j": 1, "k": 0, "l": 0, "re": 2.0, "im": 0.0},
    ]
    with pytest.raises(TensorFormatError):
        tensor_from_dict({"n": 2, "entries": entries})


def test_tensor_json_self_conjugate_orbit_imag_shows_in_asymmetry():
    T = tensor_from_dict(
        {"n": 2, "entries": [{"i": 0, "j": 0, "k": 1, "l": 1, "re": 1.0, "im": 0.4}]}
    )
    assert T.asymmetry == pytest.approx(0.4, abs=1e-12)
    assert T.array[0, 0, 1, 1] == pytest.approx(1.0)


# --- the symmetry table ------------------------------------------------------


def _orbit_closure(idx: tuple[int, int, int, int]) -> set[tuple[int, int, int, int]]:
    """Reference orbit: closure of idx under the three generating swaps."""
    swaps = (
        lambda i, j, k, l: (k, j, i, l),  # unbarred pair
        lambda i, j, k, l: (i, l, k, j),  # barred pair
        lambda i, j, k, l: (j, i, l, k),  # hermitian
    )
    orbit, frontier = {idx}, [idx]
    while frontier:
        current = frontier.pop()
        for image in (swap(*current) for swap in swaps):
            if image not in orbit:
                orbit.add(image)
                frontier.append(image)
    return orbit


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_orbit_ids_match_bruteforce_closure(n):
    ids = _orbit_maps(n)[2]
    for idx in np.ndindex(ids.shape):
        rep = min(_orbit_closure(idx))
        assert ids[idx] == np.ravel_multi_index(rep, ids.shape)


@pytest.mark.parametrize("cached", [_orbit_maps, _fold_indices])
def test_index_maps_are_cached_per_n_and_read_only(cached):
    arrays = cached(3)
    assert cached(3) is arrays and cached.cache_info().maxsize == 4
    assert not any(a.flags.writeable for a in arrays)
    with pytest.raises(ValueError, match="read-only"):
        arrays[0].flat[0] = 0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_self_conjugate_orbit_representative_is_hermitian_fixed(n):
    """A self-conjugate orbit is closed under the two pair swaps alone, and
    its representative is fixed by the Hermitian swap, so its canonical
    value is exactly real."""
    for idx in np.ndindex((n,) * 4):
        orbit = _orbit_closure(idx)
        i, j, k, l = rep = min(orbit)
        if {(i, j, k, l), (k, j, i, l), (i, l, k, j), (k, l, i, j)} == orbit:
            assert tuple(rep[a] for a in _HERMITIAN) == rep


@pytest.mark.parametrize("n", range(1, 7))
def test_wire_orbit_matches_the_orbit_maps(n):
    # the reader's closed-form representative, linear flag and self-conjugacy
    # at every index, against the numpy maps the canonicalization uses
    linear, hermitian, ids = _orbit_maps(n)
    for idx in np.ndindex(ids.shape):
        rep, is_linear, self_conjugate = _orbit(*idx)
        assert np.ravel_multi_index(rep, ids.shape) == ids[idx]
        assert is_linear == (linear[idx] == ids[idx])
        assert self_conjugate == (linear[idx] == hermitian[idx])


@pytest.mark.parametrize("n", range(1, 7))
def test_serialized_tensor_states_a_symmetric_array(n):
    for seed in range(3):
        T = random_kahler_tensor(n, seed=70 + 10 * n + seed)
        assert validate(_stated_array(tensor_to_dict(T))).ok


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stated_array_fills_each_orbit_from_any_member(n):
    # each entry names a random member of its orbit with a complex value,
    # non-real on self-conjugate orbits too; the member's linear images
    # hold the value and the rest of its orbit the conjugate
    rng = np.random.default_rng(90 + n)
    expected = np.zeros((n,) * 4, dtype=complex)
    entries, done = [], set()
    for idx in np.ndindex(expected.shape):
        orbit = _orbit_closure(idx)
        if min(orbit) in done or rng.random() < 0.25:
            continue
        done.add(min(orbit))
        i, j, k, l = sorted(orbit)[rng.integers(len(orbit))]
        value = complex(rng.standard_normal(), rng.standard_normal())
        entries.append({"i": i, "j": j, "k": k, "l": l, "re": value.real, "im": value.imag})
        linear = {(i, j, k, l), (k, j, i, l), (i, l, k, j), (k, l, i, j)}
        for image in orbit:
            expected[image] = value if image in linear else value.conjugate()
    assert np.array_equal(_stated_array({"n": n, "entries": entries}), expected)


def _assemble_by_hand(point: EinsteinFramePoint) -> np.ndarray:
    """The surface array with every orbit image listed by hand."""
    R = np.zeros((2, 2, 2, 2), dtype=complex)
    R[0, 0, 0, 0] = point.H
    R[1, 1, 1, 1] = point.H
    for idx in ((0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 0)):
        R[idx] = point.A
    R[0, 1, 0, 1] = point.B
    R[1, 0, 1, 0] = np.conj(point.B)
    return KahlerCurvatureTensor(R).array


@pytest.mark.parametrize(
    "H, A, B", [(-1.0, 0.25, 0.0), (-1.0, 0.25, 0.5), (-2.0, 0.1, 0.3 - 0.7j), (-3.0, -0.5, 1j), (0.0, 0.0, 0.0)]
)
def test_assemble_matches_hand_listed_images(H, A, B):
    point = EinsteinFramePoint(H, A, B)
    assert assemble_einstein_surface(point).array.tobytes() == _assemble_by_hand(point).tobytes()


@pytest.mark.parametrize(
    "payload",
    [
        {"entries": []},
        {"n": 0, "entries": []},
        {"n": 2, "entries": [{"i": 0, "j": 0, "k": 0, "l": 5, "re": 1.0}]},
        {"n": 2, "entries": [{"i": 0, "j": 0, "k": 0, "re": 1.0}]},
        {"n": 2, "entries": [{"i": 0, "j": 0, "k": 0, "l": 0, "re": float("nan")}]},
        {"n": 2, "entries": [{"i": 0, "j": 0, "k": 1, "l": 1, "re": 0.0, "im": float("inf")}]},
        {"n": 2.7, "entries": []},
        {"n": True, "entries": []},
        {"n": 2, "entries": [{"i": 0.5, "j": 0, "k": 0, "l": 0, "re": 1.0}]},
        {"n": 2, "entries": [{"i": 0, "j": 0, "k": 0, "l": 0, "re": "-1.5"}]},
        {"n": 2, "entries": [{"i": 0, "j": 0, "k": 0, "l": 0, "re": True}]},
        {"n": 2, "entries": [{"i": 0, "j": 0, "k": 0, "l": 0, "re": 1.0, "im": None}]},
        {"n": 2, "entries": [{"i": 0, "j": 0, "k": 0, "l": 0, "re": 10**400}]},
        {"n": 10**6, "entries": []},  # rejected before anything is allocated
        {"n": 2, "entries": 5},
    ],
)
def test_tensor_json_malformed_rejected(payload):
    with pytest.raises(TensorFormatError):
        tensor_from_dict(payload)


@pytest.mark.parametrize(
    "payload, key",
    [
        ({"n": 2, "entries": [], "N": 3}, "N"),
        ({"n": 2, "entries": [{"i": 0, "j": 0, "k": 0, "l": 0, "re": 1.0, "imag": 5.0}]}, "imag"),
        ({"N": 2, "entries": []}, "N"),  # named before the missing n
        ({"n": 2, "entries": [{"i": 0, "j": 0, "k": 0, "l": 0, "Re": 1.0}]}, "Re"),  # before the missing re
    ],
)
def test_tensor_json_unknown_key_rejected(payload, key):
    # a file has only n and entries, and an entry only i, j, k, l, re and im
    with pytest.raises(TensorFormatError, match=f"^unknown key '{key}' in tensor "):
        tensor_from_dict(payload)
