"""Sphere extremization: optimizer vs closed forms, sampling oracle, frames."""

from __future__ import annotations

import numpy as np
import pytest

from hsckit import (
    EinsteinFramePoint,
    ExtremizeConfig,
    KahlerCurvatureTensor,
    NotEinstein,
    NotSurface,
    assemble_einstein_surface,
    constant_hsc_tensor,
    distinguished_frame,
    extremize_hsc,
    hsc,
    max_hsc_surface,
    product_tensor,
    ricci,
    sample_hsc,
    sample_unit_sphere,
    transform_frame,
)
from hsckit.curvature import _quartic_matrix, _value_and_gradient, _values_batch
from hsckit.extremize import (
    _MAX_ORACLE_SAMPLES,
    _MAX_STARTS,
    _ascend,
    _best_of_starts,
    _circle_coefficients,
    _start_directions,
    _trig_argopt,
    _trig_eval,
)
from helpers import (
    best_of_starts_serial,
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
        ExtremizeConfig(max_iters=0)
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


def _coefficient_rows(c0, c1, c2) -> np.ndarray:
    """Rows laid out as ``_circle_coefficients`` returns them: c_k for
    k = 0, 1, 2, -2, -1, with c_{-k} = conj(c_k) and c_0 real."""
    c1, c2 = np.asarray(c1, dtype=complex), np.asarray(c2, dtype=complex)
    return np.column_stack((np.asarray(c0, dtype=complex), c1, c2, c2.conj(), c1.conj()))


def _even_ab(c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The same polynomial as the cosine and sine coefficients (a, b) of
    harmonics 0..4 that the serial reference takes; odd ones are 0."""
    a = np.array([c[0].real, 0.0, 2.0 * c[1].real, 0.0, 2.0 * c[2].real])
    b = np.array([0.0, 0.0, -2.0 * c[1].imag, 0.0, -2.0 * c[2].imag])
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


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_circle_coefficients_reproduce_the_circle(n):
    # five samples on the half circle fix the whole circle, so 64 angles
    # over the full turn match the kernel
    T = random_kahler_tensor(n, seed=800 + n)
    K = _quartic_matrix(T.array)
    rng = np.random.default_rng(900 + n)
    V = sample_unit_sphere(n, 3, rng)
    U = sample_unit_sphere(n, 3, rng)
    U -= (V.conj() * U).sum(axis=1).real[:, None] * V
    U /= np.linalg.norm(U, axis=1, keepdims=True)
    angles = np.linspace(-np.pi, np.pi, 64, endpoint=False)
    got = _trig_eval(_circle_coefficients(K, V, U), np.tile(angles, (3, 1)))
    for v, u, row in zip(V, U, got):
        ref = _values_batch(K, np.outer(np.cos(angles), v) + np.outer(np.sin(angles), u))
        assert np.all(np.abs(row - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_ascent_stops_at_the_value_noise_floor():
    # this descent reaches H to within 3e-16 early on; a stall test that let
    # tied steps through kept it stepping until max_iters, unconverged
    p = EinsteinFramePoint(
        H=-0.5581463227956642, A=0.5714659935519548, B=-0.3876308181887844 - 1.0304108040358098j
    )
    cfg = ExtremizeConfig(starts=8, seed=88)
    start = _start_directions(2, cfg)[4:5]
    values, _, iters, converged = _ascend(-_quartic_matrix(assemble_einstein_surface(p).array), start, cfg)
    assert converged[0]
    assert iters[0] < cfg.max_iters
    assert -values[0] == pytest.approx(p.H, abs=1e-12)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 6])
def test_values_batch_matches_einsum_across_blocks(n):
    T = random_kahler_tensor(n, seed=500 + n)
    K = _quartic_matrix(T.array)
    rng = np.random.default_rng(600 + n)
    for m in (1, 8191, 8192, 2 * 8192 + 3):
        V = sample_unit_sphere(n, m, rng)
        ref = quartic_values_einsum(T.array, V)
        got = _values_batch(K, V)
        assert got.shape == (m,)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


@pytest.mark.parametrize("n, seed", [(3, 700), (4, 701), (6, 702)])
def test_batched_starts_match_serial_ascents(n, seed):
    T = random_kahler_tensor(n, seed=seed)
    cfg = ExtremizeConfig(starts=16, seed=seed)
    starts = _start_directions(n, cfg)
    for sign in (-1.0, 1.0):
        best, _, _, _ = _best_of_starts(sign * _quartic_matrix(T.array), starts, cfg)
        reference = best_of_starts_serial(T.array, starts, sign, cfg.max_iters)
        assert sign * best == pytest.approx(reference, rel=1e-12)


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


def test_sample_bit_identical_across_kernel_blocks():
    # 5 * 8192 + 17 rows: several kernel blocks inside one sampling chunk
    T = random_kahler_tensor(4, seed=12)
    a = sample_hsc(T, 5 * 8192 + 17, seed=6)
    b = sample_hsc(T, 5 * 8192 + 17, seed=6)
    for x, y in ((a.min_value, b.min_value), (a.max_value, b.max_value), (a.mean, b.mean)):
        assert np.float64(x).tobytes() == np.float64(y).tobytes()


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
