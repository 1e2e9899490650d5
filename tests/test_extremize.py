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
    sample_hsc,
    transform_frame,
)
from hsckit.curvature import _values_batch
from hsckit.extremize import _ascend, _gradient, _start_directions, _trig_argopt, _trig_eval
from helpers import random_frame_point, random_kahler_tensor, random_unitary


def test_config_validation():
    with pytest.raises(ValueError):
        ExtremizeConfig(starts=0)
    with pytest.raises(ValueError):
        ExtremizeConfig(max_iters=0)
    with pytest.raises(ValueError):
        ExtremizeConfig(oracle_samples=-1)


def test_gradient_matches_finite_differences():
    # independent oracle for the cubic-contraction gradient
    T = random_kahler_tensor(3, seed=77)
    R = T.array
    rng = np.random.default_rng(78)
    v = rng.standard_normal(3) + 1j * rng.standard_normal(3)
    g = _gradient(R, v)
    h = 1e-6
    for idx in range(3):
        for direction in (1.0, 1.0j):
            e = np.zeros(3, dtype=complex)
            e[idx] = direction
            ends = np.array([v + h * e, v - h * e])
            plus, minus = _values_batch(R, ends).real
            num = (plus - minus) / (2 * h)
            ana = float((g * np.conj(e)).sum().real)
            assert num == pytest.approx(ana, rel=1e-5, abs=1e-6)


@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_trig_argopt_reaches_dense_grid_optimum(sign):
    rng = np.random.default_rng(10)
    grid = np.linspace(-np.pi, np.pi, 20_001, endpoint=False)
    for _ in range(100):
        a, b = rng.standard_normal(5), rng.standard_normal(5)
        theta = _trig_argopt(a, b, sign)
        best_on_grid = np.max(sign * _trig_eval(a, b, grid))
        assert sign * _trig_eval(a, b, theta) >= best_on_grid - 1e-12


def test_trig_argopt_constant_polynomial_stays_put():
    assert _trig_argopt(np.array([2.0, 0, 0, 0, 0]), np.zeros(5), 1.0) == 0.0


def test_ascent_stops_at_the_value_noise_floor():
    # this descent reaches H to within 3e-16 early on; a stall test that let
    # tied steps through kept it stepping until max_iters, unconverged
    p = EinsteinFramePoint(
        H=-0.5581463227956642, A=0.5714659935519548, B=-0.3876308181887844 - 1.0304108040358098j
    )
    cfg = ExtremizeConfig(starts=8, seed=88)
    start = _start_directions(2, cfg)[4]
    value, _, iters, converged = _ascend(assemble_einstein_surface(p).array, start, -1.0, cfg)
    assert converged
    assert iters < cfg.max_iters
    assert value == pytest.approx(p.H, abs=1e-12)


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
