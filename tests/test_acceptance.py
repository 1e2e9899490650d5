"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the report lines.
"""

from __future__ import annotations

import time

import numpy as np

from hsckit import (
    EinsteinFramePoint,
    ExtremizeConfig,
    LieType,
    assemble_einstein_surface,
    audit_against_published,
    blowup_transform,
    builtin_surface_table,
    check_inequality,
    chern_weil,
    classify_all,
    distinguished_frame,
    expected_positive_root_count,
    extremize_hsc,
    horikawa_scan,
    max_hsc_surface,
    positive_roots,
    sample_hsc,
    scalar,
    SurfaceRecord,
    todorov_family,
    transform_frame,
)
from hsckit.rootsys import _build_root_system
from helpers import random_frame_point, random_kahler_tensor, random_unitary


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


def test_root_count_reproduction():
    _build_root_system.cache_clear()
    start = time.perf_counter()
    types = (
        [("A", n) for n in range(1, 9)]
        + [("B", n) for n in range(2, 9)]
        + [("C", n) for n in range(2, 9)]
        + [("D", n) for n in range(3, 9)]
        + [("G", 2), ("F", 4), ("E", 6), ("E", 7), ("E", 8)]
    )
    mismatches = []
    for family, rank in types:
        lt = LieType(family, rank)
        got = len(positive_roots(lt).positive_roots)
        want = expected_positive_root_count(lt)
        if got != want:
            mismatches.append((str(lt), got, want))
    elapsed = time.perf_counter() - start
    _report(
        "root-count reproduction",
        not mismatches and elapsed < 1.0,
        f"{len(types)} types exact in {elapsed:.3f}s",
    )


def test_itoh_classifier_audit():
    _build_root_system.cache_clear()
    start = time.perf_counter()
    classical_ok = True
    for family in "ABCD":
        lo = {"A": 2, "B": 2, "C": 2, "D": 3}[family]
        for rank in range(lo, 9):
            classical_ok &= all(v.itoh_positive for v in classify_all(LieType(family, rank)))
    report = audit_against_published()
    categorized = all(
        e.category in ("agree-positive", "agree-negative", "disagree") for e in report
    )
    disagreements = [e for e in report if e.category == "disagree"]
    witnesses_ok = all(e.verdict.evidence for e in disagreements)
    e6_nodes = {
        e.verdict.descriptor.node
        for e in report
        if e.verdict.descriptor.lie_type == LieType("E", 6)
    }
    e6_reported = e6_nodes == {1, 2, 3, 4, 5, 6}
    elapsed = time.perf_counter() - start
    names = [str(e.verdict.descriptor) for e in disagreements]
    _report(
        "itoh classifier audit",
        classical_ok and categorized and witnesses_ok and e6_reported and elapsed < 1.0,
        f"{len(report)} descriptors, disagreements: {names or 'none'}, "
        f"{elapsed:.3f}s",
    )


def test_closed_form_vs_numeric_hsc():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    worst_max = worst_min = 0.0
    for trial in range(100):
        point = random_frame_point(rng)
        tensor = assemble_einstein_surface(point)
        result = extremize_hsc(tensor, ExtremizeConfig(starts=8, seed=trial))
        worst_max = max(worst_max, abs(result.max_value - max_hsc_surface(point).value))
        worst_min = max(worst_min, abs(result.min_value - point.H))
    elapsed = time.perf_counter() - start
    _report(
        "closed-form vs numeric HSC",
        worst_max <= 1e-6 and worst_min <= 1e-6 and elapsed < 30.0,
        f"100 points, max err {worst_max:.2e}, min err {worst_min:.2e}, {elapsed:.1f}s",
    )


def test_ball_quotient_equality_and_gamma_identity():
    gamma1, gamma2 = chern_weil(EinsteinFramePoint(-1.0, -0.5, 0.0))
    constant_ok = abs(gamma1**2 - 3.0 * gamma2) <= 1e-12

    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(100_000):
        point = random_frame_point(rng, margin=0.0)
        g1, g2 = chern_weil(point)
        lhs = 3.0 * g2 - g1**2
        rhs = 0.5 * (point.H - 2.0 * point.A) ** 2 + 1.5 * abs(point.B) ** 2
        worst = max(worst, abs(lhs - rhs))
        if worst > 1e-12:
            break
    _report(
        "ball-quotient equality and gamma identity",
        constant_ok and worst <= 1e-12,
        f"identity deviation {worst:.2e} over 1e5 points",
    )


def test_sufficiency_sweep():
    start = time.perf_counter()
    rng = np.random.default_rng(5)
    kept = 0
    counterexamples = 0
    while kept < 1_000_000:
        m = 1_500_000
        H = -rng.uniform(0.2, 3.0, m)
        b_abs = rng.uniform(0.0, 1.5, m)
        A = 0.5 * (H + b_abs) + rng.uniform(0.0, 1.5, m)
        gamma1 = H + A
        mask = gamma1 < 0.0
        H, A, b_abs, gamma1 = H[mask], A[mask], b_abs[mask], gamma1[mask]
        take = min(len(H), 1_000_000 - kept)
        H, A, b_abs, gamma1 = H[:take], A[:take], b_abs[:take], gamma1[:take]
        gamma2 = 0.5 * (H**2 + 2.0 * A**2 + b_abs**2)
        max_hsc = H + 0.5 * (2.0 * A - H + b_abs)
        counterexamples += int(np.sum((gamma2 < gamma1**2) & (max_hsc >= 0.0)))
        kept += take
    # the vectorized arithmetic must agree with the scalar operations
    spot_rng = np.random.default_rng(6)
    agree = True
    for _ in range(2000):
        point = random_frame_point(spot_rng)
        g1, g2 = chern_weil(point)
        vec_g2 = 0.5 * (point.H**2 + 2.0 * point.A**2 + abs(point.B) ** 2)
        vec_max = point.H + 0.5 * (2.0 * point.A - point.H + abs(point.B))
        agree &= abs(vec_g2 - g2) < 1e-15 and abs(vec_max - max_hsc_surface(point).value) < 1e-15
    elapsed = time.perf_counter() - start
    _report(
        "sufficiency sweep",
        counterexamples == 0 and agree and elapsed < 10.0,
        f"1e6 points, {counterexamples} counterexamples, {elapsed:.1f}s",
    )


def test_berger_average():
    results = []
    ok = True
    for n in (2, 3, 4):
        tensor = random_kahler_tensor(n, seed=600 + n, shift=2.0 if n % 2 else -2.0)
        sampled = sample_hsc(tensor, 1_000_000, seed=n)
        predicted = 2.0 * scalar(tensor) / (n * (n + 1))
        rel = abs(sampled.mean - predicted) / abs(predicted)
        results.append(f"n={n}: rel {rel:.2%}")
        ok &= rel < 0.01
    _report("berger sphere average", ok, "; ".join(results))


def test_geography_reproduction():
    start = time.perf_counter()
    builtin_fail = all(not check_inequality(r).passes for r in builtin_surface_table())
    horikawa_fail = all(not v.passes for v in horikawa_scan(3, 50))
    todorov_ok = all(
        check_inequality(r).passes == (r.K2 >= 6) for r in todorov_family()
    )
    elapsed = time.perf_counter() - start
    _report(
        "geography reproduction",
        builtin_fail and horikawa_fail and todorov_ok and elapsed < 1.0,
        f"9 catalog families fail, horikawa pg 3..50 fails, todorov flips at K2=6, "
        f"{elapsed:.3f}s",
    )


def test_blowup_monotonicity():
    rng = np.random.default_rng(8)
    violations = 0
    for _ in range(10_000):
        c1sq = int(rng.integers(-20, 40))
        c2 = int(rng.integers(-20, 120))
        k = int(rng.integers(0, 50))
        before = check_inequality(SurfaceRecord("r", c1sq, c2))
        after = check_inequality(SurfaceRecord("r", *blowup_transform(c1sq, c2, k)))
        if not before.passes and after.passes:
            violations += 1
    _report("blow-up monotonicity", violations == 0, f"1e4 triples, {violations} violations")


def test_frame_round_trip():
    start = time.perf_counter()
    rng = np.random.default_rng(9)
    worst_err = worst_residual = 0.0
    for trial in range(100):
        point = random_frame_point(rng)
        U = random_unitary(2, seed=9000 + trial)
        rotated = transform_frame(assemble_einstein_surface(point), U)
        frame = distinguished_frame(rotated)
        err = max(
            abs(frame.point.H - point.H),
            abs(frame.point.A - point.A),
            abs(abs(frame.point.B) - abs(point.B)),
        )
        worst_err = max(worst_err, err)
        worst_residual = max(worst_residual, frame.residual)
    elapsed = time.perf_counter() - start
    _report(
        "distinguished-frame round trip",
        worst_err <= 1e-6 and worst_residual <= 1e-6,
        f"100 trials, worst err {worst_err:.2e}, worst residual {worst_residual:.2e}, "
        f"{elapsed:.1f}s",
    )
