"""Surface geography: bound checks, Noether completion, blow-ups, catalog."""

from __future__ import annotations

import json
import re

import jsonschema
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsckit import (
    MissingChernNumbers,
    SurfaceRecord,
    blowup_transform,
    builtin_surface_table,
    check_inequality,
    horikawa_scan,
    noether_fill,
    plot_columns,
    records_from_json,
    todorov_family,
)
from hsckit.cli import schema_text

NUMBER_FIELDS = ("c1sq", "c2", "pg", "q", "K2")


def test_check_oliverio_fails():
    v = check_inequality(SurfaceRecord("Oliverio", 8, 52))
    assert not v.passes and v.margin == -28


def test_check_barlow_fails():
    v = check_inequality(SurfaceRecord("Barlow", 1, 11))
    assert not v.passes and v.margin == -8


def test_check_ball_quotient_passes():
    v = check_inequality(SurfaceRecord("ball-quotient-type", 9, 3))
    assert v.passes and v.margin == 24


def test_check_requires_chern_numbers():
    with pytest.raises(MissingChernNumbers):
        check_inequality(SurfaceRecord("nameless", None, None))


def test_noether_fill_examples():
    assert noether_fill(4, 0, 4) == (4, 56)
    assert noether_fill(1, 0, 8) == (8, 16)
    assert noether_fill(0, 0, 9) == (9, 3)


def test_blowup_examples():
    assert blowup_transform(9, 3, 1) == (8, 4)
    assert blowup_transform(5, 7, 0) == (5, 7)
    assert blowup_transform(1, 11, 1) == (0, 12)


def test_blowup_rejects_negative_k():
    with pytest.raises(ValueError, match="k must be >= 0"):
        blowup_transform(9, 3, -1)


@given(
    c1sq=st.integers(min_value=-50, max_value=50),
    c2=st.integers(min_value=-50, max_value=200),
    k=st.integers(min_value=0, max_value=100),
)
@settings(max_examples=300, deadline=None)
def test_blowup_monotonicity(c1sq, c2, k):
    # a failing record can never start passing after blow-ups
    before = check_inequality(SurfaceRecord("x", c1sq, c2))
    after_pair = blowup_transform(c1sq, c2, k)
    after = check_inequality(SurfaceRecord("x'", *after_pair))
    if not before.passes:
        assert not after.passes


@given(
    pg=st.integers(min_value=0, max_value=30),
    q=st.integers(min_value=0, max_value=5),
    K2=st.integers(min_value=1, max_value=100),
)
@settings(max_examples=300, deadline=None)
def test_noether_margin_identity(pg, q, K2):
    # margin = 4 (K2 - 3 chi): the bound passes exactly when K2 >= 3 chi
    chi = 1 - q + pg
    c1sq, c2 = noether_fill(pg, q, K2)
    verdict = check_inequality(SurfaceRecord("grid", c1sq, c2))
    assert verdict.margin == 4 * (K2 - 3 * chi)
    assert verdict.passes == (K2 >= 3 * chi)
    if c2 > 0:
        assert (c1sq / c2 >= 1 / 3) == verdict.passes


def test_builtin_table_has_nine_families():
    table = builtin_surface_table()
    assert len(table) == 9
    names = [r.name for r in table]
    assert names == sorted(names)  # deterministic, alphabetical catalog
    assert "Godeaux" in names and "Keum-Naie" in names


def test_builtin_values_as_published():
    table = {r.name: r for r in builtin_surface_table()}
    assert (table["Godeaux"].c1sq, table["Godeaux"].c2) == (1, 11)
    assert (table["Burniat"].c1sq, table["Burniat"].c2) == (2, 10)
    assert (table["Campadelli"].c1sq, table["Campadelli"].c2) == (2, 10)
    assert (table["Oliverio"].c1sq, table["Oliverio"].c2) == (8, 52)


def test_builtin_all_fail_the_bound():
    for record in builtin_surface_table():
        assert not check_inequality(record).passes


def test_keum_naie_flagged_not_corrected():
    record = next(r for r in builtin_surface_table() if r.name == "Keum-Naie")
    assert (record.c1sq, record.c2) == (1, 11)  # stated values kept
    assert record.K2 == 4
    assert any(f.startswith("noether-mismatch") for f in record.flags)
    assert any(f.startswith("alternative-verdict") for f in record.flags)
    # the flagged alternative would indeed pass
    assert check_inequality(SurfaceRecord("alt", *noether_fill(0, 0, 4))).passes


def test_consistent_records_carry_no_mismatch_flag():
    for record in builtin_surface_table():
        if record.name == "Keum-Naie":
            continue
        assert not any(f.startswith("noether-mismatch") for f in record.flags), record.name


def test_horikawa_scan_examples():
    verdicts = {v.record.name: v for v in horikawa_scan(4, 4)}
    main_line = verdicts["Horikawa (pg=4, K2=2(pg-2))"]
    assert (main_line.record.c1sq, main_line.record.c2) == (4, 56)
    assert not main_line.passes


def test_horikawa_scan_pg10_second_line():
    verdicts = {v.record.name: v for v in horikawa_scan(10, 10)}
    line = verdicts["Horikawa (pg=10, K2=2pg-3)"]
    assert (line.record.c1sq, line.record.c2) == (17, 115)
    assert not line.passes


def test_horikawa_scan_all_fail():
    assert all(not v.passes for v in horikawa_scan(3, 30))


def test_horikawa_scan_rejects_low_pg():
    with pytest.raises(ValueError):
        horikawa_scan(2, 5)


def test_horikawa_scan_rejects_inverted_range():
    with pytest.raises(ValueError, match="empty pg range"):
        horikawa_scan(5, 3)


def test_todorov_passes_iff_k2_at_least_six():
    for record in todorov_family():
        assert check_inequality(record).passes == (record.K2 >= 6)


def test_plot_columns_carry_boundary_line():
    rows = plot_columns(builtin_surface_table())
    assert len(rows) == 9
    for row in rows:
        assert row["line_c2"] == 3 * row["c1sq"]


def test_json_round_trip_lossless_including_flags():
    table = builtin_surface_table()
    back = records_from_json(json.dumps([r.to_payload() for r in table]))
    assert tuple(back) == table


def test_record_with_partial_invariants_not_flagged():
    record = SurfaceRecord("partial", 5, 7, pg=2)
    assert record.flags == ()


@pytest.mark.parametrize(
    "key, value",
    [("c1sq", 1.5), ("c2", True), ("pg", 2.0), ("c1sq", np.int64(1)), ("name", 3), ("source", None),
     ("flags", "ab"), ("flags", (1,))],
)
def test_constructor_refuses_a_field_of_the_wrong_type(key, value):
    with pytest.raises(ValueError, match=f"^surface record field '{key}' must be "):
        SurfaceRecord(**{"name": "x", "c1sq": 1, "c2": 11, key: value})


class _Count(int):
    """An int subclass that is not a bool."""


BARLOW_NUMBERS = {"c1sq": 1, "c2": 11, "pg": 0, "q": 0, "K2": 1}


@pytest.mark.parametrize("key", NUMBER_FIELDS)
def test_an_int_subclass_is_accepted_in_each_number_field(key):
    # the record check's exact-type test misses the subclass, and the
    # per-field rule it falls back to takes any int but a bool
    record = SurfaceRecord("x", **{**BARLOW_NUMBERS, key: _Count(BARLOW_NUMBERS[key])})
    assert type(getattr(record, key)) is _Count
    assert record.flags == ()
    assert SurfaceRecord.from_payload(record.to_payload()) == record
    assert records_from_json(json.dumps([record.to_payload()])) == [record]


@pytest.mark.parametrize("value", [True, False, 1.0, np.int64(1)])
@pytest.mark.parametrize("key", NUMBER_FIELDS)
def test_a_bool_float_or_numpy_int_is_refused_naming_its_field(key, value):
    message = f"^surface record field '{key}' must be an integer or null, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        SurfaceRecord("x", **{**BARLOW_NUMBERS, key: value})
    with pytest.raises(ValueError, match=message):  # int subclasses in the other fields pass
        SurfaceRecord("x", **{**{k: _Count(v) for k, v in BARLOW_NUMBERS.items()}, key: value})
    with pytest.raises(ValueError, match=message):  # the first wrong field is named
        SurfaceRecord("x", **{**BARLOW_NUMBERS, key: value, "K2": 1.5 if key != "K2" else value})


@pytest.mark.parametrize("key", ["flag", "K_2"])
def test_reader_refuses_an_unknown_key(key):
    # a misspelt field is refused, not dropped
    with pytest.raises(ValueError, match=f"^surface record has unknown key '{key}'; its fields are name, c1sq, "):
        records_from_json(json.dumps([{"name": "a", "c1sq": 1, "c2": 2, key: 4}]))


@given(
    numbers=st.fixed_dictionaries({key: st.none() | st.integers(-30, 30) for key in NUMBER_FIELDS}),
    wrong=st.dictionaries(st.sampled_from(NUMBER_FIELDS), st.floats() | st.booleans(), max_size=2),
)
@settings(max_examples=60, deadline=None)
def test_a_record_is_refused_or_round_trips_to_schema_valid_json(numbers, wrong):
    # a float or bool for any Chern number or invariant is refused; every other
    # record survives JSON and gives a verdict the published schema accepts
    fields = {**numbers, **wrong}
    if wrong:
        with pytest.raises(ValueError):
            SurfaceRecord("x", **fields)
        return
    record = SurfaceRecord("x", **fields)
    assert records_from_json(json.dumps([record.to_payload()])) == [record]
    if record.c1sq is None or record.c2 is None:
        with pytest.raises(MissingChernNumbers):
            check_inequality(record)
        return
    payload = {"verdicts": [check_inequality(record).to_payload()]}
    jsonschema.validate(payload, json.loads(schema_text("geography check")))
