"""Marked-node positivity verdicts and the published-list audit."""

from __future__ import annotations

import pytest

from hsckit import (
    CSpaceDescriptor,
    LieType,
    NodeOutOfRange,
    audit_against_published,
    classify_all,
    itoh_positive,
    published_positive,
)


def test_a3_node2_positive_level_one():
    v = itoh_positive(CSpaceDescriptor(LieType("A", 3), 2))
    assert v.itoh_positive
    assert v.max_level == 1
    assert v.evidence == ()


def test_g2_node2_positive():
    v = itoh_positive(CSpaceDescriptor(LieType("G", 2), 2))
    assert v.itoh_positive
    assert v.max_level == 2


def test_g2_node1_negative_with_witnesses():
    v = itoh_positive(CSpaceDescriptor(LieType("G", 2), 1))
    assert not v.itoh_positive
    assert set(v.evidence) == {(3, 1), (3, 2)}
    assert v.level_census == {1: 2, 2: 1, 3: 2}


def test_e8_endpoints_positive():
    assert itoh_positive(CSpaceDescriptor(LieType("E", 8), 1)).itoh_positive
    assert itoh_positive(CSpaceDescriptor(LieType("E", 8), 8)).itoh_positive


def test_node_out_of_range():
    with pytest.raises(NodeOutOfRange):
        CSpaceDescriptor(LieType("A", 3), 4)
    with pytest.raises(NodeOutOfRange):
        CSpaceDescriptor(LieType("A", 3), 0)


def test_classify_all_b3_all_positive():
    verdicts = classify_all(LieType("B", 3))
    assert len(verdicts) == 3
    assert all(v.itoh_positive for v in verdicts)


def test_classify_all_g2():
    verdicts = classify_all(LieType("G", 2))
    assert [v.itoh_positive for v in verdicts] == [False, True]


def test_classify_all_a1():
    verdicts = classify_all(LieType("A", 1))
    assert len(verdicts) == 1 and verdicts[0].itoh_positive


@pytest.mark.parametrize("family,rank", [(f, n) for f in "ABCD" for n in range(2, 13) if not (f == "D" and n < 3)])
def test_classical_families_always_positive(family, rank):
    for v in classify_all(LieType(family, rank)):
        assert v.itoh_positive, f"{v.descriptor} unexpectedly negative"
        if family == "A":
            assert v.max_level == 1


def test_verdict_internal_consistency():
    for lie_type in (LieType("E", 7), LieType("F", 4), LieType("B", 5)):
        for v in classify_all(lie_type):
            assert v.itoh_positive == (v.max_level <= 2) == (len(v.evidence) == 0)
            assert sum(v.level_census.values()) > 0
            assert all(r[v.descriptor.node - 1] >= 3 for r in v.evidence)


def test_census_sums_to_roots_through_node():
    from hsckit import level_set, positive_roots

    rs = positive_roots(LieType("F", 4))
    for v in classify_all(LieType("F", 4)):
        through = [r for r in rs.positive_roots if r[v.descriptor.node - 1] >= 1]
        assert sum(v.level_census.values()) == len(through)


def test_automorphism_invariance_of_verdicts():
    for rank in (3, 6):
        lt = LieType("A", rank)
        for node in range(1, rank + 1):
            a = itoh_positive(CSpaceDescriptor(lt, node))
            b = itoh_positive(CSpaceDescriptor(lt, rank + 1 - node))
            assert a.level_census == b.level_census
    e6 = LieType("E", 6)
    for pair in ((1, 6), (3, 5)):
        a = itoh_positive(CSpaceDescriptor(e6, pair[0]))
        b = itoh_positive(CSpaceDescriptor(e6, pair[1]))
        assert a.level_census == b.level_census and a.itoh_positive == b.itoh_positive


def test_audit_f4_node1_agrees_positive():
    report = audit_against_published()
    entry = next(
        e
        for e in report
        if e.verdict.descriptor.lie_type == LieType("F", 4) and e.verdict.descriptor.node == 1
    )
    assert entry.category == "agree-positive"


def test_audit_e7_node3_agrees_negative():
    report = audit_against_published()
    entry = next(
        e
        for e in report
        if e.verdict.descriptor.lie_type == LieType("E", 7) and e.verdict.descriptor.node == 3
    )
    assert entry.category == "agree-negative"
    assert not entry.published_positive and not entry.verdict.itoh_positive


def test_audit_covers_e6_and_flags_node4():
    report = audit_against_published()
    e6_entries = {
        e.verdict.descriptor.node: e
        for e in report
        if e.verdict.descriptor.lie_type == LieType("E", 6)
    }
    assert set(e6_entries) == {1, 2, 3, 4, 5, 6}, "every marked E6 node must appear"
    for node in (1, 2, 3, 5, 6):
        assert e6_entries[node].category == "agree-positive"
    flagged = e6_entries[4]
    assert flagged.category == "disagree"
    assert flagged.published_positive and not flagged.verdict.itoh_positive
    assert flagged.verdict.evidence, "disagreement must carry witness roots"
    for root in flagged.verdict.evidence:
        assert root[3] >= 3


def test_audit_categories_partition():
    report = audit_against_published()
    total = sum(
        len([e for e in report if e.category == c])
        for c in ("agree-positive", "agree-negative", "disagree")
    )
    assert total == len(report)
    assert len([e for e in report if e.category == "disagree"]) == 1  # only (E6, node 4)


def test_audit_deterministic():
    a = [e.to_payload() for e in audit_against_published()]
    b = [e.to_payload() for e in audit_against_published()]
    assert a == b


def test_published_positive_exceptional_table():
    assert published_positive(CSpaceDescriptor(LieType("E", 7), 2))
    assert not published_positive(CSpaceDescriptor(LieType("E", 7), 4))
    assert published_positive(CSpaceDescriptor(LieType("G", 2), 2))
    assert not published_positive(CSpaceDescriptor(LieType("G", 2), 1))
    assert published_positive(CSpaceDescriptor(LieType("B", 9), 9))
