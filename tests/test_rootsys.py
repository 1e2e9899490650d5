"""Root system enumeration: counts, level sets, symmetries."""

from __future__ import annotations

from fractions import Fraction

import numpy as np
import pytest

from hsckit import (
    InadmissibleRank,
    LieType,
    NodeOutOfRange,
    cartan_matrix,
    closure_from_cartan,
    highest_root,
    positive_roots,
)
from hsckit.rootsys import _expected_positive_root_count
from helpers import level_set

ALL_TYPES_RANK8 = (
    [("A", n) for n in range(1, 9)]
    + [("B", n) for n in range(2, 9)]
    + [("C", n) for n in range(2, 9)]
    + [("D", n) for n in range(3, 9)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)
# every type positive_roots enumerates: the classical ones up to rank 12
ALL_ADMISSIBLE = (
    [("A", n) for n in range(1, 13)]
    + [("B", n) for n in range(2, 13)]
    + [("C", n) for n in range(2, 13)]
    + [("D", n) for n in range(3, 13)]
    + [("E", 6), ("E", 7), ("E", 8), ("F", 4), ("G", 2)]
)


def test_cartan_matrix_rank_one():
    assert cartan_matrix(LieType("A", 1)) == ((2,),)


def test_cartan_matrix_a2():
    assert cartan_matrix(LieType("A", 2)) == ((2, -1), (-1, 2))


def test_cartan_matrix_g2_short_first_node():
    # node 1 is the short root: its coefficient in the highest root reaches 3
    assert cartan_matrix(LieType("G", 2)) == ((2, -1), (-3, 2))
    assert highest_root(positive_roots(LieType("G", 2))) == (3, 2)


@pytest.mark.parametrize(
    "family,rank",
    [("A", 0), ("B", 1), ("C", 1), ("D", 2), ("E", 5), ("E", 9), ("F", 3), ("G", 4), ("A", True), ("G", 2.0)],
)
def test_inadmissible_ranks_raise(family, rank):
    with pytest.raises(InadmissibleRank):
        LieType(family, rank)


def test_unknown_family_raises():
    with pytest.raises(InadmissibleRank):
        LieType("H", 3)


def test_positive_roots_a2():
    rs = positive_roots(LieType("A", 2))
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1)}


def test_positive_roots_g2():
    rs = positive_roots(LieType("G", 2))
    assert set(rs.positive_roots) == {(1, 0), (0, 1), (1, 1), (2, 1), (3, 1), (3, 2)}


def test_positive_roots_a1():
    assert positive_roots(LieType("A", 1)).positive_roots == ((1,),)


def test_deterministic_graded_order():
    rs = positive_roots(LieType("G", 2))
    heights = [sum(r) for r in rs.positive_roots]
    assert heights == sorted(heights)
    assert rs.positive_roots == tuple(sorted(rs.positive_roots, key=lambda r: (sum(r), r)))


@pytest.mark.parametrize("family,rank", ALL_TYPES_RANK8)
def test_counts_match_closed_form(family, rank):
    lt = LieType(family, rank)
    rs = positive_roots(lt)
    assert len(rs.positive_roots) == _expected_positive_root_count(lt)
    assert len(set(rs.positive_roots)) == len(rs.positive_roots)


@pytest.mark.parametrize("family,rank", ALL_TYPES_RANK8)
def test_cartan_matrix_well_formed(family, rank):
    cartan = cartan_matrix(LieType(family, rank))
    assert type(cartan) is tuple and all(type(row) is tuple for row in cartan)
    assert all(type(x) is int for row in cartan for x in row)
    A = np.array(cartan)
    assert (np.diagonal(A) == 2).all()
    off = A[~np.eye(A.shape[0], dtype=bool)]
    assert set(off.tolist()) <= {0, -1, -2, -3}
    assert ((A == 0) == (A.T == 0)).all()


def _determinant(matrix) -> Fraction:
    """The exact determinant, by Gaussian elimination over the rationals."""
    rows = [[Fraction(x) for x in row] for row in matrix]
    det = Fraction(1)
    for col in range(len(rows)):
        pivot = next((r for r in range(col, len(rows)) if rows[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det *= rows[col][col]
        for r in range(col + 1, len(rows)):
            factor = rows[r][col] / rows[col][col]
            rows[r] = [a - factor * b for a, b in zip(rows[r], rows[col])]
    return det


def _connection_index(family: str, rank: int) -> int:
    """|P / Q|, the index of the root lattice in the weight lattice."""
    return {"A": rank + 1, "B": 2, "C": 2, "D": 4, "E": 9 - rank, "F": 1, "G": 1}[family]


@pytest.mark.parametrize("family,rank", ALL_ADMISSIBLE)
def test_cartan_determinant_is_the_connection_index(family, rank):
    # a misplaced edge or bond changes the determinant
    assert _determinant(cartan_matrix(LieType(family, rank))) == _connection_index(family, rank)


@pytest.mark.parametrize("family,rank", ALL_ADMISSIBLE)
def test_simple_reflections_permute_the_positive_roots(family, rank):
    # s_j beta = beta - <beta, alpha_j^vee> alpha_j is positive unless beta = alpha_j
    rs = positive_roots(LieType(family, rank))
    roots = set(rs.positive_roots)
    for beta in roots:
        for j, column in enumerate(zip(*rs.cartan)):
            image = list(beta)
            image[j] -= sum(b * a for b, a in zip(beta, column))
            assert tuple(image) in roots or sum(beta) == 1 == beta[j]


def test_level_set_a2():
    rs = positive_roots(LieType("A", 2))
    assert set(level_set(rs, 1, 1)) == {(1, 0), (1, 1)}


def test_level_set_g2_level_three():
    rs = positive_roots(LieType("G", 2))
    assert set(level_set(rs, 1, 3)) == {(3, 1), (3, 2)}


def test_level_set_above_highest_coefficient_is_empty():
    rs = positive_roots(LieType("F", 4))
    top = highest_root(rs)
    for node in range(1, 5):
        assert level_set(rs, node, top[node - 1] + 1) == []


def test_level_set_node_out_of_range():
    rs = positive_roots(LieType("A", 2))
    with pytest.raises(NodeOutOfRange):
        level_set(rs, 0, 1)
    with pytest.raises(NodeOutOfRange):
        level_set(rs, 3, 1)


@pytest.mark.parametrize(
    "family,rank,expected",
    [("A", 2, (1, 1)), ("G", 2, (3, 2)), ("A", 1, (1,)), ("E", 8, (2, 3, 4, 6, 5, 4, 3, 2))],
)
def test_highest_root(family, rank, expected):
    assert highest_root(positive_roots(LieType(family, rank))) == expected


@pytest.mark.parametrize("family,rank", ALL_TYPES_RANK8)
def test_coefficients_bounded_by_highest_root(family, rank):
    rs = positive_roots(LieType(family, rank))
    top = highest_root(rs)
    for root in rs.positive_roots:
        assert all(0 <= c <= t for c, t in zip(root, top))


@pytest.mark.parametrize("family,rank", ALL_TYPES_RANK8)
def test_level_sets_partition(family, rank):
    rs = positive_roots(LieType(family, rank))
    top = highest_root(rs)
    for node in range(1, rank + 1):
        sizes = [len(level_set(rs, node, k)) for k in range(0, top[node - 1] + 1)]
        assert sum(sizes) == len(rs.positive_roots)


@pytest.mark.parametrize("family,rank", [("A", 4), ("B", 4), ("C", 4), ("D", 5), ("F", 4), ("G", 2), ("E", 6)])
def test_closure_independent_of_scan_order(family, rank):
    # relabelling the simple roots in reverse (permuting the Cartan matrix)
    # makes the closure scan them in reverse; mapped back, the set is the same
    cartan = cartan_matrix(LieType(family, rank))
    backward = {root[::-1] for root in closure_from_cartan(np.array(cartan)[::-1, ::-1])}
    assert backward == closure_from_cartan(cartan)


@pytest.mark.parametrize(
    "cartan",
    [
        [[2, -2], [-2, 2]],  # affine A1
        [[2, -3], [-3, 2]],  # hyperbolic
        [[2, -1, 0], [-2, 2, -2], [0, -1, 2]],  # affine C2
        [[-1]],  # not a Cartan matrix: each reflection doubles the root
    ],
)
def test_closure_of_infinite_type_raises(cartan):
    bound = len(cartan) ** 2 + 56
    with pytest.raises(ValueError, match=f"^Cartan matrix is not of finite type: its closure passed {bound} "):
        closure_from_cartan(cartan)


@pytest.mark.parametrize("left,right", [(("E", 8), ("A", 1)), (("E", 8), ("E", 8)), (("E", 7), ("G", 2))])
def test_closure_of_a_direct_sum_is_both_closures(left, right):
    # E8 + A1 has 121 positive roots at rank 9, past both 9^2 and E8's 120
    a, b = (cartan_matrix(LieType(*t)) for t in (left, right))
    block = np.zeros((len(a) + len(b),) * 2, dtype=int)
    block[: len(a), : len(a)], block[len(a) :, len(a) :] = a, b
    zeros_a, zeros_b = (0,) * len(a), (0,) * len(b)
    expected = {r + zeros_b for r in closure_from_cartan(a)} | {zeros_a + r for r in closure_from_cartan(b)}
    assert closure_from_cartan(block) == expected


def _permuted(roots, perm):
    return {tuple(r[perm[i]] for i in range(len(perm))) for r in roots}


@pytest.mark.parametrize("rank", [2, 3, 5, 8])
def test_diagram_automorphism_a_series(rank):
    rs = positive_roots(LieType("A", rank))
    roots = set(rs.positive_roots)
    perm = [rank - 1 - i for i in range(rank)]
    assert _permuted(roots, perm) == roots
    for node in range(1, rank + 1):
        mirror = rank + 1 - node
        for k in range(1, 3):
            assert len(level_set(rs, node, k)) == len(level_set(rs, mirror, k))


@pytest.mark.parametrize("rank", [4, 6])
def test_diagram_automorphism_d_fork_swap(rank):
    rs = positive_roots(LieType("D", rank))
    roots = set(rs.positive_roots)
    perm = list(range(rank))
    perm[rank - 2], perm[rank - 1] = perm[rank - 1], perm[rank - 2]
    assert _permuted(roots, perm) == roots


def test_diagram_automorphism_e6():
    rs = positive_roots(LieType("E", 6))
    roots = set(rs.positive_roots)
    # 1 <-> 6, 3 <-> 5 (0-based: 0 <-> 5, 2 <-> 4)
    perm = [5, 1, 4, 3, 2, 0]
    assert _permuted(roots, perm) == roots
    for k in (1, 2, 3):
        assert len(level_set(rs, 1, k)) == len(level_set(rs, 6, k))
        assert len(level_set(rs, 3, k)) == len(level_set(rs, 5, k))


def test_rank_ceiling_enforced_and_overridable():
    assert len(positive_roots(LieType("A", 12)).positive_roots) == 78
    with pytest.raises(InadmissibleRank, match="exceeds the enumeration ceiling 12$"):
        positive_roots(LieType("A", 13))
