"""Positive root systems of the simple complex Lie algebras.

Roots are integer coefficient vectors over the simple roots
``alpha_1 .. alpha_rank``.  Node numbering follows the Bourbaki convention:

::

    A_n   1 - 2 - ... - n
    B_n   1 - 2 - ... - (n-1) => n                (node n short)
    C_n   1 - 2 - ... - (n-1) <= n                (node n long)
    D_n   1 - 2 - ... - (n-2) - (n-1)
                           \\
                            n                     (fork at node n-2)
    E_n             2
                    |
          1 - 3 - 4 - 5 - ... - n                 (n = 6, 7, 8)
    F_4   1 - 2 => 3 - 4                          (nodes 3, 4 short)
    G_2   1 <= 2  (triple edge)                   (node 1 short)

Double/triple arrows point toward the shorter root.  Cartan matrices use the
pairing ``A[i][j] = <alpha_i, alpha_j^vee> = 2 (alpha_i, alpha_j) /
(alpha_j, alpha_j)``.

Enumeration is from the Cartan matrix, by closure under the simple
reflections, rather than from hard-coded tables, so the classical
closed-form counts act as an independent oracle on the algorithm (and vice
versa).
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple, Sequence

from ._config import FAMILIES, _checked, _is_int
from .errors import InadmissibleRank

__all__ = [
    "FAMILIES",
    "LieType",
    "Root",
    "RootSystem",
    "cartan_matrix",
    "closure_from_cartan",
    "highest_root",
    "positive_roots",
]

# Classical families are enumerated up to this rank only, which bounds the
# output (A12 has 78 positive roots); criterion results are rank-uniform for
# A, B, C, D, so higher ranks add no verdicts.
_MAX_RANK = 12

Root = tuple[int, ...]


@_checked
class LieType(NamedTuple):
    """A simple Lie type: family letter plus rank."""

    family: str
    rank: int

    def _check(self):
        family, rank = self
        if family not in FAMILIES:
            raise InadmissibleRank(f"unknown family {family!r}; expected one of {FAMILIES}")
        if not _is_int(rank) or rank < 1:
            raise InadmissibleRank(f"rank must be a positive integer, got {rank!r}")
        ok = {
            "A": rank >= 1,
            "B": rank >= 2,
            "C": rank >= 2,
            "D": rank >= 3,
            "E": rank in (6, 7, 8),
            "F": rank == 4,
            "G": rank == 2,
        }[family]
        if not ok:
            raise InadmissibleRank(f"{family}{rank} is not an admissible type")
        return self

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


class RootSystem(NamedTuple):
    """Enumerated positive roots of a simple type.

    ``positive_roots`` is sorted graded-lexicographically (height, then
    coefficients) and immutable, and so is the Cartan matrix, a tuple of
    int tuples.
    """

    lie_type: LieType
    cartan: tuple[tuple[int, ...], ...]
    positive_roots: tuple[Root, ...]

    @property
    def rank(self) -> int:
        return self.lie_type.rank


def cartan_matrix(lie_type: LieType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix of a simple type in Bourbaki node numbering.

    Returns a tuple of int tuples with ``A[i][j] = <alpha_i, alpha_j^vee>``
    (0-based storage for the 1-based node labels above).  Every diagram is
    the path 1 - 2 - ... - n but D, whose last edge is n-2 - n, and E, whose
    edges are 1 - 3, 2 - 4 and the path 3 - 4 - ... - n.  A simple edge sets
    both of its entries to -1, and the one multiple bond then sets one entry.
    """
    n, fam = lie_type.rank, lie_type.family
    edges = [(i, i + 1) for i in range(n - 1)]
    if fam == "D":
        edges[-1] = (n - 3, n - 1)
    elif fam == "E":
        edges[:2] = [(0, 2), (1, 3)]
    A = [[2 * (i == j) for j in range(n)] for i in range(n)]
    for i, j in edges:
        A[i][j] = A[j][i] = -1
    bond = {"B": (n - 2, n - 1, -2), "C": (n - 1, n - 2, -2), "F": (1, 2, -2), "G": (1, 0, -3)}
    if fam in bond:  # nodes n (B), 3 and 4 (F) and 1 (G) short; node n (C) long
        i, j, entry = bond[fam]
        A[i][j] = entry
    return tuple(map(tuple, A))


def closure_from_cartan(cartan: Sequence[Sequence[int]]) -> set[Root]:
    """Enumerate positive roots by closure under the simple reflections.

    Starting from the simple roots, each known root ``beta`` and node j give
    ``c = <beta, alpha_j^vee>``; when c < 0, ``s_j beta = beta - c alpha_j``
    (coefficient j raised by -c) is a root too.  This finds every positive
    root: s_j permutes the positive roots other than alpha_j, and a positive
    root beta above height 1 has some j with ``<beta, alpha_j^vee> > 0``,
    because (beta, beta) > 0.  Then s_j beta is a lower positive root whose
    pairing with alpha_j^vee is negative, and s_j maps it back to beta, so
    induction on height finishes the argument.

    Relabelling the simple roots (permuting the Cartan matrix) relabels the
    result and changes nothing else (tested property).  A numpy array will
    do.  Only a matrix of finite type has finitely many roots, and none of
    rank n has more than n^2 + 56 positive roots: a simple factor of rank r
    has at most r^2 but for E8 (r^2 + 56), E7 (+ 14), F4 (+ 8) and G2 (+ 2),
    and two such factors of ranks r >= s add 2 r s >= 2 s^2 to n^2, more
    than the smaller one's excess.  So an integer matrix whose closure
    passes that count (affine A1 [[2, -2], [-2, 2]], say) raises ValueError.
    """
    rank = len(cartan)
    most = rank * rank + 56
    # column j of the matrix: the pairings <alpha_i, alpha_j^vee> over i
    columns = [[int(cartan[i][j]) for i in range(rank)] for j in range(rank)]
    frontier = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
    known: set[Root] = set(frontier)
    for beta in frontier:  # grows while it is walked
        for j, column in enumerate(columns):
            c = sum(b * a for b, a in zip(beta, column))
            if c < 0:
                image = beta[:j] + (beta[j] - c,) + beta[j + 1 :]
                if image not in known:
                    known.add(image)
                    frontier.append(image)
                    if len(known) > most:
                        raise ValueError(
                            f"Cartan matrix is not of finite type: its closure passed {most} positive roots, "
                            f"more than any finite type of rank {rank} has"
                        )
    return known


def _expected_positive_root_count(lie_type: LieType) -> int:
    """Closed-form |Delta^+| for each simple type."""
    n = lie_type.rank
    closed = {
        "A": n * (n + 1) // 2,
        "B": n * n,
        "C": n * n,
        "D": n * (n - 1),
        "G": 6,
        "F": 24,
    }
    if lie_type.family == "E":
        return {6: 36, 7: 63, 8: 120}[n]
    return closed[lie_type.family]


@lru_cache(maxsize=None)
def _build_root_system(family: str, rank: int) -> RootSystem:
    lie_type = LieType(family, rank)
    cartan = cartan_matrix(lie_type)
    roots = closure_from_cartan(cartan)
    expected = _expected_positive_root_count(lie_type)
    if len(roots) != expected:
        raise RuntimeError(
            f"closure produced {len(roots)} positive roots for {lie_type}, "
            f"expected {expected}"
        )
    ordered = tuple(sorted(roots, key=lambda r: (sum(r), r)))
    return RootSystem(lie_type=lie_type, cartan=cartan, positive_roots=ordered)


def positive_roots(lie_type: LieType) -> RootSystem:
    """Enumerate the positive root system of a simple type.

    Classical families (A, B, C, D) above rank 12 raise InadmissibleRank.
    """
    if lie_type.family in ("A", "B", "C", "D") and lie_type.rank > _MAX_RANK:
        raise InadmissibleRank(
            f"rank {lie_type.rank} exceeds the enumeration ceiling {_MAX_RANK}"
        )
    return _build_root_system(lie_type.family, lie_type.rank)


def highest_root(rs: RootSystem) -> Root:
    """The unique componentwise-maximal positive root."""
    top = max(rs.positive_roots, key=lambda r: (sum(r), r))
    for r in rs.positive_roots:
        if any(c > t for c, t in zip(r, top)):
            raise ValueError(f"no componentwise-maximal root in {rs.lie_type}")
    return top
