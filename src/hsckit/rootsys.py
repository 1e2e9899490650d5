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

Enumeration is by root-string closure from the Cartan matrix rather than
hard-coded tables, so the classical closed-form counts act as an independent
oracle on the algorithm (and vice versa).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

from ._config import FAMILIES
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


@dataclass(frozen=True)
class LieType:
    """A simple Lie type: family letter plus rank."""

    family: str
    rank: int

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InadmissibleRank(
                f"unknown family {self.family!r}; expected one of {FAMILIES}"
            )
        if not isinstance(self.rank, int) or self.rank < 1:
            raise InadmissibleRank(f"rank must be a positive integer, got {self.rank!r}")
        ok = {
            "A": self.rank >= 1,
            "B": self.rank >= 2,
            "C": self.rank >= 2,
            "D": self.rank >= 3,
            "E": self.rank in (6, 7, 8),
            "F": self.rank == 4,
            "G": self.rank == 2,
        }[self.family]
        if not ok:
            raise InadmissibleRank(f"{self.family}{self.rank} is not an admissible type")

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True, eq=False)
class RootSystem:
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


def _chain(A: list[list[int]], i: int, j: int) -> None:
    A[i][j] = -1
    A[j][i] = -1


def cartan_matrix(lie_type: LieType) -> tuple[tuple[int, ...], ...]:
    """Cartan matrix of a simple type in Bourbaki node numbering.

    Returns a tuple of int tuples with ``A[i][j] = <alpha_i, alpha_j^vee>``
    (0-based storage for the 1-based node labels above).
    """
    n = lie_type.rank
    A = [[2 * (i == j) for j in range(n)] for i in range(n)]
    fam = lie_type.family
    if fam in ("A", "B", "C"):
        for i in range(n - 1):
            _chain(A, i, i + 1)
        if fam == "B" and n >= 2:
            A[n - 2][n - 1] = -2  # node n short
        elif fam == "C" and n >= 2:
            A[n - 1][n - 2] = -2  # node n long
    elif fam == "D":
        for i in range(n - 2):
            _chain(A, i, i + 1)
        _chain(A, n - 3, n - 1)
    elif fam == "E":
        _chain(A, 0, 2)
        _chain(A, 1, 3)
        for i in range(2, n - 1):
            _chain(A, i, i + 1)
    elif fam == "F":
        _chain(A, 0, 1)
        _chain(A, 1, 2)
        _chain(A, 2, 3)
        A[1][2] = -2  # nodes 3, 4 short
    elif fam == "G":
        A[0][1] = -1
        A[1][0] = -3  # node 1 short
    return tuple(map(tuple, A))


def closure_from_cartan(cartan: Sequence[Sequence[int]]) -> set[Root]:
    """Enumerate positive roots by root-string closure.

    Starting from the simple roots, a root ``beta`` of height h extends to
    ``beta + alpha_j`` exactly when the alpha_j-string through beta has
    ``q = p - <beta, alpha_j^vee> > 0``, where p counts how far the string
    descends inside the already-known set.  Processing strictly by height
    keeps every p-walk inside known roots.

    The simple roots are scanned in their given order; relabelling them
    (permuting the Cartan matrix) relabels the result and changes nothing
    else (tested property).  Any integer matrix will do, a numpy array
    included.
    """
    rank = len(cartan)
    # column j of the matrix: the pairings <alpha_i, alpha_j^vee> over i
    columns = [[int(cartan[i][j]) for i in range(rank)] for j in range(rank)]

    simple = [tuple(int(i == j) for i in range(rank)) for j in range(rank)]
    known: set[Root] = set(simple)
    frontier: list[Root] = list(simple)
    while frontier:
        grown: list[Root] = []
        for beta in frontier:
            for j in range(rank):
                pairing = sum(b * a for b, a in zip(beta, columns[j]))
                p = 0
                lower = list(beta)
                lower[j] -= 1
                while lower[j] >= 0 and tuple(lower) in known:
                    p += 1
                    lower[j] -= 1
                if p - pairing > 0:
                    upper = list(beta)
                    upper[j] += 1
                    cand = tuple(upper)
                    if cand not in known:
                        known.add(cand)
                        grown.append(cand)
        frontier = grown
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
