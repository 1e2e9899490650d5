"""Itoh positivity for Kähler C-spaces with second Betti number one.

A C-space ``(g, alpha_r)`` is a simple Lie type with one marked Dynkin node.
The invariant Kähler-Einstein metric has positive holomorphic sectional
curvature whenever every positive root carries coefficient at most 2 at the
marked node, i.e. the level sets ``Delta_r^+(k)`` are empty for ``k >= 3``
(Itoh's criterion).  This module computes the full level census per node and
audits the verdicts against the published classification, reporting any
mismatch with explicit witness roots instead of reconciling it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NodeOutOfRange
from .rootsys import LieType, Root, RootSystem, positive_roots

__all__ = [
    "AuditEntry",
    "CSpaceDescriptor",
    "CSpaceVerdict",
    "PUBLISHED_CLASSICAL_FAMILIES",
    "PUBLISHED_EXCEPTIONAL_POSITIVE",
    "audit_against_published",
    "classify_all",
    "itoh_positive",
    "published_positive",
]

# Published classification of the HSC-positive cases.  The classical families
# are positive for every rank and marked node; the exceptional cases are
# listed per node.  Stored as literal data, never regenerated, so the audit
# below is a genuine cross-check of the enumeration against the publication.
PUBLISHED_CLASSICAL_FAMILIES = ("A", "B", "C", "D")
PUBLISHED_EXCEPTIONAL_POSITIVE: dict[tuple[str, int], tuple[int, ...]] = {
    ("E", 6): (1, 2, 3, 4, 5, 6),
    ("E", 7): (1, 2, 6, 7),
    ("E", 8): (1, 8),
    ("F", 4): (1, 4),
    ("G", 2): (2,),
}


@dataclass(frozen=True)
class CSpaceDescriptor:
    """A simple Lie type with one marked simple root (1-based node)."""

    lie_type: LieType
    node: int

    def __post_init__(self):
        if not 1 <= self.node <= self.lie_type.rank:
            raise NodeOutOfRange(
                f"node {self.node} out of range 1..{self.lie_type.rank} for {self.lie_type}"
            )

    def __str__(self) -> str:
        return f"({self.lie_type}, alpha_{self.node})"


@dataclass(frozen=True, eq=False)
class CSpaceVerdict:
    """Level census at the marked node and the resulting positivity verdict.

    ``level_census`` maps k >= 1 to |Delta_r^+(k)|.  ``evidence`` lists the
    positive roots with coefficient >= 3 at the node; it is empty exactly
    when the verdict is positive.
    """

    descriptor: CSpaceDescriptor
    level_census: dict[int, int]
    max_level: int
    itoh_positive: bool
    evidence: tuple[Root, ...] = field(default=())

    def to_payload(self) -> dict:
        """JSON-ready dict: {family, rank, node, census, max_level, positive, evidence}."""
        return {
            "family": self.descriptor.lie_type.family,
            "rank": self.descriptor.lie_type.rank,
            "node": self.descriptor.node,
            "census": {str(k): v for k, v in sorted(self.level_census.items())},
            "max_level": self.max_level,
            "positive": self.itoh_positive,
            "evidence": [list(r) for r in self.evidence],
        }


def _verdict_from_system(rs: RootSystem, descriptor: CSpaceDescriptor) -> CSpaceVerdict:
    idx = descriptor.node - 1
    census: dict[int, int] = {}
    evidence: list[Root] = []
    for root in rs.positive_roots:
        k = root[idx]
        if k >= 1:
            census[k] = census.get(k, 0) + 1
        if k >= 3:
            evidence.append(root)
    max_level = max(census)
    return CSpaceVerdict(
        descriptor=descriptor,
        level_census=dict(sorted(census.items())),
        max_level=max_level,
        itoh_positive=max_level <= 2,
        evidence=tuple(evidence),
    )


def itoh_positive(descriptor: CSpaceDescriptor) -> CSpaceVerdict:
    """Decide Itoh's positivity criterion for one marked node.

    The verdict carries the full level census and, on failure, the witness
    roots with coefficient >= 3 at the node.
    """
    return _verdict_from_system(positive_roots(descriptor.lie_type), descriptor)


def classify_all(lie_type: LieType) -> list[CSpaceVerdict]:
    """One verdict per marked node, in node order."""
    rs = positive_roots(lie_type)
    return [
        _verdict_from_system(rs, CSpaceDescriptor(lie_type, node))
        for node in range(1, lie_type.rank + 1)
    ]


@dataclass(frozen=True, eq=False)
class AuditEntry:
    """One descriptor compared against the published classification."""

    verdict: CSpaceVerdict

    @property
    def published_positive(self) -> bool:
        return published_positive(self.verdict.descriptor)

    @property
    def category(self) -> str:
        if self.verdict.itoh_positive == self.published_positive:
            return "agree-positive" if self.published_positive else "agree-negative"
        return "disagree"

    def to_payload(self) -> dict:
        payload = self.verdict.to_payload()
        payload["published_positive"] = self.published_positive
        payload["category"] = self.category
        return payload


def published_positive(descriptor: CSpaceDescriptor) -> bool:
    """Whether the published classification lists this case as positive."""
    fam = descriptor.lie_type.family
    if fam in PUBLISHED_CLASSICAL_FAMILIES:
        return True
    nodes = PUBLISHED_EXCEPTIONAL_POSITIVE[(fam, descriptor.lie_type.rank)]
    return descriptor.node in nodes


def audit_against_published() -> tuple[AuditEntry, ...]:
    """Compare computed verdicts with the published classification.

    Returns one entry per node, in type then node order, covering every node
    of the classical families at ranks 2 to 8 (D from its smallest rank, 3)
    and of all exceptional types.  Each entry lands in exactly one of three
    categories: agree-positive, agree-negative, disagree (the latter
    carrying witness roots via its verdict).  Mismatches are reported, never
    patched.
    """
    types: list[LieType] = []
    for fam in PUBLISHED_CLASSICAL_FAMILIES:
        for rank in range(3 if fam == "D" else 2, 9):
            types.append(LieType(fam, rank))
    for fam, rank in sorted(PUBLISHED_EXCEPTIONAL_POSITIVE):
        types.append(LieType(fam, rank))
    return tuple(AuditEntry(verdict) for lie_type in types for verdict in classify_all(lie_type))
