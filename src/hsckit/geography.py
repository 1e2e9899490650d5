"""Chern-number geography of surfaces of general type.

A Kähler-Einstein surface metric with negative Ricci curvature and negative
holomorphic sectional curvature forces the Chern bound ``c2 <= 3 c1^2``, so
surface families violating that bound cannot carry such a metric.  This
module keeps a catalog of published families with their stated Chern
numbers, decides the bound, runs the Noether completion ``c2 = 12 (1 - q +
pg) - K^2`` (with ``c1^2 = K^2``), and models point blow-ups ``(c1^2, c2) ->
(c1^2 - 1, c2 + 1)``.

The 3 of the Chern bound is ``_C2_BOUND``.  At each point, in the
distinguished frame (H, A, B), negative HSC gives ``gamma2 < 3 gamma1^2``
for the Chern-Weil functions of ``surface.chern_weil``, and 3 is the
supremum, approached toward (H, A, B) = (-2, 1, 0), where the maximum HSC
is 0.  On a ball quotient
``gamma1^2 = 3 gamma2`` at every point and ``c1^2 = 3 c2``, which fixes the
normalization, so integrating the pointwise inequality gives the bound.
``tests/test_symbolic.py`` proves the pointwise claim and its sharpness.

Stated values are stored verbatim with provenance; when a record's classical
invariants contradict its stated Chern numbers the record carries an
inconsistency flag, never a correction.  The catalog is an audit instrument.
"""

from __future__ import annotations

import json
from itertools import repeat
from typing import NamedTuple

from ._config import _C2_BOUND, _checked, _is_int
from .errors import MissingChernNumbers

__all__ = [
    "GeographyVerdict",
    "SurfaceRecord",
    "blowup_transform",
    "builtin_surface_table",
    "check_inequality",
    "horikawa_scan",
    "noether_fill",
    "plot_columns",
    "records_from_json",
    "todorov_family",
]

_NOETHER_FLAG = "noether-mismatch"
_INT_OR_NONE = frozenset({int, type(None)})  # exact types of an integer-or-null field that need no _is_int
_MAX_SCAN_VALUES = 10_000  # largest pg range horikawa_scan sweeps: 20,000 records


def noether_fill(pg: int, q: int, K2: int) -> tuple[int, int]:
    """Chern numbers from classical invariants: c1^2 = K^2, c2 = 12 chi - K^2.

    Assumes a minimal surface of general type (K2 >= 1, pg >= 0, q >= 0).
    """
    chi = 1 - q + pg
    return K2, 12 * chi - K2


def _wrong_field(key: str, value, kind: str) -> ValueError:
    return ValueError(f"surface record field {key!r} must be {kind}, got {value!r}")


@_checked
class SurfaceRecord(NamedTuple):
    """One surface family with stated Chern numbers and optional invariants.

    The Chern numbers c1sq and c2 and the invariants pg, q and K2 are each an
    ``int`` (not a ``bool``) or None; name and source are strings; flags is a
    list or tuple of strings, stored as a tuple.  The constructor checks
    them in that order, for ``_replace`` and ``from_payload`` too, and its
    ValueError names the first field that breaks one.  If pg, q and K2 are
    all present and the Noether completion disagrees with the stated (c1sq,
    c2), a ``noether-mismatch`` flag is appended automatically; the stated
    numbers are kept as given.
    """

    name: str
    c1sq: int | None
    c2: int | None
    pg: int | None = None
    q: int | None = None
    K2: int | None = None
    source: str = ""
    flags: tuple[str, ...] = ()

    def _check(self):
        """The field values to store, or ValueError naming the first field
        of the wrong type.

        Each shortcut lets through only what the per-field rule would: the
        five numbers pass together when each is exactly an ``int`` or None,
        which ``_is_int`` takes, and any other type (a bool, an int subclass,
        a float, a numpy integer) sends them through that rule one field at
        a time, in field order.  Name and source are likewise tested
        together, and one at a time only to name the one that fails; empty
        flags have no member to test."""
        name, c1sq, c2, pg, q, K2, source, flags = self
        if not {type(c1sq), type(c2), type(pg), type(q), type(K2)} <= _INT_OR_NONE:
            for key, value in zip(self._fields[1:6], self[1:6]):
                if value is not None and not _is_int(value):
                    raise _wrong_field(key, value, "an integer or null")
        if not (isinstance(name, str) and isinstance(source, str)):
            for key, value in (("name", name), ("source", source)):
                if not isinstance(value, str):
                    raise _wrong_field(key, value, "a string")
        if not isinstance(flags, (list, tuple)) or flags and not all(map(isinstance, flags, repeat(str))):
            raise _wrong_field("flags", flags, "a list of strings")
        flags = tuple(flags)
        if pg is not None and q is not None and K2 is not None:
            filled = noether_fill(pg, q, K2)
            if (c1sq, c2) != filled and not any(f.startswith(_NOETHER_FLAG) for f in flags):
                flags += (
                    f"{_NOETHER_FLAG}: stated (c1sq={c1sq}, c2={c2}) vs "
                    f"completion from (pg={pg}, q={q}, K2={K2}) -> "
                    f"(c1sq={filled[0]}, c2={filled[1]})",
                )
        return self if flags is self.flags else (*self[:-1], flags)

    def to_payload(self) -> dict:
        name, c1sq, c2, pg, q, K2, source, flags = self
        payload: dict = {"name": name, "c1sq": c1sq, "c2": c2}
        if pg is not None:
            payload["pg"] = pg
        if q is not None:
            payload["q"] = q
        if K2 is not None:
            payload["K2"] = K2
        payload["source"] = source
        payload["flags"] = list(flags)
        return payload

    @classmethod
    def from_payload(cls, payload: dict) -> "SurfaceRecord":
        """The record a JSON object describes; absent fields take their
        defaults, a key that is not a field raises ValueError naming it, and
        the constructor's ValueError names the first field of the wrong
        type."""
        if not isinstance(payload, dict):
            raise ValueError(f"surface record must be an object, got {payload!r}")
        unknown = [key for key in payload if key not in cls._fields]
        if unknown:
            raise ValueError(f"surface record has unknown key {unknown[0]!r}; its fields are {', '.join(cls._fields)}")
        return cls(*(payload.get(key, cls._field_defaults.get(key)) for key in cls._fields))


class GeographyVerdict(NamedTuple):
    """Chern bound decision for one record: passes iff margin =
    ``_C2_BOUND`` c1^2 - c2 >= 0.

    ``passes=False`` means the family cannot carry a Kähler-Einstein metric
    of negative holomorphic sectional curvature.
    """

    record: SurfaceRecord
    passes: bool
    margin: int

    def to_payload(self) -> dict:
        record, passes, margin = self
        payload = record.to_payload()
        payload["passes"] = passes
        payload["margin"] = margin
        return payload


def check_inequality(record: SurfaceRecord) -> GeographyVerdict:
    """Decide the Chern bound for a record with stated Chern numbers."""
    if record.c1sq is None or record.c2 is None:
        raise MissingChernNumbers(f"record {record.name!r} lacks c1sq/c2")
    margin = _C2_BOUND * record.c1sq - record.c2
    return GeographyVerdict(record, margin >= 0, margin)


def blowup_transform(c1sq: int, c2: int, k: int) -> tuple[int, int]:
    """Chern numbers after k >= 0 point blow-ups: c1^2 drops by one per point
    and the Euler number c2 grows by one per point."""
    if k < 0:
        raise ValueError("k must be >= 0")
    return c1sq - k, c2 + k


def builtin_surface_table() -> tuple[SurfaceRecord, ...]:
    """The catalog of published families with their stated Chern numbers.

    Values are stored as published, including the Keum-Naie entry whose
    stated pair contradicts its own invariants (kept, flagged, and annotated
    with the verdict each candidate pair would get).  Parametric families
    (Burniat, Horikawa, Todorov) are represented by one stated instance and
    carry a range note; ``todorov_family`` and ``horikawa_scan`` expand them.
    """
    catalog = "published family table"
    return (
        SurfaceRecord("Barlow", 1, 11, pg=0, q=0, K2=1, source=catalog),
        SurfaceRecord(
            "Burniat", 2, 10, pg=0, q=0, K2=2, source=catalog,
            flags=("family-range: K2 ranges over 2..6; stated pair matches K2=2",),
        ),
        SurfaceRecord("Campadelli", 2, 10, pg=0, q=0, K2=2, source=catalog),
        SurfaceRecord("Catanese", 2, 10, pg=0, q=0, K2=2, source=catalog),
        SurfaceRecord("Godeaux", 1, 11, pg=0, q=0, K2=1, source=catalog),
        SurfaceRecord(
            "Horikawa", 4, 56, pg=4, q=0, K2=4, source=catalog,
            flags=(
                "family-range: representative pg=4 on the K2=2(pg-2) line; "
                "see the Horikawa scan for the full sweep",
            ),
        ),
        SurfaceRecord(
            "Keum-Naie", 1, 11, pg=0, q=0, K2=4, source=catalog,
            flags=(
                "alternative-verdict: stated pair (1, 11) fails the bound "
                "(margin -8); the Noether completion (4, 8) would pass "
                "(margin 4); stored as stated, not adjudicated",
            ),
        ),
        SurfaceRecord("Oliverio", 8, 52, pg=4, q=0, K2=8, source=catalog),
        SurfaceRecord(
            "Todorov", 2, 22, pg=1, q=0, K2=2, source=catalog,
            flags=(
                "family-range: K2 ranges over 2..8; stated instance K2=2; "
                "see todorov_family for the parametric records",
            ),
        ),
    )


def todorov_family() -> list[SurfaceRecord]:
    """Noether-completed records for the Todorov range pg=1, q=0, K2 in [2, 8]."""
    return [_completed(f"Todorov (K2={k2})", 1, 0, k2) for k2 in range(2, 9)]


def _completed(name: str, pg: int, q: int, K2: int) -> SurfaceRecord:
    """The record whose Chern numbers ``noether_fill`` completes from (pg, q, K2)."""
    c1sq, c2 = noether_fill(pg, q, K2)
    return SurfaceRecord(name, c1sq, c2, pg, q, K2, "noether completion")


def horikawa_scan(pg_min: int, pg_max: int) -> list[GeographyVerdict]:
    """Verdicts for both Horikawa lines K2 = 2(pg-2) and K2 = 2 pg - 3.

    Requires pg_min >= 3 so both lines stay in the general-type range, and
    pg_max >= pg_min with at most 10,000 values of pg.
    """
    if pg_min < 3:
        raise ValueError(f"pg_min must be >= 3, got {pg_min}")
    if pg_max < pg_min:
        raise ValueError(f"empty pg range {pg_min}..{pg_max}")
    if pg_max - pg_min >= _MAX_SCAN_VALUES:
        raise ValueError(f"pg range {pg_min}..{pg_max} exceeds the limit of {_MAX_SCAN_VALUES} values")
    return [
        check_inequality(_completed(f"Horikawa (pg={pg}, K2={label})", pg, 0, 2 * pg - drop))
        for pg in range(pg_min, pg_max + 1)
        for label, drop in (("2(pg-2)", 4), ("2pg-3", 3))
    ]


def plot_columns(records: list[SurfaceRecord] | tuple[SurfaceRecord, ...]) -> list[dict]:
    """Rows of (name, c1sq, c2) plus the boundary value ``_C2_BOUND`` c1^2
    per point, ready for external plotting of the Chern bound's line."""
    rows = []
    for record in records:
        if record.c1sq is None or record.c2 is None:
            continue
        rows.append(
            {
                "name": record.name,
                "c1sq": record.c1sq,
                "c2": record.c2,
                "line_c2": _C2_BOUND * record.c1sq,
            }
        )
    return rows


def records_from_json(text: str) -> list[SurfaceRecord]:
    """Surface records from a JSON array of ``SurfaceRecord`` payloads."""
    return _records(json.loads(text))


def _records(data) -> list[SurfaceRecord]:
    """Surface records from a decoded JSON array of ``SurfaceRecord`` payloads."""
    if not isinstance(data, list):
        raise ValueError("surface JSON must be an array of records")
    return [SurfaceRecord.from_payload(item) for item in data]
