"""The tensor JSON wire format, read without numpy.

    {"n": int, "entries": [{"i": ..., "j": ..., "k": ..., "l": ..., "re": ..., "im": ...}]}

Indices are 0-based.  An entry may name any member of its orbit; the other
images are generated on load and unlisted orbits default to zero.  A file
has only the keys n and entries, and an entry only i, j, k, l, re and im.

The Kähler symmetry group of ``curvature`` is stated here, as the axis
permutations ``_LINEAR`` and ``_HERMITIAN``, and ``_orbit`` gives an index's
orbit representative in closed form.  ``_orbit_values`` reads a payload into
its stated orbits: ``curvature._stated_array`` fills the array from them for
``tensor_from_dict`` and ``tensor extremize``, and ``tensor validate``
reports from them through ``_validation_payload``, so that command loads no
numpy.
"""

from __future__ import annotations

import math

from ._config import _is_int
from .errors import TensorFormatError

_MAX_WIRE_N = 32  # largest n a tensor file may state: one n^4 complex array is 16 MB

# The Kähler symmetry group as axis permutations of R[i,j,k,l]: the four linear
# ones, and each of them composed with _HERMITIAN, which conjugates the value.
_LINEAR = ((0, 1, 2, 3), (2, 1, 0, 3), (0, 3, 2, 1), (2, 3, 0, 1))
_HERMITIAN = (1, 0, 3, 2)

_KEYS = frozenset(("n", "entries"))  # the keys a file may have, and an entry
_ENTRY_KEYS = frozenset(("i", "j", "k", "l", "re", "im"))


def _wire_field(fields: dict, key: str, number: bool = False):
    """fields[key] if it is an integer (or, if number, a float), else TensorFormatError."""
    value = fields[key]
    if not (_is_int(value) or number and isinstance(value, float)):
        kind = "a number" if number else "an integer"
        raise TensorFormatError(f"tensor field {key!r} must be {kind}, got {value!r}")
    return value


def _closed(fields: dict, keys: frozenset, what: str) -> None:
    """TensorFormatError naming the first key of fields that is not in keys,
    when fields is a dict; what says what fields is."""
    if isinstance(fields, dict) and not fields.keys() <= keys:
        unknown = next(key for key in fields if key not in keys)
        raise TensorFormatError(f"unknown key {unknown!r} in {what}")


def _orbit(i: int, j: int, k: int, l: int) -> tuple[tuple[int, int, int, int], bool, bool]:
    """The orbit representative of index (i, j, k, l), the smallest of its 8
    images; whether the index is a linear image of it (else it conjugates);
    and whether the orbit is self-conjugate.  The smallest linear image is
    (min(i,k), min(j,l), max(i,k), max(j,l)), and the smallest conjugating
    image is the same with each pair's two slots swapped."""
    linear = (min(i, k), min(j, l), max(i, k), max(j, l))
    hermitian = (linear[1], linear[0], linear[3], linear[2])
    return min(linear, hermitian), linear <= hermitian, linear == hermitian


def _orbit_values(data: dict) -> tuple[int, dict]:
    """n and the orbits a wire-format payload states, as a dict from each
    representative (i, j, k, l) to its value there and whether the orbit is
    self-conjugate, in file order.  A value naming a conjugating image is
    conjugated.  ``curvature.tensor_from_dict`` gives the rules; anything
    else raises TensorFormatError."""
    _closed(data, _KEYS, "tensor payload")
    try:
        n = _wire_field(data, "n")
        raw_entries = data["entries"]
    except (KeyError, TypeError) as exc:
        raise TensorFormatError(f"malformed tensor payload: {exc}") from exc
    if n < 1:
        raise TensorFormatError(f"dimension must be positive, got {n}")
    if n > _MAX_WIRE_N:
        raise TensorFormatError(f"dimension n={n} exceeds the limit of {_MAX_WIRE_N}")
    if not isinstance(raw_entries, list):
        raise TensorFormatError(f"tensor field 'entries' must be a list, got {raw_entries!r}")
    orbits: dict = {}
    for entry in raw_entries:
        _closed(entry, _ENTRY_KEYS, "tensor entry")
        try:
            idx = i, j, k, l = [_wire_field(entry, key) for key in "ijkl"]
            re = _wire_field(entry, "re", number=True)
            val = complex(re, _wire_field(entry, "im", number=True) if "im" in entry else 0.0)
        except (KeyError, TypeError, OverflowError) as exc:  # an int beyond float range
            raise TensorFormatError(f"malformed tensor entry {entry!r}") from exc
        if not (math.isfinite(val.real) and math.isfinite(val.imag)):
            raise TensorFormatError(f"non-finite value in tensor entry {entry!r}")
        if not (0 <= min(idx) and max(idx) < n):
            raise TensorFormatError(f"index {tuple(idx)} out of range for n={n}")
        rep, linear, self_conjugate = _orbit(i, j, k, l)
        if rep in orbits:
            raise TensorFormatError(f"duplicate symmetry orbit at {tuple(idx)}")
        orbits[rep] = (val if linear else val.conjugate(), self_conjugate)
    return n, orbits


def _check_tolerance(tol: float) -> None:
    if not 0.0 <= tol < float("inf"):  # also rejects nan
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")


def _violation_payloads(violations: list | tuple) -> list[dict]:
    """JSON-ready (relation, indices, magnitude) triples, such as
    ``curvature.SymmetryViolation``s.  A magnitude beyond the float range
    has no JSON form and raises ValueError naming its relation and orbit."""
    for relation, indices, magnitude in violations:
        if magnitude == float("inf"):
            raise ValueError(f"{relation} violation at orbit {indices} exceeds the float range")
    return [{"relation": relation, "indices": list(indices), "magnitude": m} for relation, indices, m in violations]


def _averaged(x: float) -> float:
    """x after ``curvature._symmetrize``'s arithmetic on an orbit stated as
    x: four quarters summed, then two halves.  Only a subnormal loses bits."""
    q = 0.25 * x
    c = ((q + q) + q) + q
    return 0.5 * c + 0.5 * c


def _validation_payload(n: int, orbits: dict, tol: float) -> dict:
    """The ``tensor validate`` payload of ``_orbit_values``' n and orbits:
    the asymmetry ``KahlerCurvatureTensor`` records and the report
    ``curvature.validate`` gives on the stated array, to the bit.

    The stated array holds both pair swaps exactly, and breaks the Hermitian
    relation only on a self-conjugate orbit, by |v - conj(v)| = 2 |Im v|.
    Canonicalization moves each value to ``_averaged`` of its parts, with Im
    dropped on a self-conjugate orbit.  numpy's complex abs and Python's
    round differently in general, but they agree when one part is 0 or a
    subnormal of at most 2 steps, which is so here: ``_averaged`` moves a
    part by at most that.  tol is checked after the asymmetry, as
    ``validate`` checks it after the tensor is built."""
    asymmetry = 0.0
    for v, self_conj in orbits.values():
        canonical = complex(_averaged(v.real), 0.0 if self_conj else _averaged(v.imag))
        asymmetry = max(asymmetry, abs(v - canonical))
    _check_tolerance(tol)
    breaches = ((rep, abs(v.imag + v.imag)) for rep, (v, self_conj) in sorted(orbits.items()) if self_conj)
    violations = [("hermitian", rep, magnitude) for rep, magnitude in breaches if magnitude > tol]
    payload = {"ok": not violations, "tolerance": tol, "violations": _violation_payloads(violations)}
    return {"n": n, "asymmetry": asymmetry, **payload}
