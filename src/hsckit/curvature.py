"""Pointwise Kähler curvature tensors and holomorphic sectional curvature.

Everything here works at a single point in a unitary frame, so the metric is
the identity and the curvature is a complex 4-index array ``R[i,j,k,l]``
standing for ``R_{i jbar k lbar}`` (0-based).  The Kähler symmetries are

* pair symmetry in the unbarred slots:  ``R[i,j,k,l] == R[k,j,i,l]``
* pair symmetry in the barred slots:    ``R[i,j,k,l] == R[i,l,k,j]``
* Hermitian symmetry:                   ``conj(R[i,j,k,l]) == R[j,i,l,k]``

Tensors are canonicalized on construction by averaging each symmetry orbit;
the residual is recorded as the tensor's reported asymmetry.  All values are
immutable after construction and every operation is a pure function, so
concurrent reads are safe.

For Kähler-Einstein surfaces the distinguished frame puts the HSC minimizer
at ``e_1``, leaving only components with two indices equal to 1 and two equal
to 2: ``H = R_{1 1bar 1 1bar}``, ``A = R_{1 1bar 2 2bar}``, ``B = R_{1 2bar 1
2bar}``.  In that frame

    HSC(v) = H + 2 (2A - H) |v1 conj(v2)|^2 + 2 Re(B (v1 conj(v2))^2)

with maximum ``H + (2A - H + |B|) / 2`` and minimum ``H``, and the
Chern-Weil functions are ``gamma1 = H + A`` and ``gamma2 = (H^2 + 2 A^2 +
|B|^2) / 2``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    FrameConstraintViolated,
    NotUnitary,
    RegimeViolation,
    TensorFormatError,
)

__all__ = [
    "Direction",
    "EinsteinFramePoint",
    "KahlerCurvatureTensor",
    "SYMMETRY_TOL",
    "SurfaceMax",
    "SymmetryViolation",
    "ValidationReport",
    "assemble_einstein_surface",
    "chern_weil",
    "constant_hsc_tensor",
    "hsc",
    "hsc_surface_closed_form",
    "max_hsc_surface",
    "product_tensor",
    "ricci",
    "scalar",
    "sufficient_negativity",
    "tensor_from_dict",
    "tensor_to_dict",
    "transform_frame",
    "validate",
]

SYMMETRY_TOL = 1e-9


def _symmetrize(R: np.ndarray) -> np.ndarray:
    """Project onto the Kähler-symmetric subspace (orbit average)."""
    S = 0.25 * (
        R
        + R.transpose(2, 1, 0, 3)
        + R.transpose(0, 3, 2, 1)
        + R.transpose(2, 3, 0, 1)
    )
    return 0.5 * (S + S.transpose(1, 0, 3, 2).conj())


class KahlerCurvatureTensor:
    """Curvature array at a point, canonicalized and frozen on construction.

    Raises ValueError when the canonicalized array is not finite, e.g. when
    entries near the float limit overflow in the orbit average.
    """

    __slots__ = ("_R", "_asymmetry")

    def __init__(self, entries, *, canonicalize: bool = True):
        R = np.array(entries, dtype=complex)
        if R.ndim != 4 or len(set(R.shape)) != 1:
            raise DimensionMismatch(
                f"expected an n x n x n x n array, got shape {R.shape}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            canon = _symmetrize(R) if canonicalize else R
            self._asymmetry = float(np.max(np.abs(R - canon))) if R.size else 0.0
        if not np.isfinite(canon).all():
            raise ValueError("curvature array is not finite after canonicalization")
        R = canon
        R.setflags(write=False)
        self._R = R

    @property
    def n(self) -> int:
        return self._R.shape[0]

    @property
    def array(self) -> np.ndarray:
        """The underlying read-only complex array."""
        return self._R

    @property
    def asymmetry(self) -> float:
        """Max |input - canonicalized| recorded at ingestion."""
        return self._asymmetry

    def __repr__(self) -> str:
        return f"KahlerCurvatureTensor(n={self.n}, asymmetry={self._asymmetry:.3g})"


@dataclass(frozen=True, eq=False)
class Direction:
    """A nonzero complex direction, normalized to unit length on creation."""

    vector: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vector, dtype=complex).reshape(-1)
        norm = float(np.linalg.norm(v))
        if norm == 0.0:
            raise ValueError("direction must be nonzero")
        v = v / norm
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)

    @property
    def n(self) -> int:
        return self.vector.shape[0]


def _as_vector(v, n: int) -> np.ndarray:
    vec = np.asarray(getattr(v, "vector", v), dtype=complex).reshape(-1)
    if vec.shape[0] != n:
        raise DimensionMismatch(f"direction has length {vec.shape[0]}, tensor has n={n}")
    return vec


@dataclass(frozen=True)
class SymmetryViolation:
    relation: str
    indices: tuple[int, int, int, int]
    magnitude: float


@dataclass(frozen=True, eq=False)
class ValidationReport:
    ok: bool
    tolerance: float
    violations: tuple[SymmetryViolation, ...]

    def to_payload(self) -> dict:
        return {
            "ok": self.ok,
            "tolerance": self.tolerance,
            "violations": [
                {
                    "relation": v.relation,
                    "indices": list(v.indices),
                    "magnitude": v.magnitude,
                }
                for v in self.violations
            ],
        }


def _orbit(idx: tuple[int, int, int, int]):
    i, j, k, l = idx
    linear = {(i, j, k, l), (k, j, i, l), (i, l, k, j), (k, l, i, j)}
    conjugate = {(j, i, l, k), (j, k, l, i), (l, i, j, k), (l, k, j, i)}
    return linear, conjugate


def _orbit_representative(idx: tuple[int, int, int, int]) -> tuple[int, int, int, int]:
    linear, conjugate = _orbit(idx)
    return min(linear | conjugate)


def validate(
    tensor: KahlerCurvatureTensor | np.ndarray, tol: float = SYMMETRY_TOL
) -> ValidationReport:
    """Check the Kähler symmetries, reporting every violated orbit.

    Accepts a tensor or a raw array (raw arrays are checked as-is, without
    canonicalization).  Violations are aggregated per symmetry orbit with the
    worst magnitude; an empty list means the tensor is symmetric within tol.
    """
    R = tensor.array if isinstance(tensor, KahlerCurvatureTensor) else np.asarray(tensor, dtype=complex)
    relations = (
        ("unbarred-pair-swap", R - R.transpose(2, 1, 0, 3)),
        ("barred-pair-swap", R - R.transpose(0, 3, 2, 1)),
        ("hermitian", R - R.transpose(1, 0, 3, 2).conj()),
    )
    worst: dict[tuple[tuple[int, int, int, int], str], float] = {}
    for name, dev in relations:
        mags = np.abs(dev)
        for raw in np.argwhere(mags > tol):
            idx = tuple(int(x) for x in raw)
            rep = _orbit_representative(idx)
            key = (rep, name)
            worst[key] = max(worst.get(key, 0.0), float(mags[idx]))
    violations = tuple(
        SymmetryViolation(relation=name, indices=rep, magnitude=mag)
        for (rep, name), mag in sorted(worst.items())
    )
    return ValidationReport(ok=not violations, tolerance=tol, violations=violations)


def _values_batch(R: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The quartic ``sum R[i,j,k,l] v_i conj(v_j) v_k conj(v_l)`` per row v
    of V, complex so that ``hsc`` can check the imaginary part."""
    W = np.einsum("ijkl,mj,ml->mik", R, V.conj(), V.conj())
    return np.einsum("mik,mi,mk->m", W, V, V)


def hsc(tensor: KahlerCurvatureTensor, v) -> float:
    """Holomorphic sectional curvature along a direction.

    Evaluates ``sum R[i,j,k,l] v_i conj(v_j) v_k conj(v_l)`` with the input
    normalized internally (the contraction is divided by |v|^4), so the
    result is scale-invariant.  The imaginary part must vanish within
    SYMMETRY_TOL (relative to the value's size when that exceeds 1).
    """
    vec = _as_vector(v, tensor.n)
    norm_sq = float(np.vdot(vec, vec).real)
    if norm_sq == 0.0:
        raise ValueError("direction must be nonzero")
    val = complex(_values_batch(tensor.array, vec[None, :])[0]) / (norm_sq * norm_sq)
    if abs(val.imag) > SYMMETRY_TOL * max(1.0, abs(val)):
        raise ValueError(
            f"contraction is not real within tolerance (imag={val.imag:.3g}); "
            "tensor symmetries are suspect"
        )
    return float(val.real)


def ricci(tensor: KahlerCurvatureTensor) -> np.ndarray:
    """Ricci contraction ``Ric[i,j] = sum_k R[i,j,k,k]`` (Hermitian)."""
    return np.einsum("ijkk->ij", tensor.array)


def scalar(tensor: KahlerCurvatureTensor) -> float:
    """Scalar curvature: trace of the Ricci contraction."""
    return float(np.trace(ricci(tensor)).real)


def transform_frame(tensor: KahlerCurvatureTensor, U: np.ndarray) -> KahlerCurvatureTensor:
    """Curvature in the frame whose vectors are the columns of U.

    The new components are ``R'[a,b,c,d] = sum R[i,j,k,l] U[i,a] conj(U[j,b])
    U[k,c] conj(U[l,d])``; a direction w in the new frame corresponds to
    ``U @ w`` in the old one.
    """
    U = np.asarray(U, dtype=complex)
    n = tensor.n
    if U.shape != (n, n):
        raise DimensionMismatch(f"expected a {n}x{n} matrix, got {U.shape}")
    defect = float(np.max(np.abs(U.conj().T @ U - np.eye(n))))
    if defect > SYMMETRY_TOL:
        raise NotUnitary(f"matrix is not unitary (defect {defect:.3g})")
    Rp = np.einsum("ijkl,ia,jb,kc,ld->abcd", tensor.array, U, U.conj(), U, U.conj())
    return KahlerCurvatureTensor(Rp)


@dataclass(frozen=True)
class EinsteinFramePoint:
    """Distinguished-frame data (H, A, B) of a Kähler-Einstein surface point.

    ``H`` is the HSC minimum ``R_{1 1bar 1 1bar}``, ``A = R_{1 1bar 2 2bar}``
    and ``B = R_{1 2bar 1 2bar}``.  Minimality of ``e_1`` forces
    ``2A >= H + |B|``; the Einstein constant is ``H + A``.  Non-finite
    values raise ValueError.
    """

    H: float
    A: float
    B: complex = 0.0

    def __post_init__(self):
        object.__setattr__(self, "H", float(self.H))
        object.__setattr__(self, "A", float(self.A))
        object.__setattr__(self, "B", complex(self.B))
        if not np.isfinite([self.H, self.A, self.B]).all():
            raise ValueError(
                f"frame data must be finite: H={self.H}, A={self.A}, B={self.B}"
            )
        slack = 1e-12 * max(1.0, abs(self.H), abs(self.A), abs(self.B))
        if 2 * self.A + slack < self.H + abs(self.B):
            raise FrameConstraintViolated(
                f"2A >= H + |B| fails: H={self.H}, A={self.A}, |B|={abs(self.B)}"
            )

    @property
    def einstein_constant(self) -> float:
        return self.H + self.A


def assemble_einstein_surface(point: EinsteinFramePoint) -> KahlerCurvatureTensor:
    """Build the n=2 curvature tensor carried by distinguished-frame data.

    Only components with two indices equal to each value survive: the
    diagonal entries equal H (the Einstein condition forces ``R_{2 2bar 2
    2bar} = H`` given the vanishing pattern), the mixed orbit equals A and
    ``R_{1 2bar 1 2bar} = B``.
    """
    R = np.zeros((2, 2, 2, 2), dtype=complex)
    R[0, 0, 0, 0] = point.H
    R[1, 1, 1, 1] = point.H
    for idx in ((0, 0, 1, 1), (1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 0)):
        R[idx] = point.A
    R[0, 1, 0, 1] = point.B
    R[1, 0, 1, 0] = np.conj(point.B)
    return KahlerCurvatureTensor(R)


def hsc_surface_closed_form(point: EinsteinFramePoint, v) -> float:
    """HSC along v from the distinguished-frame closed form."""
    vec = _as_vector(v, 2)
    norm_sq = float(np.vdot(vec, vec).real)
    if norm_sq == 0.0:
        raise ValueError("direction must be nonzero")
    vec = vec / np.sqrt(norm_sq)
    cross = vec[0] * np.conj(vec[1])
    t = abs(cross) ** 2
    return float(
        point.H + 2.0 * (2.0 * point.A - point.H) * t + 2.0 * (point.B * cross**2).real
    )


class SurfaceMax(NamedTuple):
    value: float
    negative: bool


def max_hsc_surface(point: EinsteinFramePoint) -> SurfaceMax:
    """Maximum of the surface HSC and its negativity verdict.

    The maximum is ``H + (2A - H + |B|) / 2`` (attained at |v1| = |v2| with
    the phase aligned to B); the minimum is H by frame construction.
    """
    value = point.H + 0.5 * (2.0 * point.A - point.H + abs(point.B))
    return SurfaceMax(value=value, negative=value < 0.0)


def chern_weil(point: EinsteinFramePoint) -> tuple[float, float]:
    """The Chern-Weil functions (gamma1, gamma2) at the point."""
    gamma1 = point.H + point.A
    gamma2 = 0.5 * (point.H**2 + 2.0 * point.A**2 + abs(point.B) ** 2)
    return gamma1, gamma2


def sufficient_negativity(point: EinsteinFramePoint) -> bool:
    """Sufficient test for everywhere-negative HSC: gamma2 < gamma1^2.

    Only meaningful in the negative-Einstein regime; raises RegimeViolation
    when the Einstein constant gamma1 is non-negative.  The test is
    sufficient, not necessary: False does not certify a sign.
    """
    gamma1, gamma2 = chern_weil(point)
    if gamma1 >= 0.0:
        raise RegimeViolation(
            f"sufficiency test requires a negative Einstein constant, got gamma1={gamma1}"
        )
    return gamma2 < gamma1**2


def constant_hsc_tensor(n: int, c: float) -> KahlerCurvatureTensor:
    """The constant-HSC tensor ``R = (c/2)(δδ + δδ)``; HSC(v) = c for all v."""
    eye = np.eye(n)
    R = 0.5 * c * (np.einsum("ij,kl->ijkl", eye, eye) + np.einsum("il,kj->ijkl", eye, eye))
    return KahlerCurvatureTensor(R)


def product_tensor(
    t1: KahlerCurvatureTensor, t2: KahlerCurvatureTensor
) -> KahlerCurvatureTensor:
    """Block direct sum realizing the curvature of a product metric.

    Mixed index groups vanish, so HSC of the product at (x, y) is the
    norm-weighted combination ``(h1(x)|x|^4 + h2(y)|y|^4) / (|x|^2+|y|^2)^2``.
    """
    n1, n2 = t1.n, t2.n
    n = n1 + n2
    R = np.zeros((n, n, n, n), dtype=complex)
    R[:n1, :n1, :n1, :n1] = t1.array
    R[n1:, n1:, n1:, n1:] = t2.array
    return KahlerCurvatureTensor(R)


# --- JSON wire format -------------------------------------------------------
#
# {"n": int, "entries": [{"i":..., "j":..., "k":..., "l":..., "re":..., "im":...}]}
# Indices are 0-based.  Listed entries are orbit representatives; the symmetry
# images are generated on load and unlisted orbits default to zero.


def tensor_to_dict(tensor: KahlerCurvatureTensor) -> dict:
    """Serialize canonical orbit representatives (nonzero ones only)."""
    R = tensor.array
    entries = []
    for idx in np.ndindex(R.shape):
        if idx != _orbit_representative(idx):
            continue
        val = complex(R[idx])
        if val == 0:
            continue
        i, j, k, l = idx
        entries.append({"i": i, "j": j, "k": k, "l": l, "re": val.real, "im": val.imag})
    return {"n": tensor.n, "entries": entries}


def _wire_field(fields: dict, key: str, kinds: type | tuple = int):
    """fields[key] if it is one of kinds and not a bool, else TensorFormatError."""
    value = fields[key]
    if not isinstance(value, kinds) or isinstance(value, bool):
        kind = "an integer" if kinds is int else "a number"
        raise TensorFormatError(f"tensor field {key!r} must be {kind}, got {value!r}")
    return value


def tensor_from_dict(data: dict) -> KahlerCurvatureTensor:
    """Load a tensor from the wire format, generating symmetry images.

    Each listed entry seeds its whole orbit (conjugate images get the
    conjugate value).  Two entries in the same orbit are rejected.  The
    result is canonicalized as usual, so a non-real value at a self-conjugate
    orbit shows up in the tensor's asymmetry rather than passing silently.
    ``n`` and the indices must be ints and ``re``/``im`` finite ints or
    floats (bools excluded); anything else raises TensorFormatError.
    """
    try:
        n = _wire_field(data, "n")
        raw_entries = data["entries"]
    except (KeyError, TypeError) as exc:
        raise TensorFormatError(f"malformed tensor payload: {exc}") from exc
    if n < 1:
        raise TensorFormatError(f"dimension must be positive, got {n}")
    R = np.zeros((n, n, n, n), dtype=complex)
    seen: set[tuple[int, int, int, int]] = set()
    for entry in raw_entries:
        try:
            idx = tuple(_wire_field(entry, key) for key in ("i", "j", "k", "l"))
            parts = {"im": 0.0, **entry}
            val = complex(*(_wire_field(parts, key, (int, float)) for key in ("re", "im")))
        except (KeyError, TypeError, OverflowError) as exc:  # an int beyond float range
            raise TensorFormatError(f"malformed tensor entry {entry!r}") from exc
        if not np.isfinite(val):
            raise TensorFormatError(f"non-finite value in tensor entry {entry!r}")
        if not all(0 <= x < n for x in idx):
            raise TensorFormatError(f"index {idx} out of range for n={n}")
        rep = _orbit_representative(idx)
        if rep in seen:
            raise TensorFormatError(f"duplicate symmetry orbit at {idx}")
        seen.add(rep)
        linear, conjugate = _orbit(idx)
        for img in sorted(linear):
            R[img] = val
        for img in sorted(conjugate - linear):
            R[img] = np.conj(val)
    return KahlerCurvatureTensor(R)
