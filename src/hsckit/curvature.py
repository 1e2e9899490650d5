"""Pointwise Kähler curvature tensors and holomorphic sectional curvature.

Everything here works at a single point in a unitary frame, so the metric is
the identity and the curvature is a complex 4-index array ``R[i,j,k,l]``
standing for ``R_{i jbar k lbar}`` (0-based).  The Kähler symmetries are

* pair symmetry in the unbarred slots:  ``R[i,j,k,l] == R[k,j,i,l]``
* pair symmetry in the barred slots:    ``R[i,j,k,l] == R[i,l,k,j]``
* Hermitian symmetry:                   ``conj(R[i,j,k,l]) == R[j,i,l,k]``

The group they generate is stated once, in ``_LINEAR`` and ``_HERMITIAN``,
and so is the one rule that fills an orbit, in ``_fill_orbits``: the linear
images of its representative take its value and the others the conjugate.
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
from functools import reduce
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
_MAX_WIRE_N = 32  # largest n a tensor file may state: one n^4 complex array is 16 MB

# The Kähler symmetry group as axis permutations of R[i,j,k,l]: the four linear
# ones, and each of them composed with _HERMITIAN, which conjugates the value.
_LINEAR = ((0, 1, 2, 3), (2, 1, 0, 3), (0, 3, 2, 1), (2, 3, 0, 1))
_HERMITIAN = (1, 0, 3, 2)


def _symmetrize(R: np.ndarray) -> np.ndarray:
    """Project onto the Kähler-symmetric subspace (group average).  Images
    are scaled before they are summed, so finite input stays finite.

    The average is read at each orbit's representative, made real on
    self-conjugate orbits, and filled over the orbit by ``_fill_orbits``, so
    the result is exactly invariant."""
    S = reduce(np.add, (0.25 * R.transpose(p) for p in _LINEAR))
    avg = (0.5 * S + 0.5 * S.transpose(_HERMITIAN).conj()).ravel()
    linear, hermitian = _image_mins(R.shape[0])
    avg.imag[(linear == hermitian).ravel()] = 0.0
    return _fill_orbits(avg, linear, np.minimum(linear, hermitian))


def _image_mins(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Two n^4 arrays holding, at each index, the smallest flat index among its
    4 linear images and among its 4 conjugating images."""
    ids = np.arange(n**4).reshape((n,) * 4)
    linear = reduce(np.minimum, (ids.transpose(p) for p in _LINEAR))
    return linear, linear.transpose(_HERMITIAN)


def _orbit_ids(n: int) -> np.ndarray:
    """The n^4 array holding, at each index, the smallest flat index among its
    8 images: its orbit representative, as row-major order is lexicographic."""
    return np.minimum(*_image_mins(n))


def _fill_orbits(values: np.ndarray, linear: np.ndarray, rep: np.ndarray) -> np.ndarray:
    """Every orbit filled from the value the flat array values holds at its
    representative rep: linear images copy it and the others take its
    conjugate.  Every image of a self-conjugate orbit is linear."""
    v = values[rep]
    return np.where(linear == rep, v, v.conj())


class KahlerCurvatureTensor:
    """Curvature array at a point, canonicalized and frozen on construction.
    Raises ValueError for NaN or infinite entries."""

    __slots__ = ("_R", "_asymmetry")

    def __init__(self, entries):
        R = np.array(entries, dtype=complex)
        if R.ndim != 4 or len(set(R.shape)) != 1:
            raise DimensionMismatch(
                f"expected an n x n x n x n array, got shape {R.shape}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            canon = _symmetrize(R)
            self._asymmetry = float(np.max(np.abs(R - canon))) if R.size else 0.0
        if not np.isfinite(canon).all():
            raise ValueError("curvature array is not finite after canonicalization")
        canon.setflags(write=False)
        self._R = canon

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


def _unit(v) -> np.ndarray:
    """The flat complex unit vector along v; ValueError if v is zero or has
    a non-finite entry.

    The norm is taken after scaling by the power of two just above the
    largest real or imaginary part.  That scaling is exact, so no finite v
    overflows or underflows, and a v within the float range normalizes to
    the same bits as it would unscaled."""
    parts = np.array(v, dtype=complex).reshape(-1).view(float)
    if not np.isfinite(parts).all():
        raise ValueError("direction must be finite")
    peak = np.max(np.abs(parts), initial=0.0)
    if peak == 0.0:
        raise ValueError("direction must be nonzero")
    scaled = np.ldexp(parts, -np.frexp(peak)[1]).view(complex)
    return scaled / np.linalg.norm(scaled)


@dataclass(frozen=True, eq=False)
class Direction:
    """A nonzero finite complex direction, normalized to unit length on
    creation by the rule of ``_unit``."""

    vector: np.ndarray

    def __post_init__(self):
        v = _unit(self.vector)
        v.setflags(write=False)
        object.__setattr__(self, "vector", v)

    @property
    def n(self) -> int:
        return self.vector.shape[0]


def _as_vector(v, n: int) -> np.ndarray:
    """The unit vector along v, a Direction or an array of length n."""
    v = getattr(v, "vector", v)
    if np.size(v) != n:
        raise DimensionMismatch(f"direction has length {np.size(v)}, tensor has n={n}")
    return _unit(v)


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
        """The JSON-ready report.  A magnitude beyond the float range has no
        JSON form and raises ValueError naming its relation and orbit."""
        for v in self.violations:
            if v.magnitude == float("inf"):
                raise ValueError(f"{v.relation} violation at orbit {v.indices} exceeds the float range")
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


def validate(
    tensor: KahlerCurvatureTensor | np.ndarray, tol: float = SYMMETRY_TOL
) -> ValidationReport:
    """Check the Kähler symmetries, reporting every violated orbit.

    A tensor is canonical and always passes; a raw array (such as the stated
    entries of a file) is checked as it stands.  Violations are aggregated
    per orbit, named by its smallest index, with the worst magnitude; an
    empty list means the array is symmetric within tol, which must be
    finite and non-negative (else ValueError).
    """
    if not 0.0 <= tol < float("inf"):  # also rejects nan
        raise ValueError(f"tolerance must be finite and >= 0, got {tol}")
    R = tensor.array if isinstance(tensor, KahlerCurvatureTensor) else np.asarray(tensor, dtype=complex)
    with np.errstate(over="ignore"):  # a difference beyond the float range is inf
        relations = (
            ("unbarred-pair-swap", np.abs(R - R.transpose(_LINEAR[1]))),
            ("barred-pair-swap", np.abs(R - R.transpose(_LINEAR[2]))),
            ("hermitian", np.abs(R - R.transpose(_HERMITIAN).conj())),
        )
    reps = _orbit_ids(R.shape[0])
    worst: dict[tuple[int, str], float] = {}
    for name, mags in relations:
        bad = mags > tol
        for rep, mag in zip(reps[bad].tolist(), mags[bad].tolist()):
            worst[rep, name] = max(worst.get((rep, name), 0.0), mag)
    violations = tuple(
        SymmetryViolation(name, tuple(map(int, np.unravel_index(rep, R.shape))), mag)
        for (rep, name), mag in sorted(worst.items())
    )
    return ValidationReport(ok=not violations, tolerance=tol, violations=violations)


_KERNEL_ROWS = 8192  # rows per product: 4.7 MB per temporary at n = 6


def _quartic_matrix(R: np.ndarray) -> np.ndarray:
    """R as the n^2 x n^2 matrix ``K[(i,k),(j,l)] = R[i,j,k,l]``, so that
    ``f(v) = Re conj(x).(x K)`` for ``x = v (x) v``."""
    n = R.shape[0]
    return R.transpose(0, 2, 1, 3).reshape(n * n, n * n)


def _values_batch(K: np.ndarray, V: np.ndarray) -> np.ndarray:
    """The quartic ``sum R[i,j,k,l] v_i conj(v_j) v_k conj(v_l)`` per row v
    of V, for K = ``_quartic_matrix(R)``.

    Each block of at most 8,192 rows is one GEMM ``Y = X K`` with X the rows
    of x = v (x) v, followed by ``Re conj(x).y`` per row; the quartic is real
    because R is Hermitian-symmetric.  The blocks are cut at fixed offsets,
    so the sequence of products depends only on the row count, and the same
    rows give bitwise-identical values on every call.
    """
    m, n = V.shape
    out = np.empty(m)
    for start in range(0, m, _KERNEL_ROWS):
        Vb = V[start : start + _KERNEL_ROWS]
        X = (Vb[:, :, None] * Vb[:, None, :]).reshape(len(Vb), n * n)
        # Re(y conj(x)) = y.re x.re + y.im x.im, summed over the float pairs
        out[start : start + len(Vb)] = ((X @ K).view(float) * X.view(float)).sum(axis=1)
    return out


def _value_and_gradient(K: np.ndarray, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f and its Euclidean gradient at every row v of V, from one product.

    With Y = (v (x) v) K read as an n x n matrix, ``Y conj(v)`` is the cubic
    contraction ``sum R[i,m,k,l] v_i v_k conj(v_l)``: the gradient in R^{2n}
    coordinates, as a complex vector, is 4 Y conj(v) (2 d f / d conj(v),
    doubled again by the two barred slots), and ``f = Re conj(v).Y conj(v)``.
    """
    m, n = V.shape
    X = (V[:, :, None] * V[:, None, :]).reshape(m, n * n)
    Yv = ((X @ K).reshape(m, n, n) * V.conj()[:, None, :]).sum(axis=2)
    return (V.conj() * Yv).sum(axis=1).real, 4.0 * Yv


def hsc(tensor: KahlerCurvatureTensor, v) -> float:
    """Holomorphic sectional curvature along a direction.

    Evaluates ``sum R[i,j,k,l] v_i conj(v_j) v_k conj(v_l)`` at the unit
    vector along v, so the result is scale-invariant; v must be nonzero and
    finite (else ValueError).  Every tensor is canonical, so the contraction
    is real up to rounding and its real part is returned.
    """
    vec = _as_vector(v, tensor.n)
    return float(_values_batch(_quartic_matrix(tensor.array), vec[None, :])[0])


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
    # one factor at a time, O(n^5): each contracts the leading axis and appends the new one
    Rp = tensor.array
    for M in (U, U.conj(), U, U.conj()):
        Rp = np.tensordot(Rp, M, axes=(0, 0))
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
    ``R_{1 2bar 1 2bar} = B``; they seed their orbits through the wire format.
    """
    seeds = {(0, 0, 0, 0): point.H, (1, 1, 1, 1): point.H, (0, 0, 1, 1): point.A, (0, 1, 0, 1): point.B}
    entries = [dict(zip("ijkl", idx), re=value.real, im=value.imag) for idx, value in seeds.items()]
    return tensor_from_dict({"n": 2, "entries": entries})


def hsc_surface_closed_form(point: EinsteinFramePoint, v) -> float:
    """HSC along v from the distinguished-frame closed form."""
    vec = _as_vector(v, 2)
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
# Indices are 0-based.  An entry may name any member of its orbit; the other
# images are generated on load and unlisted orbits default to zero.


def tensor_to_dict(tensor: KahlerCurvatureTensor) -> dict:
    """Serialize canonical orbit representatives (nonzero ones only)."""
    R = tensor.array
    ids = _orbit_ids(tensor.n)
    keep = (ids == np.arange(ids.size).reshape(ids.shape)) & (R != 0)
    entries = [
        {"i": i, "j": j, "k": k, "l": l, "re": z.real, "im": z.imag}
        for (i, j, k, l), z in zip(np.argwhere(keep).tolist(), R[keep].tolist())
    ]
    return {"n": tensor.n, "entries": entries}


def _wire_field(fields: dict, key: str, kinds: type | tuple = int):
    """fields[key] if it is one of kinds and not a bool, else TensorFormatError."""
    value = fields[key]
    if not isinstance(value, kinds) or isinstance(value, bool):
        kind = "an integer" if kinds is int else "a number"
        raise TensorFormatError(f"tensor field {key!r} must be {kind}, got {value!r}")
    return value


def _stated_array(data: dict) -> np.ndarray:
    """The array a wire-format payload states, before canonicalization;
    ``tensor_from_dict`` gives the rules and the errors.  Each value moves to
    its orbit's representative, conjugated if it names a conjugating image."""
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
    linear, hermitian = _image_mins(n)
    ids = np.minimum(linear, hermitian)
    values = np.zeros(n**4, dtype=complex)
    seen: set[int] = set()
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
        rep = ids[idx]
        if rep in seen:
            raise TensorFormatError(f"duplicate symmetry orbit at {idx}")
        seen.add(rep)
        values[rep] = val if linear[idx] == rep else val.conjugate()
    return _fill_orbits(values, linear, ids)


def tensor_from_dict(data: dict) -> KahlerCurvatureTensor:
    """Load a tensor from the wire format, generating symmetry images.

    An entry may name any member of its orbit and seeds the whole orbit
    (conjugate images of that member get the conjugate value).  Two entries
    in the same orbit are rejected.  The result is canonicalized as usual,
    so a non-real value at a self-conjugate orbit shows up in the tensor's
    asymmetry rather than passing silently.  ``n`` (at most 32) and the
    indices must be ints and ``re``/``im`` finite ints or floats (bools
    excluded); anything else raises TensorFormatError.
    """
    return KahlerCurvatureTensor(_stated_array(data))
