"""Pointwise Kähler curvature tensors and holomorphic sectional curvature.

Everything here works at a single point in a unitary frame, so the metric is
the identity and the curvature is a complex 4-index array ``R[i,j,k,l]``
standing for ``R_{i jbar k lbar}`` (0-based).  The Kähler symmetries are

* pair symmetry in the unbarred slots:  ``R[i,j,k,l] == R[k,j,i,l]``
* pair symmetry in the barred slots:    ``R[i,j,k,l] == R[i,l,k,j]``
* Hermitian symmetry:                   ``conj(R[i,j,k,l]) == R[j,i,l,k]``

The group they generate is stated once, in ``_wire``'s ``_LINEAR`` and
``_HERMITIAN``, next to the numpy-free reader of the tensor JSON wire format.
The orbit maps are stated here, in ``_orbit_maps``, and so is the one rule
that fills an orbit, in ``_fill_orbits``: the linear images of its
representative take its value and the others the conjugate.
Tensors are canonicalized on construction by averaging each symmetry orbit;
the residual is recorded as the tensor's reported asymmetry.  All values are
immutable after construction and every operation is a pure function, so
concurrent reads are safe.

The closed forms for Kähler-Einstein surfaces, in the distinguished-frame
data (H, A, B), are in ``surface``; ``assemble_einstein_surface`` builds the
n = 2 tensor those data carry, and ``hsc_surface_closed_form`` evaluates
the HSC formula along a direction.
"""

from __future__ import annotations

from functools import lru_cache, reduce
from typing import NamedTuple

import numpy as np

from ._config import SYMMETRY_TOL, _checked
from ._wire import _HERMITIAN, _LINEAR, _check_tolerance, _orbit_values, _violation_payloads
from .errors import DimensionMismatch, NotUnitary
from .surface import EinsteinFramePoint

__all__ = [
    "Direction",
    "KahlerCurvatureTensor",
    "SYMMETRY_TOL",
    "SymmetryViolation",
    "ValidationReport",
    "assemble_einstein_surface",
    "constant_hsc_tensor",
    "hsc",
    "hsc_surface_closed_form",
    "ricci",
    "scalar",
    "tensor_from_dict",
    "tensor_to_dict",
    "transform_frame",
    "validate",
]


def _symmetrize(R: np.ndarray) -> np.ndarray:
    """Project onto the Kähler-symmetric subspace (group average).  Images
    are scaled before they are summed, so finite input stays finite.

    The average is read at each orbit's representative, made real on
    self-conjugate orbits, and filled over the orbit by ``_fill_orbits``, so
    the result is exactly invariant."""
    S = reduce(np.add, (0.25 * R.transpose(p) for p in _LINEAR))
    avg = (0.5 * S + 0.5 * S.transpose(_HERMITIAN).conj()).ravel()
    linear, hermitian, rep = _orbit_maps(R.shape[0])
    avg.imag[(linear == hermitian).ravel()] = 0.0
    return _fill_orbits(avg, linear, rep)


@lru_cache(maxsize=4)  # at n = 32 an entry keeps 16 MiB: linear and rep, int64, 8 MiB each
def _orbit_maps(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """n^4 read-only arrays of the smallest flat index among each index's 4
    linear images, its 4 conjugating images, and all 8 (its orbit
    representative); hermitian is a view of linear."""
    ids = np.arange(n**4).reshape((n,) * 4)
    linear = reduce(np.minimum, (ids.transpose(p) for p in _LINEAR))
    linear.flags.writeable = False
    hermitian = linear.transpose(_HERMITIAN)
    rep = np.minimum(linear, hermitian)
    rep.flags.writeable = False
    return linear, hermitian, rep


def _fill_orbits(values: np.ndarray, linear: np.ndarray, rep: np.ndarray) -> np.ndarray:
    """Every orbit filled from the value the flat array values holds at its
    representative rep: linear images copy it and the others take its
    conjugate.  Every image of a self-conjugate orbit is linear."""
    v = values[rep]
    return np.where(linear == rep, v, v.conj())


class KahlerCurvatureTensor:
    """Curvature array at a point, canonicalized and frozen on construction.
    Raises DimensionMismatch unless the array is n x n x n x n with n >= 1,
    and ValueError for NaN or infinite entries."""

    __slots__ = ("_R", "_asymmetry")

    def __init__(self, entries):
        R = np.array(entries, dtype=complex)
        if R.ndim != 4 or len(set(R.shape)) != 1 or R.size == 0:
            raise DimensionMismatch(
                f"expected an n x n x n x n array with n >= 1, got shape {R.shape}"
            )
        with np.errstate(over="ignore", invalid="ignore"):
            canon = _symmetrize(R)
            self._asymmetry = float(np.max(np.abs(R - canon)))
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


def _scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """a 2^-e and e, for e the ``np.frexp`` exponent of the largest real or
    imaginary part of the complex array a (0 if a is zero), so that part
    lands in [1/2, 1).  Scaling by a power of two is exact unless an entry
    becomes subnormal, so a sum of products taken on a 2^-e and scaled back
    gives the bits it gives on a wherever nothing on either side overflows
    or is subnormal."""
    e = int(np.frexp(np.max(np.abs(a.view(float)), initial=0.0))[1])
    return np.ldexp(a.view(float), -e).view(complex), e


def _unit(v) -> np.ndarray:
    """The flat complex unit vector along v; ValueError if v is zero or has
    a non-finite entry.

    The norm is taken on v scaled by ``_scaled``, so no finite v overflows
    or underflows, and a v within the float range normalizes to the same
    bits as it would unscaled."""
    v = np.array(v, dtype=complex).reshape(-1)
    if not np.isfinite(v).all():
        raise ValueError("direction must be finite")
    scaled = _scaled(v)[0]
    if not scaled.any():
        raise ValueError("direction must be nonzero")
    return scaled / np.linalg.norm(scaled)


@_checked
class Direction(NamedTuple):
    """A nonzero finite complex direction, normalized to unit length and made
    read-only on creation by the rule of ``_unit``.  It compares and hashes
    as a tuple, so ``==`` between two Directions raises numpy's ambiguity
    error; compare their vectors.  A copy or an unpickled Direction keeps
    its vector's bits: ``_unit`` of a unit vector may move its last bit."""

    vector: np.ndarray

    def _check(self):
        v = _unit(self.vector)
        v.setflags(write=False)
        return (v,)

    def __reduce__(self):
        return _unpickled_direction, (self.vector,)

    @property
    def n(self) -> int:
        return self.vector.shape[0]


def _unpickled_direction(v: np.ndarray) -> Direction:
    """The Direction along the stored unit vector v, frozen again but not renormalized."""
    v.setflags(write=False)
    return tuple.__new__(Direction, (v,))


def _as_vector(v, n: int) -> np.ndarray:
    """The unit vector along v, a Direction or an array of length n."""
    v = getattr(v, "vector", v)
    if np.size(v) != n:
        raise DimensionMismatch(f"direction has length {np.size(v)}, tensor has n={n}")
    return _unit(v)


class SymmetryViolation(NamedTuple):
    """The worst breach of one Kähler relation on one orbit, named by its smallest index."""

    relation: str
    indices: tuple[int, int, int, int]
    magnitude: float


class ValidationReport(NamedTuple):
    """Result of ``validate``: the tolerance used and every violated orbit."""

    ok: bool
    tolerance: float
    violations: tuple[SymmetryViolation, ...]

    def to_payload(self) -> dict:
        """The JSON-ready report.  A magnitude beyond the float range has no
        JSON form and raises ValueError naming its relation and orbit."""
        return {"ok": self.ok, "tolerance": self.tolerance, "violations": _violation_payloads(self.violations)}


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
    _check_tolerance(tol)
    R = tensor.array if isinstance(tensor, KahlerCurvatureTensor) else np.asarray(tensor, dtype=complex)
    with np.errstate(over="ignore"):  # a difference beyond the float range is inf
        relations = (
            ("unbarred-pair-swap", np.abs(R - R.transpose(_LINEAR[1]))),
            ("barred-pair-swap", np.abs(R - R.transpose(_LINEAR[2]))),
            ("hermitian", np.abs(R - R.transpose(_HERMITIAN).conj())),
        )
    reps = _orbit_maps(R.shape[0])[2]
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


# rows per product and per ``sample_hsc`` draw, through N-column buffers allocated once per
# call: 344 kB each at n = 6 and 8.7 MB at n = 32; a block's n^2-column gradient product is
# 590 kB at n = 6, inside a 4 MiB L2 cache, and 17 MB at n = 32, where 8,192 rows peak at
# 37.0 MiB in ``_value_and_gradient`` and 28.8 MiB in the circle fit (tracemalloc, Gaussian R);
# 1,024 and 8,192 rows gave bitwise equal values at n = 1 to 32 (OpenBLAS), but a one-row
# block is a matrix-vector product that may differ in the last bits
_KERNEL_ROWS = 1024


def _quartic_matrix(R: np.ndarray) -> tuple[np.ndarray, ...]:
    """R folded onto Sym^2(C^n), as the tuple (I, J, Kc, Ks, Rt) the kernels take.

    With ``K[(i,k),(j,l)] = R[i,j,k,l]`` and ``x = v (x) v``, ``f(v) = Re
    conj(x).(x K)``.  x is symmetric, so its N = n (n + 1) / 2 entries on
    i <= k, ``x_s = v[I] v[J]``, carry it: Kc (N x n^2) adds row (k,i) of K
    to row (i,k), so ``x_s Kc = x K``; R's barred pair symmetry makes that
    product symmetric too, and Ks (N x N) folds Kc's columns the same way,
    so ``f = Re conj(x_s).(x_s Ks)``.  Rt, a view of R, has ``(v (x)
    conj(v)) Rt = conj(P)`` read as n x n, for the Hessian term ``P[m,i] =
    sum R[i,m,k,l] v_k conj(v_l)``."""
    n = R.shape[0]
    I, J, a, b, off = _fold_indices(n)
    K = R.transpose(0, 2, 1, 3).reshape(n * n, n * n)
    Kc = K[a] + off[:, None] * K[b]
    return I, J, Kc, Kc[:, a] + off * Kc[:, b], R.reshape(n * n, n * n).T


@lru_cache(maxsize=4)
def _fold_indices(n: int) -> tuple[np.ndarray, ...]:
    """Read-only (I, J, a, b, off) of ``_quartic_matrix``: the pairs i <= k, their
    flat indices i n + k and k n + i, and whether i != k."""
    I, J = np.triu_indices(n)
    indices = (I, J, I * n + J, J * n + I, I != J)
    for x in indices:
        x.flags.writeable = False
    return indices


def _by_blocks(K: tuple, V: np.ndarray, out: np.ndarray, kernel) -> np.ndarray:
    """out, with ``out[rows] = kernel(Vb, X, Y)`` for each block Vb of V, cut at fixed offsets of
    ``_KERNEL_ROWS`` so the same rows give bitwise-identical products, and X and Y its rows of
    two N-column buffers allocated once per call."""
    X, Y = np.empty((2, min(len(V), _KERNEL_ROWS), len(K[0])), dtype=complex)
    for start in range(0, len(V), _KERNEL_ROWS):
        Vb = V[start : start + _KERNEL_ROWS]
        out[start : start + len(Vb)] = kernel(Vb, X[: len(Vb)], Y[: len(Vb)])
    return out


def _fold(K: tuple, Vb: np.ndarray, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """X = x_s = v[I] v[J] per row v of Vb, with Y as scratch (``mode="clip"`` writes in place)."""
    return np.multiply(np.take(Vb, K[0], 1, out=X, mode="clip"), np.take(Vb, K[1], 1, out=Y, mode="clip"), out=X)


def _re_dot(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Re<a, b> per row of two complex arrays, the dot product of their float views."""
    return np.vecdot(a.view(float), b.view(float), out=out)


def _block_values(K: tuple, Vb: np.ndarray, X: np.ndarray, Y: np.ndarray, out=None) -> np.ndarray:
    """The quartic per row of the block Vb, through the caller's len(Vb) x N buffers X
    and Y: the fold x_s, one GEMM ``y = x_s Ks``, then ``Re conj(x_s).y`` into out."""
    return _re_dot(_fold(K, Vb, X, Y), np.matmul(X, K[3], out=Y), out)


def _values_batch(K: tuple, V: np.ndarray) -> np.ndarray:
    """The quartic ``sum R[i,j,k,l] v_i conj(v_j) v_k conj(v_l)`` per row v
    of V, for K = ``_quartic_matrix(R)``, one ``_block_values`` per block."""
    return _by_blocks(K, V, np.empty(len(V)), lambda *block: _block_values(K, *block))


def _value_and_gradient(K: tuple, V: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """f and its Euclidean gradient at every row v of V, from one product.

    With Y = x_s Kc = (v (x) v) K read as an n x n matrix, ``Y conj(v)`` is
    the cubic contraction ``sum R[i,m,k,l] v_i v_k conj(v_l)``: the gradient
    in R^{2n} coordinates, as a complex vector, is 4 Y conj(v) (2 d f /
    d conj(v), doubled again by the two barred slots), and ``f = Re
    conj(v).Y conj(v)``.
    """
    m, n = V.shape
    Yv = np.empty((m, n), dtype=complex)
    _by_blocks(K, V, Yv, lambda Vb, X, Y: np.vecdot(Vb[:, None, :], (_fold(K, Vb, X, Y) @ K[2]).reshape(-1, n, n)))
    return _re_dot(V, Yv), 4.0 * Yv


def _contracted(tensor: KahlerCurvatureTensor, contract) -> np.ndarray:
    """contract(R 2^-e) 2^e, for ``_scaled``'s e, on a real array: no
    intermediate overflows, and a value beyond the float range raises
    FloatingPointError."""
    R, e = _scaled(tensor.array)
    with np.errstate(over="raise"):
        return np.ldexp(contract(R), e)


def hsc(tensor: KahlerCurvatureTensor, v) -> float:
    """Holomorphic sectional curvature along a direction.

    Evaluates ``sum R[i,j,k,l] v_i conj(v_j) v_k conj(v_l)`` at the unit
    vector along v, so the result is scale-invariant; v must be nonzero and
    finite (else ValueError).  Every tensor is canonical, so the contraction
    is real up to rounding and its real part is returned.  The sum is taken
    on R 2^-e and scaled back by 2^e (``_contracted``), so no intermediate
    overflows; a value beyond the float range raises FloatingPointError.
    """
    v = _as_vector(v, tensor.n)[None, :]
    return float(_contracted(tensor, lambda R: _values_batch(_quartic_matrix(R), v)[0]))


def ricci(tensor: KahlerCurvatureTensor) -> np.ndarray:
    """Ricci contraction ``Ric[i,j] = sum_k R[i,j,k,k]`` (Hermitian), taken
    as ``hsc`` takes its sum: an entry beyond the float range raises
    FloatingPointError."""
    return _contracted(tensor, lambda R: np.einsum("ijkk->ij", R).view(float)).view(complex)


def scalar(tensor: KahlerCurvatureTensor) -> float:
    """Scalar curvature: trace of the Ricci contraction, taken as ``hsc``
    takes its sum."""
    return float(_contracted(tensor, lambda R: np.trace(np.einsum("ijkk->ij", R)).real))


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
    if not defect <= SYMMETRY_TOL:  # so a NaN defect fails too
        raise NotUnitary(f"matrix is not unitary (defect {defect:.3g})")
    # one factor at a time, O(n^5): each contracts the leading axis and appends
    # the new one, one matmul on the (n, n^3) view
    Rp = tensor.array
    for M in (U, U.conj(), U, U.conj()):
        Rp = (Rp.reshape(n, -1).T @ M).reshape((n,) * 4)
    return KahlerCurvatureTensor(Rp)


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


def constant_hsc_tensor(n: int, c: float) -> KahlerCurvatureTensor:
    """The constant-HSC tensor ``R = (c/2)(δδ + δδ)``; HSC(v) = c for all v."""
    eye = np.eye(n)
    R = 0.5 * c * (np.einsum("ij,kl->ijkl", eye, eye) + np.einsum("il,kj->ijkl", eye, eye))
    return KahlerCurvatureTensor(R)


# --- JSON wire format: read by ``_wire``, whose docstring states it ---------


def tensor_to_dict(tensor: KahlerCurvatureTensor) -> dict:
    """Serialize canonical orbit representatives (nonzero ones only)."""
    R = tensor.array
    ids = _orbit_maps(tensor.n)[2]
    keep = (ids == np.arange(ids.size).reshape(ids.shape)) & (R != 0)
    entries = [
        {"i": i, "j": j, "k": k, "l": l, "re": z.real, "im": z.imag}
        for (i, j, k, l), z in zip(np.argwhere(keep).tolist(), R[keep].tolist())
    ]
    return {"n": tensor.n, "entries": entries}


def _stated_array(data: dict) -> np.ndarray:
    """The array a wire-format payload states, before canonicalization:
    ``_wire._orbit_values``' orbits, each filled from its representative;
    ``tensor_from_dict`` gives the rules and the errors."""
    n, orbits = _orbit_values(data)
    linear, _, ids = _orbit_maps(n)
    values = np.zeros(n**4, dtype=complex)
    values[[((i * n + j) * n + k) * n + l for i, j, k, l in orbits]] = [v for v, _ in orbits.values()]
    return _fill_orbits(values, linear, ids)


def tensor_from_dict(data: dict) -> KahlerCurvatureTensor:
    """Load a tensor from the wire format, generating symmetry images.

    An entry may name any member of its orbit and seeds the whole orbit
    (conjugate images of that member get the conjugate value).  Two entries
    in the same orbit are rejected.  The result is canonicalized as usual,
    so a non-real value at a self-conjugate orbit shows up in the tensor's
    asymmetry rather than passing silently.  ``n`` (at most 32) and the
    indices must be ints and ``re``/``im`` finite ints or floats (bools
    excluded), and no other key may appear; anything else raises
    TensorFormatError.
    """
    return KahlerCurvatureTensor(_stated_array(data))
