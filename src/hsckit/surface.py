"""Closed forms at a point of a Kähler-Einstein surface, in scalar arithmetic.

For Kähler-Einstein surfaces the distinguished frame puts the HSC minimizer
at ``e_1``, leaving only components with two indices equal to 1 and two equal
to 2: ``H = R_{1 1bar 1 1bar}``, ``A = R_{1 1bar 2 2bar}``, ``B = R_{1 2bar 1
2bar}``.  In that frame

    HSC(v) = H + 2 (2A - H) |v1 conj(v2)|^2 + 2 Re(B (v1 conj(v2))^2)

with maximum ``H + (2A - H + |B|) / 2`` and minimum ``H``, and the
Chern-Weil functions are ``gamma1 = H + A`` and ``gamma2 = (H^2 + 2 A^2 +
|B|^2) / 2``.  These need only (H, A, B), so this module loads no numpy;
``curvature`` builds the tensor the data carry, and ``extremize`` reads the
data off a tensor.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._config import _checked
from .errors import FrameConstraintViolated, RegimeViolation

__all__ = ["EinsteinFramePoint", "SurfaceMax", "chern_weil", "max_hsc_surface", "sufficient_negativity"]


@_checked
class EinsteinFramePoint(NamedTuple):
    """Distinguished-frame data (H, A, B) of a Kähler-Einstein surface point.

    ``H`` is the HSC minimum ``R_{1 1bar 1 1bar}``, ``A = R_{1 1bar 2 2bar}``
    and ``B = R_{1 2bar 1 2bar}``.  Minimality of ``e_1`` forces
    ``2A >= H + |B|``; the Einstein constant is ``H + A``.  Non-finite
    values, and a B whose modulus overflows, raise ValueError.
    """

    H: float
    A: float
    B: complex = 0.0

    def _check(self):
        H, A, B = float(self.H), float(self.A), complex(self.B)
        if not all(map(math.isfinite, (H, A, B.real, B.imag))):
            raise ValueError(f"frame data must be finite: H={H}, A={A}, B={B}")
        if math.hypot(B.real, B.imag) == math.inf:  # where abs(B) raises OverflowError
            raise ValueError(f"frame data too large: |B| overflows at H={H}, A={A}, B={B}")
        slack = 1e-12 * max(1.0, abs(H), abs(A), abs(B))
        if 2 * A + slack < H + abs(B):
            raise FrameConstraintViolated(f"2A >= H + |B| fails: H={H}, A={A}, |B|={abs(B)}")
        return H, A, B

    @property
    def einstein_constant(self) -> float:
        return self.H + self.A


class SurfaceMax(NamedTuple):
    """Maximum HSC of a Kähler-Einstein surface and whether it is negative."""

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
    """The Chern-Weil functions (gamma1, gamma2) at the point.  gamma2 sums
    products, which overflow to inf where ``**`` would raise; frame data that
    large raises ValueError, and gamma1 cannot overflow without it."""
    gamma1 = point.H + point.A
    gamma2 = 0.5 * (point.H * point.H + 2.0 * point.A * point.A + abs(point.B) * abs(point.B))
    if gamma2 == math.inf:  # not math.isinf, which rejects the sympy symbols tests/test_symbolic.py passes
        raise ValueError(f"frame data too large: gamma2 overflows at H={point.H}, A={point.A}, B={point.B}")
    return gamma1, gamma2


def sufficient_negativity(point: EinsteinFramePoint) -> bool:
    """Sufficient test for everywhere-negative HSC: gamma2 < gamma1^2.

    Only meaningful in the negative-Einstein regime; raises RegimeViolation
    when the Einstein constant gamma1 is non-negative.  The test is
    sufficient, not necessary: False does not certify a sign.  That it is
    sufficient, and sharp at (H, A, |B|) = (-1, 0, 1), is proved in
    ``tests/test_symbolic.py``.
    """
    gamma1, gamma2 = chern_weil(point)
    if gamma1 >= 0.0:
        raise RegimeViolation(
            f"sufficiency test requires a negative Einstein constant, got gamma1={gamma1}"
        )
    return gamma2 < gamma1 * gamma1  # an overflowing gamma1^2 is inf, above every finite gamma2
