"""Settings the CLI parser reads for every command, kept free of numpy and
``dataclasses``.

``curvature`` re-exports ``SYMMETRY_TOL``, ``extremize`` ``ExtremizeConfig``
and ``rootsys`` ``FAMILIES``, which is where they are public, and
``geography`` reads ``_C2_BOUND``; they live here so that building the parser
loads none of those modules, and a command loads only the ones it runs.
"""

from __future__ import annotations

from typing import NamedTuple

SYMMETRY_TOL = 1e-9
FAMILIES = ("A", "B", "C", "D", "E", "F", "G")
_C2_BOUND = 3  # the Chern bound c2 <= 3 c1^2 of the ``geography`` docstring
# 4,096 starts ascend as 8,192 rows, one per sign; a whole ``extremize_hsc`` call
# peaks at 100.46 MiB at n = 32 and at 42.6 MiB at n = 6, where the Newton
# systems add 25.7 MiB (tracemalloc)
_MAX_STARTS = 4096
_MAX_ORACLE_SAMPLES = 1 << 24  # 16,384 kernel blocks: about 16 s at n = 6


# a NamedTuple body cannot define __new__, so the checks live in a subclass
class _ExtremizeFields(NamedTuple):
    starts: int = 32
    seed: int = 0
    oracle_samples: int = 0


class ExtremizeConfig(_ExtremizeFields):
    """Starts, seed and oracle samples of ``extremize_hsc``; each ascent stops at ``extremize._MAX_ITERS`` = 500."""

    __slots__ = ()

    def __new__(cls, starts=32, seed=0, oracle_samples=0):
        if starts < 1:
            raise ValueError("starts must be >= 1")
        if starts > _MAX_STARTS:
            raise ValueError(f"starts must be <= {_MAX_STARTS}")
        if seed < 0:
            raise ValueError("seed must be >= 0")
        if oracle_samples < 0:
            raise ValueError("oracle_samples must be >= 0")
        if oracle_samples > _MAX_ORACLE_SAMPLES:
            raise ValueError(f"oracle_samples must be <= {_MAX_ORACLE_SAMPLES}")
        return super().__new__(cls, starts, seed, oracle_samples)

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make, so it checks too
        return cls(*iterable)
