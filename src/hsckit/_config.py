"""Settings the CLI parser reads for every command, kept free of numpy.

``curvature`` re-exports ``SYMMETRY_TOL`` and ``extremize`` re-exports
``ExtremizeConfig``, which is where they are public; they live here so that
building the parser of a cspace, surface or geography command loads no
numeric code.
"""

from __future__ import annotations

from dataclasses import dataclass

SYMMETRY_TOL = 1e-9
# 4,096 starts ascend as 8,192 rows, one per sign; a whole ``extremize_hsc`` call
# peaks at 100.46 MiB at n = 32 and at 42.6 MiB at n = 6, where the Newton
# systems add 25.7 MiB (tracemalloc)
_MAX_STARTS = 4096
_MAX_ORACLE_SAMPLES = 1 << 24  # 16,384 kernel blocks: about 16 s at n = 6


@dataclass(frozen=True)
class ExtremizeConfig:
    """Starts, seed and oracle samples of ``extremize_hsc``; each ascent stops at ``extremize._MAX_ITERS`` = 500."""

    starts: int = 32
    seed: int = 0
    oracle_samples: int = 0

    def __post_init__(self):
        if self.starts < 1:
            raise ValueError("starts must be >= 1")
        if self.starts > _MAX_STARTS:
            raise ValueError(f"starts must be <= {_MAX_STARTS}")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.oracle_samples < 0:
            raise ValueError("oracle_samples must be >= 0")
        if self.oracle_samples > _MAX_ORACLE_SAMPLES:
            raise ValueError(f"oracle_samples must be <= {_MAX_ORACLE_SAMPLES}")
