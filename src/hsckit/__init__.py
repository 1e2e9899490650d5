"""hsckit: holomorphic sectional curvature toolkit.

Three computation surfaces:

* root systems and the marked-node positivity criterion for homogeneous
  Kähler-Einstein metrics (``rootsys``, ``cspace``),
* pointwise Kähler curvature tensors, distinguished-frame closed forms and
  numerical HSC extremization (``curvature``, ``extremize``),
* Chern-number geography of surfaces of general type against the bound
  ``c2 <= 3 c1^2`` (``geography``).

All values are immutable after construction and all operations are pure
functions, safe for concurrent use.
"""

__version__ = "0.1.0"

from . import cspace, curvature, errors, extremize, geography, rootsys
from .errors import *
from .rootsys import *
from .cspace import *
from .curvature import *
from .extremize import *
from .geography import *

__all__ = [name for module in (errors, rootsys, cspace, curvature, extremize, geography) for name in module.__all__]
