"""hsckit: holomorphic sectional curvature toolkit.

Three computation surfaces:

* root systems and the marked-node positivity criterion for homogeneous
  Kähler-Einstein metrics (``rootsys``, ``cspace``),
* the distinguished-frame closed forms at a Kähler-Einstein surface point
  (``surface``), pointwise Kähler curvature tensors and numerical HSC
  extremization (``curvature``, ``extremize``),
* Chern-number geography of surfaces of general type against the bound
  ``c2 <= 3 c1^2`` (``geography``).

All values are immutable after construction and all operations are pure
functions, safe for concurrent use.

``import hsckit`` loads none of these modules.  Each public name imports its
module on first use, so only the numeric ones (``curvature``,
``extremize``) load numpy.  ``hsckit.cli`` finds the same names by the same
lookup.
"""

from importlib import import_module

__version__ = "0.1.0"

# numpy-free modules first, so that looking up one of their names loads no numpy
_MODULES = ("errors", "rootsys", "cspace", "geography", "surface", "curvature", "extremize")
_HOMES: dict = {}  # public name -> the submodule listing it, for the modules imported so far


def __getattr__(name: str):
    """A submodule, or a public name from the submodule that lists it in
    ``__all__`` (PEP 562).  Values are read from the submodule on every
    lookup, so a name rebound in its module is rebound in the package too."""
    if name in _MODULES:
        return import_module(f"{__name__}.{name}")
    if name == "__all__":
        return [n for short in _MODULES for n in import_module(f"{__name__}.{short}").__all__]
    if name not in _HOMES and not name.startswith("_"):  # probes such as __wrapped__ load nothing
        for short in _MODULES:
            module = import_module(f"{__name__}.{short}")
            _HOMES.update(dict.fromkeys(module.__all__, module))
            if name in _HOMES:
                break
    if name in _HOMES:
        return getattr(_HOMES[name], name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
