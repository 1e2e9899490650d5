"""Settings the CLI parser reads for every command, and the checked-record
rule, kept free of numpy.

``curvature`` re-exports ``SYMMETRY_TOL``, ``extremize`` ``ExtremizeConfig``
and ``rootsys`` ``FAMILIES``, which is where they are public, and
``geography`` reads ``_C2_BOUND``; they live here so that building the parser
loads none of those modules, and a command loads only the ones it runs.
Every record of the package is a ``NamedTuple``, and no module imports
``dataclasses``.  ``_checked`` makes a ``NamedTuple`` run its ``_check``
whenever a record is built, and ``_is_int`` is the integer rule of those
checks; the checked records of ``rootsys``, ``cspace``, ``geography`` and
``surface`` take them from here, ``curvature``'s ``Direction`` takes
``_checked``, and ``_wire``, the numpy-free reader of tensor JSON, reads its
integers with ``_is_int``.
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


def _is_int(value) -> bool:
    """The integer rule of every checked integer field: an ``int``, and not a ``bool``."""
    return isinstance(value, int) and not isinstance(value, bool)


def _checked(cls):
    """A ``NamedTuple`` that checks itself when built, ``_replace``d or unpickled.

    The constructor takes the declared fields and defaults, builds the
    record and hands it to ``cls._check``, which raises or returns the field
    values to store (``self`` to keep them).  A NamedTuple body cannot define
    ``__new__``, so this sets one on the class, and points ``_make`` (which
    ``_replace`` calls) at it.  It is written out for the fields, as
    ``namedtuple`` writes its own, so that building a record costs no second
    Python call forwarding ``*args, **kwargs``.
    """
    fields = ", ".join(cls._fields)
    scope = {"_check": cls._check, "_new": tuple.__new__, "__name__": cls.__module__}
    exec(f"def __new__(_cls, {fields}):\n"
         f"    _record = _new(_cls, ({fields},))\n"
         "    _values = _check(_record)\n"
         "    return _record if _values is _record else _new(_cls, _values)", scope)
    __new__ = scope["__new__"]
    __new__.__defaults__, __new__.__qualname__ = cls.__new__.__defaults__, f"{cls.__name__}.__new__"
    cls.__new__ = __new__
    cls._make = classmethod(lambda cls, iterable: __new__(cls, *iterable))
    return cls


@_checked
class ExtremizeConfig(NamedTuple):
    """Starts, seed and oracle samples of ``extremize_hsc``; each ascent stops at ``extremize._MAX_ITERS`` = 500."""

    starts: int = 32
    seed: int = 0
    oracle_samples: int = 0

    def _check(self):
        bounds = ((1, _MAX_STARTS), (0, float("inf")), (0, _MAX_ORACLE_SAMPLES))
        for name, value, (low, high) in zip(self._fields, self, bounds):
            if not _is_int(value):
                raise ValueError(f"{name} must be an integer")
            if value < low:
                raise ValueError(f"{name} must be >= {low}")
            if value > high:
                raise ValueError(f"{name} must be <= {high}")
        return self
