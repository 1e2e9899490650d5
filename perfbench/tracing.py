"""Spans recorded from outside the program, by rebinding module attributes.

The tracer replaces each public function of the hsckit modules with a
wrapper that records one span per call.  Every module attribute that is the
original function object is rebound, including the names ``hsckit`` and
``hsckit.cli`` re-import, so module-global lookups inside the library (for
example ``sample_hsc`` called from ``extremize_hsc``, or
``closure_from_cartan`` called from ``positive_roots``) reach the wrapper and
nested calls become child spans.  Private helpers are never wrapped: their
names are not stable across versions of the library.

A span is ``(span_id, parent_id, op_id, name, start, end, count)``.  Spans
stay in memory until the benchmark writes them out.  Times come from
``time.perf_counter``, which on Linux reads CLOCK_MONOTONIC, so spans
recorded in a child process line up with the parent's.
"""

from __future__ import annotations

import functools
import inspect
import time
from typing import Callable, Iterable

# modules whose public functions are traced, in layer order
MODULES = ("rootsys", "cspace", "curvature", "extremize", "geography", "cli")

# counts recorded on a span, read from the call's result: roots
# enumerated, verdicts produced
COUNTERS: dict[str, Callable[[object], int]] = {
    "rootsys.closure_from_cartan": len,
    "cspace.classify_all": len,
}


class Tracer:
    """In-memory span recorder.  ``op_id`` tags spans with the current op."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.op_id: int | None = None
        self._stack: list[int] = []

    def wrap(self, name: str, fn: Callable, count: Callable[[object], int] | None = None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            record = self.open(name)
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    record[6] = count(result)
                return result
            finally:
                self.close(record)

        return traced

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        record = [len(self.spans), parent, self.op_id, name, self.clock(), None, None]
        self.spans.append(record)
        self._stack.append(record[0])
        return record

    def close(self, record: list) -> None:
        record[5] = self.clock()
        popped = self._stack.pop()
        if popped != record[0]:
            raise RuntimeError(f"span {record[3]} closed out of order")

    def adopt(self, child_spans: Iterable[list], parent_id: int) -> None:
        """Append spans recorded elsewhere (a child process) under a parent."""
        offset = len(self.spans)
        for span_id, parent, _, name, start, end, count in child_spans:
            self.spans.append([
                span_id + offset,
                parent_id if parent is None else parent + offset,
                self.op_id, name, start, end, count,
            ])


def install(tracer: Tracer) -> Callable[[], None]:
    """Wrap every public hsckit function; returns a function that undoes it."""
    import importlib

    import hsckit

    modules = {short: importlib.import_module(f"hsckit.{short}") for short in MODULES}
    namespaces = [hsckit, *modules.values()]
    undo: list[tuple[object, str, object]] = []

    for short, module in modules.items():
        for attr in getattr(module, "__all__", ()):
            original = getattr(module, attr)
            if not inspect.isfunction(original) or original.__module__ != module.__name__:
                continue
            name = f"{short}.{attr}"
            wrapper = tracer.wrap(name, original, COUNTERS.get(name))
            for namespace in namespaces:
                for key, value in list(vars(namespace).items()):
                    if value is original:
                        undo.append((namespace, key, value))
                        setattr(namespace, key, wrapper)

    # the constructor canonicalizes its input; it is the one class traced
    cls = modules["curvature"].KahlerCurvatureTensor
    undo.append((cls, "__init__", cls.__init__))
    cls.__init__ = tracer.wrap("curvature.KahlerCurvatureTensor", cls.__init__)

    def uninstall() -> None:
        for namespace, key, value in reversed(undo):
            setattr(namespace, key, value)

    return uninstall


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span run one after another (a single thread), so the
    time they cover is the sum of their durations.
    """
    self_s = [end - start for _, _, _, _, start, end, _ in spans]
    for _, parent, _, _, start, end, _ in spans:
        if parent is not None:
            self_s[parent] -= end - start
    return self_s


def busy_times(spans: list[list]) -> dict[str, float]:
    """Wall time inside each span name, not counting a name twice when it
    nests inside itself."""
    names = [span[3] for span in spans]
    busy: dict[str, float] = {}
    for span_id, parent, _, name, start, end, _ in spans:
        ancestor = parent
        while ancestor is not None and names[ancestor] != name:
            ancestor = spans[ancestor][1]
        if ancestor is None:
            busy[name] = busy.get(name, 0.0) + (end - start)
    return busy


def summarize(spans: list[list]) -> dict[str, dict[str, float]]:
    """Per span name: calls, busy_s and self_s."""
    self_s = self_times(spans)
    busy = busy_times(spans)
    table: dict[str, dict[str, float]] = {}
    for span, own in zip(spans, self_s):
        row = table.setdefault(span[3], {"calls": 0, "busy_s": busy[span[3]], "self_s": 0.0})
        row["calls"] += 1
        row["self_s"] += own
    return table
