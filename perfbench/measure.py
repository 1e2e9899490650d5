"""The closed loop, latency statistics and the determinism guard.

One caller sends the next operation only after the previous one completes.
An operation's latency is the wall time of the call into the program; the
benchmark's own correctness checks run after it and are not timed.
"""

from __future__ import annotations

import math
import statistics
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from tracing import Tracer

# Median time of ``reference_kernel`` on the 2-vCPU Xeon VM the benchmark
# was written on, when that machine was quiet.
REFERENCE_SECONDS = 0.0042
_REF_TENSOR = np.linspace(0.0, 1.0, 16).reshape(2, 2, 2, 2) + 0j
_REF_VECTOR = np.array([0.6, 0.8j])
WINDOW = 2  # reference times on either side of an op that calibrate it
TAIL_BEYOND = 10  # ops that must lie above the tail latency
CAP = 3  # a run stops at CAP times its seconds, whatever it has left


@dataclass
class OpRecord:
    index: int
    latency_s: float
    ok: bool
    error: float = 0.0
    counts: dict = field(default_factory=dict)
    detail: str = ""
    output: object = None
    reference_s: float = 0.0


def reference_kernel() -> float:
    """Seconds taken by a fixed mix of interpreted arithmetic, small numpy
    contractions and numpy calls on 3-element arrays that touches no hsckit
    code: how fast the machine runs right now.  Its code never changes
    between the commits compared.

    Much of the in-process workloads' time is numpy's per-call overhead on
    small arrays, and on a shared VM that overhead slows more than plain
    interpreted arithmetic does.  Over a 20-minute trace in which
    a fixed ``surface-sweep`` op's median over 40-op stretches varied 2.3x,
    that op divided by the first two parts alone still varied 1.36x; with
    the small-array calls taking about 60% of the kernel, 1.17x.
    """
    start = time.perf_counter()
    total = 0
    for i in range(20_000):
        total += i * i % 7
    for _ in range(50):
        np.einsum("imkl,i,k,l->m", _REF_TENSOR, _REF_VECTOR, _REF_VECTOR, _REF_VECTOR.conj())
    for i in range(600):
        small = np.abs(np.array([1.0 + i, 2.0, 3.0]) - np.zeros(3)) ** 2
        float(small.sum())
        np.sqrt(small)
    return time.perf_counter() - start


def calibrated(seconds: list[float], references: list[float]) -> list[float]:
    """Each time rescaled to the reference machine speed.

    A time is multiplied by ``REFERENCE_SECONDS`` over the median reference
    time measured around it (``WINDOW`` measurements on either side), so a
    slow spell of a shared machine scales the reference and the work alike.
    """
    out = []
    for i, value in enumerate(seconds):
        nearby = references[max(0, i - WINDOW): i + WINDOW + 1]
        out.append(value * REFERENCE_SECONDS / statistics.median(nearby))
    return out


def tail(latencies: list[float]) -> tuple[int, float, int]:
    """Latency at the highest whole percentile with at least ``TAIL_BEYOND``
    samples above it, by the nearest-rank rule.

    Returns ``(percentile, value, samples)``.  With fewer than
    ``2 * TAIL_BEYOND`` samples that percentile would lie below the median,
    and the median stands in (percentile 50).
    """
    ordered = sorted(latencies)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    if n < 2 * TAIL_BEYOND:
        return 50, statistics.median(ordered), n
    pct = (100 * (n - TAIL_BEYOND)) // n
    rank = max(1, math.ceil(pct * n / 100))
    return pct, ordered[rank - 1], n


def run_op(workload, inp, index: int, tracer: Tracer | None = None) -> OpRecord:
    """One timed call into the program, then its untimed checks.

    An exception from the program, or from a check, fails the operation.
    """
    span = None
    if tracer is not None:
        tracer.op_id = index
        span = tracer.open("bench.op")
    start = time.perf_counter()
    try:
        out = workload.run(inp)
    except Exception:  # the program's failure is recorded, not raised
        latency = time.perf_counter() - start
        if span is not None:
            tracer.close(span)
        return OpRecord(index, latency, False, detail=traceback.format_exc(limit=3))
    latency = time.perf_counter() - start
    if span is not None:
        tracer.close(span)
        workload.adopt(out, tracer, span[0])
    try:
        ok, error, counts, detail = workload.check(inp, out)
    except Exception:
        return OpRecord(index, latency, False, detail=traceback.format_exc(limit=3))
    return OpRecord(index, latency, ok, error, counts, detail, out)


def closed_loop(workload, seed: int, seconds: float, step=None) -> list[OpRecord]:
    """Ops 0 .. ``workload.ops(seconds)`` - 1, one after another.

    The number of ops depends on ``seconds`` and on the workload, never on
    how fast the program runs, so every commit measures the same inputs and
    the tail takes the same rank.  A run that takes ``CAP`` times
    ``seconds`` stops where it is.  ``step(input, index)`` runs one op and
    returns its record; by default it is ``run_op``.
    """
    if step is None:
        step = lambda inp, index: run_op(workload, inp, index)  # noqa: E731
    records: list[OpRecord] = []
    start = time.perf_counter()
    for index in range(workload.ops(seconds)):
        if time.perf_counter() - start >= CAP * seconds:
            break
        reference = reference_kernel()
        records.append(step(workload.make_input(seed, index), index))
        records[-1].reference_s = reference
    return records


def replay(workload, seed: int, count: int) -> list[OpRecord]:
    """Ops 0 .. count-1 again, with the same inputs."""
    return [run_op(workload, workload.make_input(seed, i), i) for i in range(count)]


def guard(first: list[OpRecord], second: list[OpRecord]) -> list[str]:
    """Exact counts of the same ops must match between two executions."""
    mismatches = []
    for a, b in zip(first, second):
        if a.counts != b.counts:
            mismatches.append(f"op {a.index}: {a.counts} != {b.counts}")
    return mismatches
