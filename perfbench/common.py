"""Shared pieces of the repo benchmark: statistics, spans and process counters.

Everything here measures from *outside* the program: the workloads call
public functions of :mod:`repro` and time them with ``perf_counter``.
Nothing in ``src/`` is patched or wrapped.
"""

from __future__ import annotations

import gc
import itertools
import json
import math
import os
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

#: Spans of one operation must cover at least this share of its root span.
#: The gaps are the benchmark's own bookkeeping between timed calls.
COVERAGE_TOLERANCE = 0.05

#: The highest percentile the tail metrics report; lower when a run has too
#: few samples to leave ten beyond it.
TAIL_QUANTILE = 0.99

#: Samples that must lie beyond a reported tail percentile.
TAIL_BEYOND = 10


def median(values: Sequence[float]) -> float:
    """Median of a non-empty sequence."""
    return float(statistics.median(values))


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, quantile, samples)`` of the highest reportable percentile.

    The percentile is ``TAIL_QUANTILE`` when at least ``TAIL_BEYOND``
    samples lie beyond it, else the highest nearest-rank percentile that
    still leaves ``TAIL_BEYOND`` samples beyond it, and the median when
    there are too few samples for even that.
    """
    ordered = sorted(values)
    count = len(ordered)
    if count == 0:
        raise ValueError("tail() of an empty sample")
    quantile = min(TAIL_QUANTILE, (count - TAIL_BEYOND) / count)
    if quantile <= 0.5:
        return median(ordered), 0.5, count
    return float(ordered[math.ceil(quantile * count) - 1]), quantile, count


def median_rate(amounts: Sequence[float], seconds: Sequence[float], group: int = 1) -> float:
    """Median over consecutive groups of ``group`` operations of amount per second.

    Closed loops report throughput this way rather than as one total over
    the run, so a few seconds of slowdown on a shared host move it less.
    A trailing partial group is dropped unless it is the only one.
    """
    whole = len(seconds) - len(seconds) % group or len(seconds)
    step = group if whole >= group else whole
    rates = [
        sum(amounts[start : start + step]) / sum(seconds[start : start + step])
        for start in range(0, whole, step)
    ]
    return median(rates)


def share(part: float, whole: float) -> float:
    """``part / whole``, 0.0 for an empty whole."""
    return float(part) / whole if whole else 0.0


def peak_rss_mb() -> float:
    """Peak resident set size of this process in MiB (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def shm_segments() -> set:
    """Names of the multiprocessing shared-memory segments present now."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
@dataclass
class Span:
    """One timed interval: a call into a layer, or a whole operation."""

    span_id: int
    name: str
    start: float
    end: float
    parent: Optional[int] = None
    request: str = ""
    counts: Dict[str, Any] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def to_dict(self) -> Dict[str, Any]:
        return {
            "id": self.span_id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "request": self.request,
            "counts": dict(self.counts),
        }


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing.

    Spans are recorded after the fact from timestamps the caller already
    took, so a traced call costs two ``perf_counter`` reads plus one list
    append.  Thread-safe: serve-mix records from supervisor threads.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def add(
        self,
        name: str,
        start: float,
        end: float,
        parent: Optional[int] = None,
        request: str = "",
        **counts: Any,
    ) -> Optional[int]:
        """Record a finished span; returns its id (``None`` when disabled)."""
        if not self.enabled:
            return None
        with self._lock:
            span_id = next(self._ids)
            self.spans.append(Span(span_id, name, start, end, parent, request, counts))
        return span_id

    def roots(self) -> List[Span]:
        return [span for span in self.spans if span.parent is None]

    def children(self) -> Dict[int, List[Span]]:
        grouped: Dict[int, List[Span]] = {}
        for span in self.spans:
            if span.parent is not None:
                grouped.setdefault(span.parent, []).append(span)
        return grouped

    def coverage(self) -> List[float]:
        """Per root span: the share of its wall time its children cover."""
        grouped = self.children()
        shares = []
        for root in self.roots():
            covered = _union_length(
                (max(child.start, root.start), min(child.end, root.end))
                for child in grouped.get(root.span_id, ())
            )
            shares.append(share(covered, root.seconds) if root.seconds > 0 else 1.0)
        return shares

    def write(self, path: str) -> None:
        """Write every span as one JSON document (called once, at the end)."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(
                {
                    "coverage_tolerance": COVERAGE_TOLERANCE,
                    "spans": [span.to_dict() for span in self.spans],
                },
                handle,
            )
            handle.write("\n")


def _union_length(intervals: Iterable[Tuple[float, float]]) -> float:
    total = 0.0
    current_start: Optional[float] = None
    current_end = 0.0
    for start, end in sorted(interval for interval in intervals if interval[1] > interval[0]):
        if current_start is None or start > current_end:
            if current_start is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        else:
            current_end = max(current_end, end)
    if current_start is not None:
        total += current_end - current_start
    return total


def span_cost_seconds(samples: int = 20000) -> float:
    """Measured cost of recording one span, for ``tracing.overhead_share``."""
    tracer = Tracer(enabled=True)
    started = time.perf_counter()
    for _ in range(samples):
        begin = time.perf_counter()
        tracer.add("calibration", begin, time.perf_counter(), parent=1, request="r")
    return (time.perf_counter() - started) / samples


class Budget:
    """When a closed loop stops.

    Untraced runs count only the timed operations toward ``seconds``, so
    the output checks between operations do not shorten the measurement;
    traced runs count wall time, so their extra layer timings do not
    stretch the run.
    """

    def __init__(self, seconds: float, traced: bool) -> None:
        self.seconds = seconds
        self.traced = traced
        self.started = time.perf_counter()

    def left(self, op_seconds: Sequence[float]) -> bool:
        spent = time.perf_counter() - self.started if self.traced else sum(op_seconds)
        return spent < self.seconds


def freeze_inputs() -> None:
    """Move every object alive now out of the collector's view.

    Called once a workload's inputs exist.  A real client keeps its inputs
    in its own process; holding them here must not lengthen the program's
    garbage collections.  Program state created later is collected as usual.
    """
    gc.collect()
    gc.freeze()


class GcPauses:
    """Garbage-collector pauses of this process, seen through ``gc.callbacks``.

    A collection holds the interpreter lock, so a long full collection
    stalls every request in flight.
    """

    def __init__(self) -> None:
        self.pauses: Dict[int, List[float]] = {0: [], 1: [], 2: []}
        self._started = 0.0

    def __enter__(self) -> "GcPauses":
        gc.callbacks.append(self._callback)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        gc.callbacks.remove(self._callback)

    def _callback(self, phase: str, info: Dict[str, int]) -> None:
        if phase == "start":
            self._started = time.perf_counter()
        else:
            self.pauses[info["generation"]].append(time.perf_counter() - self._started)

    def metrics(self) -> Dict[str, float]:
        every = [pause for pauses in self.pauses.values() for pause in pauses]
        return {
            "gc.full_collections": float(len(self.pauses[2])),
            "gc.pause_max_s": max(every, default=0.0),
            "gc.pause_total_s": sum(every),
        }


def host_calibration_seconds() -> float:
    """Wall time of a fixed pure-Python loop: how fast the host runs right now.

    Not a property of the program.  On a shared host it drifts by tens of
    percent between minutes, so it lets a reader tell host drift from a
    change in the program.
    """
    started = time.perf_counter()
    total = 0
    for value in range(1_000_000):
        total += value * value % 7
    return time.perf_counter() - started


class GateFailure(AssertionError):
    """An output check failed: the run reports no metrics."""
