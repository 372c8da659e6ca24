"""Single-sort wrapper-curve kernel: a core's whole staircase in one sweep.

:func:`wrapper_curve` computes everything the schedulers ask about a core's
wrapper -- the testing-time staircase ``T(1..max_width)`` (Figure 1), the
scan-in/scan-out lengths behind each point and the Pareto-optimal widths --
in one incremental sweep over the TAM widths.  The lengths are bit-identical
to running :func:`repro.wrapper.design_wrapper.design_wrapper` (the
executable reference; ``tests/test_wrapper_curve.py`` pins the kernel to it)
at every width, with at most one sort per width.

The one-cell-at-a-time best-fit loop of
:func:`repro.wrapper.partition._distribute` is water filling: an ascending
*pool* of chains rises to a common level ``L`` and the remainder goes one
cell each to the pool chains the heap's tie-break would pick.  So:

* below the internal chain count ``n``, LPT runs on a heap of packed
  ``(load << shift) | index`` ints, sorted once; that order is the input
  fill's pool and tie-break and the output fill's pool;
* without bidir cells the longest chain is closed form (``L``, plus 1 on a
  remainder, or the longest chain outside the pool), and saturated widths
  ``w >= n`` cost O(1) amortised: ``w - n`` empty bins then the ascending
  chains give ``divmod(cells + P_j, w - n + j)`` for a pool of the ``j``
  shortest chains (prefix sum ``P_j``), and ``j`` only falls as ``w`` grows;
* with bidir cells, per-chain vectors are kept and ordered by packed-int
  sorts: the bidir key does not fix a chain's state, so index ties matter.

NumPy is not used: importing it adds about 12 MiB of resident memory, and
a curve is only ``max_width`` entries long.

Curves are memoised per process in a *growing* per-core cache: asking for a
wider curve extends the stored arrays instead of recomputing the prefix,
and narrower requests are served as views.  The cache is unbounded (curve
data is a few hundred integers per core) -- :func:`clear_curve_cache` drops
it for benchmarks that need a cold start.
"""

from __future__ import annotations

from array import array
from bisect import bisect_right
from dataclasses import dataclass
from heapq import heapreplace
from itertools import accumulate
from operator import add
from typing import Dict, Iterator, List, Optional, Sequence, Tuple, Union

from repro.soc.core import Core

DEFAULT_MAX_WIDTH = 64


@dataclass(frozen=True)
class ParetoPoint:
    """A Pareto-optimal (TAM width, testing time) pair for one core."""

    width: int
    time: int

    @property
    def area(self) -> int:
        """TAM-wire-cycles occupied by the core test at this point."""
        return self.width * self.time


# ----------------------------------------------------------------------
# Water filling: the one-cell-at-a-time distributor in closed form
# ----------------------------------------------------------------------
def _level(ordered: Sequence[int], count: int) -> Tuple[int, int, int]:
    """``(level, pool, extra)`` of water-filling ``count`` cells over ``ordered``.

    ``ordered`` holds ascending loads.  The first ``pool`` chains end at
    ``level`` (the others are above it) and ``extra`` of them get one more.
    """
    pool, total, size = 1, ordered[0], len(ordered)
    # Grow the pool while raising it to the next load fits the budget.
    while pool < size and ordered[pool] * pool - total <= count:
        total += ordered[pool]
        pool += 1
    level, extra = divmod(count + total, pool)
    return level, pool, extra


def _longest(ordered: Sequence[int], count: int) -> int:
    """Longest chain after water-filling ``count`` cells over ``ordered``."""
    level, _, extra = _level(ordered, count)
    return max(level + 1 if extra else level, ordered[-1])


def _saturated_longest(
    ascending: Sequence[int], prefix: Sequence[int], zeros: int, pool: int, count: int
) -> Tuple[int, int]:
    """:func:`_longest` over ``zeros`` empty bins then the ascending chains.

    ``pool`` bounds the number of chains in the pool from above (pass the
    value returned at the previous, narrower width).  Returns
    ``(longest, pool)``.
    """
    while pool and ascending[pool - 1] * (zeros + pool) - prefix[pool] > count:
        pool -= 1
    level, extra = divmod(count + prefix[pool], zeros + pool)
    return max(level + 1 if extra else level, ascending[-1] if ascending else 0), pool


def _bidir_lengths(
    order: List[int], shift: int, inputs: int, outputs: int, bidirs: int
) -> Tuple[int, int]:
    """Longest scan-in/scan-out of one width's design, bidir cells included.

    ``order`` holds the internal loads as packed ``(load << shift) | index``
    ints in ascending order.  Emulates the three ``_distribute`` phases on
    per-chain vectors: input cells (key ``(si, so, i)``), output cells (key
    ``(so, si, i)``), then bidir cells (key ``(max(si, so), si + so, i)``,
    each cell lengthening both paths).
    """
    mask = (1 << shift) - 1
    loads = [packed >> shift for packed in order]
    chains = [packed & mask for packed in order]
    scan_in = [0] * len(order)
    for load, index in zip(loads, chains):
        scan_in[index] = load
    scan_out = list(scan_in)
    # Input pool and tie-break both follow ``order``: the secondary key is the load.
    level, pool, extra = _level(loads, inputs)
    for rank, index in enumerate(chains[:pool]):
        scan_in[index] = level + 1 if rank < extra else level
    level, pool, extra = _level(loads, outputs)
    for index in chains[:pool]:
        scan_out[index] = level
    if extra:
        ties = sorted((scan_in[index] << shift) | index for index in chains[:pool])
        for packed in ties[:extra]:
            scan_out[packed & mask] += 1
    maxima = sorted(
        (top << shift) | index for index, top in enumerate(map(max, scan_in, scan_out))
    )
    level, pool, extra = _level([packed >> shift for packed in maxima], bidirs)
    added = [0] * len(order)
    for packed in maxima[:pool]:
        added[packed & mask] = level - (packed >> shift)
    if extra:
        # A pool chain raised from ``m`` to ``level`` took ``level - m``
        # cells, so its sum key at the tie-break moment grew by twice that.
        ties = sorted(
            ((scan_in[index] + scan_out[index] + 2 * added[index]) << shift) | index
            for index in (packed & mask for packed in maxima[:pool])
        )
        for packed in ties[:extra]:
            added[packed & mask] += 1
    return max(map(add, scan_in, added)), max(map(add, scan_out, added))


# ----------------------------------------------------------------------
# The growing per-core curve store
# ----------------------------------------------------------------------
class _CurveData:
    """Arrays for one core, grown monotonically to the widest request seen.

    Index ``w - 1`` holds the value at TAM width ``w``.  ``raw_*`` arrays
    describe the BFD design with *exactly* ``w`` wrapper chains; ``times``
    / ``scan_in`` / ``scan_out`` describe the best design with *at most*
    ``w`` chains (what the non-increasing staircase is made of), and
    ``best_widths[w-1]`` records which chain count achieves it.
    """

    __slots__ = (
        "lengths",
        "patterns",
        "inputs",
        "outputs",
        "bidirs",
        "raw_times",
        "raw_scan_in",
        "raw_scan_out",
        "best_widths",
        "times",
        "scan_in",
        "scan_out",
        "pareto_widths",
    )

    def __init__(self, core: Core) -> None:
        self.lengths: Tuple[int, ...] = tuple(sorted(core.scan_chains, reverse=True))
        self.patterns = core.patterns
        self.inputs = core.inputs
        self.outputs = core.outputs
        self.bidirs = core.bidirs
        self.raw_times = array("q")
        self.raw_scan_in = array("q")
        self.raw_scan_out = array("q")
        self.best_widths = array("q")
        self.times = array("q")
        self.scan_in = array("q")
        self.scan_out = array("q")
        self.pareto_widths = array("q")

    def _raw_lengths(self, start: int, stop: int) -> Iterator[Tuple[int, int]]:
        """``(si, so)`` of the BFD design at each width ``start..stop``."""
        lengths = self.lengths
        chains = len(lengths)
        inputs, outputs, bidirs = self.inputs, self.outputs, self.bidirs
        # Bidir cores need each bin's index; the others only the multiset
        # of bin loads, which LPT's index tie-break does not change.
        shift = stop.bit_length() if bidirs else 0
        packed_lengths = [length << shift for length in lengths]
        # Bidir cores run LPT at every width; the others until saturation.
        lpt_stop = stop if bidirs else min(stop, chains - 1)
        for width in range(start, lpt_stop + 1):
            # LPT: each chain, longest first, onto the least-loaded bin.
            bins = list(range(width)) if bidirs else [0] * width
            for length in packed_lengths:
                heapreplace(bins, bins[0] + length)
            bins.sort()
            if bidirs:
                yield _bidir_lengths(bins, shift, inputs, outputs, bidirs)
            else:
                yield _longest(bins, inputs), _longest(bins, outputs)
        ascending = lengths[::-1]
        prefix = list(accumulate(ascending, initial=0))
        pool_in = pool_out = chains
        for width in range(max(start, lpt_stop + 1), stop + 1):
            zeros = width - chains
            si, pool_in = _saturated_longest(ascending, prefix, zeros, pool_in, inputs)
            so, pool_out = _saturated_longest(ascending, prefix, zeros, pool_out, outputs)
            yield si, so

    def extend(self, max_width: int) -> None:
        """Grow the arrays so widths ``1..max_width`` are all computed."""
        start = len(self.raw_times) + 1
        if max_width < start:
            return
        patterns = self.patterns
        for width, (si, so) in enumerate(self._raw_lengths(start, max_width), start):
            raw_time = (1 + (si if si > so else so)) * patterns + (so if si > so else si)
            self.raw_times.append(raw_time)
            self.raw_scan_in.append(si)
            self.raw_scan_out.append(so)
            if width == 1 or raw_time < self.times[-1]:
                # A strict improvement starts a new (Pareto-optimal) staircase step.
                self.pareto_widths.append(width)
                best = width
            else:
                best = self.best_widths[-1]
                raw_time, si, so = self.times[-1], self.scan_in[-1], self.scan_out[-1]
            self.best_widths.append(best)
            self.times.append(raw_time)
            self.scan_in.append(si)
            self.scan_out.append(so)


class WrapperCurve:
    """A core's complete wrapper staircase over TAM widths ``1..max_width``.

    Array-backed view over the per-core curve store: width-indexed testing
    times, scan-in/scan-out lengths (of the best design using at most that
    many wrapper chains) and the Pareto-optimal widths.  All lookups are
    O(1) or a binary search over the Pareto widths.
    """

    __slots__ = (
        "_core",
        "_max_width",
        "_data",
        "_pareto_count",
        "_times",
        "_pareto_points",
    )

    def __init__(self, core: Core, max_width: int, data: _CurveData) -> None:
        self._core = core
        self._max_width = max_width
        self._data = data
        self._pareto_count = bisect_right(data.pareto_widths, max_width)
        self._times: Optional[Tuple[int, ...]] = None
        self._pareto_points: Optional[Tuple[ParetoPoint, ...]] = None

    # -- identity ------------------------------------------------------
    @property
    def core(self) -> Core:
        """The core this curve describes."""
        return self._core

    @property
    def max_width(self) -> int:
        """The largest TAM width the curve covers."""
        return self._max_width

    # -- the staircase -------------------------------------------------
    @property
    def times(self) -> Tuple[int, ...]:
        """``(T(1), ..., T(max_width))`` -- the Figure 1 staircase."""
        if self._times is None:
            self._times = tuple(self._data.times[: self._max_width])
        return self._times

    def time(self, width: int) -> int:
        """Testing time with at most ``width`` wrapper chains (O(1))."""
        self._check_width(width)
        return self._data.times[width - 1]

    def raw_time(self, width: int) -> int:
        """Testing time of the BFD design with *exactly* ``width`` chains."""
        self._check_width(width)
        return self._data.raw_times[width - 1]

    def scan_lengths(self, width: int) -> Tuple[int, int]:
        """``(si, so)`` of the best design with at most ``width`` chains."""
        self._check_width(width)
        data = self._data
        return data.scan_in[width - 1], data.scan_out[width - 1]

    def raw_scan_lengths(self, width: int) -> Tuple[int, int]:
        """``(si, so)`` of the BFD design with *exactly* ``width`` chains."""
        self._check_width(width)
        data = self._data
        return data.raw_scan_in[width - 1], data.raw_scan_out[width - 1]

    def best_width(self, width: int) -> int:
        """The chain count ``w' <= width`` whose BFD design tests fastest."""
        self._check_width(width)
        return self._data.best_widths[width - 1]

    def preemption_overhead(self, width: int) -> int:
        """``si + so`` -- cycles added per preemption at ``width``."""
        scan_in, scan_out = self.scan_lengths(width)
        return scan_in + scan_out

    def _check_width(self, width: int) -> None:
        if not 1 <= width <= self._max_width:
            raise ValueError(
                f"width must be in 1..{self._max_width}, got {width}"
            )

    # -- Pareto structure ----------------------------------------------
    @property
    def pareto_widths(self) -> Sequence[int]:
        """The Pareto-optimal widths, ascending (width 1 always included)."""
        return self._data.pareto_widths[: self._pareto_count]

    def pareto_points(self) -> Tuple[ParetoPoint, ...]:
        """Pareto-optimal (width, time) points, in increasing width order.

        Materialised once per curve view and reused by every caller.
        """
        if self._pareto_points is None:
            times = self._data.times
            self._pareto_points = tuple(
                ParetoPoint(width=width, time=times[width - 1])
                for width in self.pareto_widths
            )
        return self._pareto_points

    @property
    def max_pareto_width(self) -> int:
        """The largest Pareto-optimal width (more wires buy nothing)."""
        return self._data.pareto_widths[self._pareto_count - 1]

    @property
    def min_time(self) -> int:
        """The smallest achievable testing time (at the max Pareto width)."""
        return self._data.times[self.max_pareto_width - 1]

    @property
    def min_area(self) -> int:
        """``min_w w * T(w)`` -- smallest TAM-wire-cycle footprint."""
        times = self._data.times
        return min(width * times[width - 1] for width in self.pareto_widths)

    def effective_width(self, width: int) -> int:
        """Largest Pareto-optimal width <= ``width`` (binary search)."""
        if width < 1:
            raise ValueError("width must be at least 1")
        widths = self._data.pareto_widths
        index = bisect_right(widths, width, 0, self._pareto_count)
        return widths[index - 1] if index else widths[0]

    def first_width_within(self, target: float) -> int:
        """Smallest width whose testing time is at most ``target``.

        Binary search over the non-increasing staircase; returns
        ``max_width`` when even the widest design misses the target.
        """
        times = self._data.times
        low, high = 1, self._max_width
        if times[high - 1] > target:
            return high
        while low < high:
            mid = (low + high) // 2
            if times[mid - 1] <= target:
                high = mid
            else:
                low = mid + 1
        return low


# ----------------------------------------------------------------------
# The per-process curve cache
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class CurveCacheInfo:
    """Statistics of the per-process wrapper-curve cache."""

    hits: int
    misses: int
    cores: int
    widths_computed: int

    @property
    def currsize(self) -> int:
        """Number of cached (core, max_width) views (lru_cache-compatible)."""
        return self.cores


# Fork-local by design: the per-process curve memo caches pure derived
# values (T(1..W) staircases are a function of the core alone), so each
# worker's private copy can only diverge in *coverage*, never in content;
# the executor pre-warms the hot pairs before forking.
_DATA: Dict[Core, _CurveData] = {}  # repro: fork-local
_VIEWS: Dict[Tuple[Core, int], WrapperCurve] = {}  # repro: fork-local
_HITS = 0  # repro: fork-local
_MISSES = 0  # repro: fork-local


def wrapper_curve(core: Core, max_width: int = DEFAULT_MAX_WIDTH) -> WrapperCurve:
    """The :class:`WrapperCurve` of ``core`` over widths ``1..max_width``.

    Memoised per process: per-core arrays grow to the widest request seen
    and narrower requests are served as views of the same arrays.
    """
    if max_width <= 0:
        raise ValueError("max_width must be positive")
    global _HITS, _MISSES
    key = (core, max_width)
    view = _VIEWS.get(key)
    if view is not None:
        _HITS += 1
        return view
    _MISSES += 1
    data = _DATA.get(core)
    if data is None:
        data = _CurveData(core)
        _DATA[core] = data
    data.extend(max_width)
    view = WrapperCurve(core, max_width, data)
    _VIEWS[key] = view
    return view


def curve_cache_info() -> CurveCacheInfo:
    """Hit/miss statistics of the per-process wrapper-curve cache."""
    return CurveCacheInfo(
        hits=_HITS,
        misses=_MISSES,
        cores=len(_DATA),
        widths_computed=sum(len(data.raw_times) for data in _DATA.values()),
    )


def clear_curve_cache() -> None:
    """Drop every memoised wrapper curve in this process (stats reset too)."""
    global _HITS, _MISSES
    _DATA.clear()
    _VIEWS.clear()
    _HITS = 0
    _MISSES = 0


# ----------------------------------------------------------------------
# Shared-memory export/import of the per-core tables
# ----------------------------------------------------------------------
#: The array fields of one per-core table, in export order.  The first
#: four are width-indexed over ``1..W`` (one entry per computed width);
#: the middle three share that indexing; ``pareto_widths`` is the
#: ascending subset of widths where the staircase steps down.
CURVE_TABLE_FIELDS: Tuple[str, ...] = (
    "raw_times",
    "raw_scan_in",
    "raw_scan_out",
    "best_widths",
    "times",
    "scan_in",
    "scan_out",
    "pareto_widths",
)


def export_curve_tables() -> List[Tuple[Core, Tuple["array[int]", ...]]]:
    """Snapshot every memoised per-core table, for shm publication.

    Each entry pairs a core with its arrays in :data:`CURVE_TABLE_FIELDS`
    order.  The arrays are the live cache arrays -- callers must copy
    (e.g. ``tobytes``) rather than retain them.
    """
    return [
        (core, tuple(getattr(data, name) for name in CURVE_TABLE_FIELDS))
        for core, data in _DATA.items()
    ]


def seed_curve_table(
    core: Core, fields: Sequence[Union[bytes, bytearray, memoryview]]
) -> bool:
    """Install one exported per-core table into this process's cache.

    ``fields`` holds one ``int64`` buffer per :data:`CURVE_TABLE_FIELDS`
    entry (any bytes-like object).  The buffers are *copied* into fresh
    growable arrays, so later wider requests extend them normally.
    Returns ``False`` without touching the cache when the core is already
    present (the local table may be wider) or the export is empty.
    """
    if len(fields) != len(CURVE_TABLE_FIELDS):
        raise ValueError(
            f"expected {len(CURVE_TABLE_FIELDS)} field buffers, got {len(fields)}"
        )
    if core in _DATA:
        return False
    data = _CurveData(core)
    for name, buffer in zip(CURVE_TABLE_FIELDS, fields):
        getattr(data, name).frombytes(buffer)
    widths = len(data.raw_times)
    if widths == 0:
        return False
    staircase = (data.best_widths, data.times, data.scan_in, data.scan_out)
    if any(len(field) != widths for field in (data.raw_scan_in, data.raw_scan_out, *staircase)):
        raise ValueError(f"inconsistent curve table for core {core!r}")
    _DATA[core] = data
    return True
