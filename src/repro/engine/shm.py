"""Zero-copy shared-memory payload plane for the flat executor.

Dispatching a decomposed ``best`` job used to pickle each grid-run task's
whole payload -- the scheduler config, the grid point, the constraint set
and (dominant on large SOCs) the per-core preferred-width vector -- through
the pool pipe, once per task.  This module moves the immutable per-plan and
per-universe state into :mod:`multiprocessing.shared_memory` segments that
are published once, so tasks shrink to a segment *name* plus indices:

* **Plan segments** (:func:`publish_plan`) hold one decomposed grid plan's
  shared run table: the pickled header (SOC key, width, constraints,
  scheduler config, the ``(run index, grid point)`` list) followed by the
  packed ``int64`` matrix of preferred-width vectors (one row per run).
  Workers attach by name (:func:`load_plan`, memoised per process with a
  small LRU) and read a task's vector as a slice of the mapped buffer --
  no object graph ever crosses the pipe again.
* **Universe segments** (:func:`publish_universe`) hold the SOC universe
  plus every warmed wrapper-curve table
  (:data:`repro.wrapper.curve.CURVE_TABLE_FIELDS`), packed the same way.
  ``fork`` pools inherit the parent's warm caches zero-copy already, so
  the executor publishes a universe only for ``spawn``/``forkserver``
  pools, whose initializer adopts it (:func:`adopt_universe`) instead of
  unpickling per-worker ``initargs``.

Lifecycle is guarded at both ends.  The parent wraps every published
segment in a :class:`ShmSegment`, whose ``close()`` runs close + unlink
exactly once and is backed by a :class:`weakref.finalize` so abandoned
segments are still reclaimed at garbage collection or interpreter exit.
Workers never unregister from the ``resource_tracker`` they share with
the parent (:func:`_attach_segment`) and cap their attach cache,
releasing evicted mappings.  The REP012 lint rule pins the other half of
the contract: every ``SharedMemory`` construction in the source tree must
be reachable from the lifecycle helpers in this module.
"""

from __future__ import annotations

import pickle
import struct
import sys
import weakref
from array import array
from collections import OrderedDict
from multiprocessing import shared_memory
from typing import TYPE_CHECKING, Any, Dict, List, Mapping, Optional, Sequence, Tuple

if TYPE_CHECKING:  # typing only: keep this module import-light at runtime
    from repro.core.grid_sweep import GridPoint, GridRun
    from repro.core.scheduler import SchedulerConfig
    from repro.soc.constraints import ConstraintSet
    from repro.soc.soc import Soc

#: Exceptions a publisher may raise when shared memory is unavailable or a
#: payload does not pickle; callers degrade to fat (pickled) payloads.
PUBLISH_ERRORS: Tuple[type, ...] = (
    OSError,
    PermissionError,
    ValueError,
    ImportError,
    pickle.PicklingError,
)

#: Little-endian length prefix of the pickled header region.
_LEN = struct.Struct("<Q")

#: Worker-side attach cache cap: segments beyond this are the oldest plans
#: of a long session, released (mapping closed) before a new attach.
_PLAN_CACHE_LIMIT = 8


# ----------------------------------------------------------------------
# Parent-side segment ownership
# ----------------------------------------------------------------------
def _release_segment(segment: shared_memory.SharedMemory) -> None:
    """Close and unlink one segment, tolerating an already-unlinked name."""
    try:
        segment.close()
    except BufferError:  # pragma: no cover - exported view still alive
        pass
    try:
        segment.unlink()
    except FileNotFoundError:
        pass


class ShmSegment:
    """Parent-side owner of one published segment.

    ``close()`` runs close + unlink exactly once (idempotent); a
    :class:`weakref.finalize` guarantees the same cleanup when the owner
    is garbage-collected or the interpreter exits, so no segment outlives
    the process that published it.
    """

    __slots__ = ("name", "size", "_finalizer", "__weakref__")

    def __init__(self, segment: shared_memory.SharedMemory) -> None:
        self.name = segment.name
        self.size = segment.size
        self._finalizer = weakref.finalize(self, _release_segment, segment)

    @property
    def alive(self) -> bool:
        """Whether the segment is still published (close not yet run)."""
        return self._finalizer.alive

    def close(self) -> None:
        """Close and unlink the segment (safe to call more than once)."""
        self._finalizer()


def _create_segment(payload: bytes) -> shared_memory.SharedMemory:
    """Create one segment holding ``payload`` (the only creation site)."""
    segment = shared_memory.SharedMemory(create=True, size=max(1, len(payload)))
    segment.buf[: len(payload)] = payload
    return segment


def _attach_segment(name: str) -> shared_memory.SharedMemory:
    """Attach to a published segment by name (worker side).

    Workers share the parent's ``resource_tracker`` (the executor starts it
    before forking), and the parent owns the tracker entry and the unlink:
    a worker unregister would drop the parent's entry and make its unlink
    log a ``KeyError``.  CPython 3.13+ attaches untracked; older versions
    re-register the name, a no-op in the tracker's set of names.
    """
    if sys.version_info >= (3, 13):
        return shared_memory.SharedMemory(name=name, track=False)
    return shared_memory.SharedMemory(name=name)


# ----------------------------------------------------------------------
# Packing: [8B header length][pickled header, zero-padded to 8B][int64 data]
# ----------------------------------------------------------------------
def _publish(header: Any, values: "array[int]") -> ShmSegment:
    blob = pickle.dumps(header, protocol=pickle.HIGHEST_PROTOCOL)
    pad = (-(_LEN.size + len(blob))) % 8  # align the int64 region
    payload = b"".join(
        (_LEN.pack(len(blob) + pad), blob, b"\0" * pad, values.tobytes())
    )
    return ShmSegment(_create_segment(payload))


def _unpack(buf: memoryview) -> Tuple[Any, memoryview]:
    """``(header, int64-aligned data view)`` of one packed segment buffer.

    The data view may extend past the published values (shared memory
    rounds sizes up to a page); readers slice by the lengths recorded in
    the header and never see the zero tail.
    """
    (header_len,) = _LEN.unpack_from(buf, 0)
    header = pickle.loads(bytes(buf[_LEN.size : _LEN.size + header_len]))
    return header, buf[_LEN.size + header_len :]


# ----------------------------------------------------------------------
# Plan segments: one decomposed grid plan's shared run table
# ----------------------------------------------------------------------
def publish_plan(
    soc_key: str,
    width: int,
    constraints: Optional["ConstraintSet"],
    config: "SchedulerConfig",
    runs: Sequence["GridRun"],
) -> ShmSegment:
    """Publish one grid plan's run table; tasks then carry only indices.

    The header pickles the per-plan invariants once (SOC key, width,
    constraints, config, the ``(run index, grid point)`` list); the data
    region is the row-major ``int64`` matrix of preferred-width vectors.
    """
    cores = len(runs[0].preferred_widths) if runs else 0
    vectors = array("q")
    table: List[Tuple[int, "GridPoint"]] = []
    for run in runs:
        if len(run.preferred_widths) != cores:
            raise ValueError("grid runs disagree on vector length")
        table.append((run.index, run.point))
        vectors.extend(run.preferred_widths)
    header = {
        "kind": "plan",
        "soc": soc_key,
        "width": int(width),
        "constraints": constraints,
        "config": config,
        "runs": table,
        "cores": cores,
    }
    return _publish(header, vectors)


class PlanPayload:
    """A worker's view of one published plan segment.

    Holds the attached segment and its mapped buffer for as long as the
    payload is cached; :meth:`release` drops the views and closes the
    mapping (the parent keeps the unlink).
    """

    __slots__ = ("soc", "width", "constraints", "config", "_points", "_rows",
                 "_cores", "_segment", "_views", "_data")

    def __init__(
        self, segment: shared_memory.SharedMemory, header: Mapping[str, Any],
        views: Tuple[memoryview, ...], data: memoryview,
    ) -> None:
        self.soc: str = header["soc"]
        self.width: int = header["width"]
        self.constraints: Optional["ConstraintSet"] = header["constraints"]
        self.config: "SchedulerConfig" = header["config"]
        self._points: Dict[int, "GridPoint"] = {
            index: point for index, point in header["runs"]
        }
        self._rows: Dict[int, int] = {
            index: row for row, (index, _) in enumerate(header["runs"])
        }
        self._cores: int = header["cores"]
        self._segment = segment
        self._views = views
        self._data = data  # int64-cast view over the vector matrix

    def run(self, run_index: int) -> Tuple["GridPoint", Tuple[int, ...]]:
        """The ``(grid point, preferred-width vector)`` of one run."""
        row = self._rows[run_index]
        start = row * self._cores
        return self._points[run_index], tuple(self._data[start : start + self._cores])

    def release(self) -> None:
        """Release the mapped views and close this process's attachment."""
        for view in (self._data, *reversed(self._views)):
            try:
                view.release()
            except BufferError:  # pragma: no cover - double release
                pass
        try:
            self._segment.close()
        except BufferError:  # pragma: no cover - stray exported view
            pass


# Worker-side attach cache.  Fork-local by design: each worker memoises the
# plan segments it has mapped; entries are pure views of parent-published
# immutable data, so divergence across workers is coverage, never content.
_PLANS: "OrderedDict[str, PlanPayload]" = OrderedDict()  # repro: fork-local
_PLAN_HITS = 0  # repro: fork-local
_PLAN_MISSES = 0  # repro: fork-local


def load_plan(name: str) -> PlanPayload:
    """The memoised :class:`PlanPayload` of one published plan segment."""
    global _PLAN_HITS, _PLAN_MISSES
    payload = _PLANS.get(name)
    if payload is not None:
        _PLAN_HITS += 1
        _PLANS.move_to_end(name)
        return payload
    _PLAN_MISSES += 1
    while len(_PLANS) >= _PLAN_CACHE_LIMIT:
        _, stale = _PLANS.popitem(last=False)
        stale.release()
    segment = _attach_segment(name)
    view = memoryview(segment.buf)
    header, data = _unpack(view)
    payload = PlanPayload(segment, header, (view, data), data.cast("q"))
    _PLANS[name] = payload
    return payload


def release_worker_segments() -> None:
    """Release every plan segment this process has attached (idempotent)."""
    while _PLANS:
        _, payload = _PLANS.popitem(last=False)
        payload.release()


def plan_cache_info() -> Tuple[int, int, int]:
    """``(hits, misses, entries)`` of this process's plan-attach cache."""
    return _PLAN_HITS, _PLAN_MISSES, len(_PLANS)


# ----------------------------------------------------------------------
# Universe segments: the SOC dict plus warmed wrapper-curve tables
# ----------------------------------------------------------------------
def publish_universe(socs: Mapping[str, "Soc"]) -> ShmSegment:
    """Publish the SOC universe and its warmed wrapper-curve tables.

    Only the cores of ``socs`` are exported (the parent's curve cache may
    also hold unrelated cores); cores whose curves were never built ship
    without a table and are computed on demand in the worker.
    """
    from repro.wrapper.curve import export_curve_tables

    universe_cores = {core for soc in socs.values() for core in soc.cores}
    entries: List[Tuple[Any, Tuple[int, ...]]] = []
    values = array("q")
    for core, fields in export_curve_tables():
        if core not in universe_cores:
            continue
        entries.append((core, tuple(len(field) for field in fields)))
        for field in fields:
            values.extend(field)
    header = {"kind": "universe", "socs": dict(socs), "curves": entries}
    return _publish(header, values)


def _seed_curves(header: Mapping[str, Any], data: memoryview) -> int:
    """Copy each exported curve table into this process's curve cache."""
    from repro.wrapper.curve import seed_curve_table

    seeded = 0
    offset = 0  # int64 units
    for core, lengths in header["curves"]:
        fields = []
        for length in lengths:
            fields.append(data[offset * 8 : (offset + length) * 8])
            offset += length
        if seed_curve_table(core, fields):
            seeded += 1
    return seeded


def adopt_universe(name: str) -> Dict[str, "Soc"]:
    """Attach a universe segment, seed local caches, and detach.

    Returns the SOC universe.  The curve tables are *copied* into the
    per-process cache (they must stay growable for wider requests), so
    the attachment is closed before returning -- the worker holds no
    mapping afterwards and the parent's unlink is never blocked.
    """
    segment = _attach_segment(name)
    try:
        view = memoryview(segment.buf)
        try:
            header, data = _unpack(view)
            try:
                _seed_curves(header, data)
                return dict(header["socs"])
            finally:
                data.release()
        finally:
            view.release()
    finally:
        segment.close()
