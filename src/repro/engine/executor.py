"""Flattened shared-pool executor: one persistent work queue for every layer.

Before this module existed the repository had *two* pool layers that could
not compose: the sweep engine pooled over whole :class:`ScheduleJob`\\ s, and
the ``best`` solver's grid sweep pooled over its deduplicated scheduler
runs.  A ``best`` job executing inside a sweep worker hit multiprocessing's
daemonic-pool restriction and silently fell back to serial grid runs, so
the paper's most expensive experiments (Tables 1/2, Figure 9 -- all sweeps
of best-over-grid solves) never used more than one process per grid point.

:class:`FlatExecutor` replaces both layers with a single flat task queue:

* **Decomposition.**  :meth:`FlatExecutor.run_jobs` breaks every job into
  scheduler-run *tasks*.  A ``best`` job explodes into its deduplicated
  grid runs (reusing :func:`repro.core.grid_sweep.dedupe_grid` and the
  estimate-first ordering), any other solver stays one task.  Parallelism
  granularity is the individual scheduler run, so stragglers shrink and
  nested pools disappear -- workers never need a pool of their own.
* **Dispatch.**  Tasks flow through ``imap_unordered`` behind a sliding
  backpressure window, and results are reassembled deterministically by
  ``(job index, run key)``.  Cross-task incumbent makespans for the same
  ``best`` job feed later tasks of that job two ways: injected into the
  task at yield time, and (on fork pools) published on a shared lock-free
  *incumbent board* that workers re-read when a task actually starts, so
  pruning stays tight even for tasks dispatched early in large chunks.
  Incumbents only ever tighten monotonically towards the final winner --
  a stale (looser) limit can never abort the winner -- so the selected
  schedule, winner grid point and statistics are bit-identical for every
  worker count.
* **Persistence.**  The pool outlives one call: it is created lazily,
  keyed on the *SOC universe* of the :class:`~repro.engine.jobs.EngineContext`
  (constraint sets are small and travel inside tasks, so a Table 1 sweep,
  a Table 2 sweep and a direct ``best`` solve over the same SOC all share
  one pool) plus the worker count and warmed cache pairs, and reused by
  subsequent ``run_jobs`` / ``Session.solve`` calls, keeping the workers'
  warm wrapper-curve and rectangle caches.  A SOC-universe change
  refreshes the pool (cheap under ``fork``: the parent's caches -- warmed
  *before* the fork -- are inherited); :meth:`FlatExecutor.close` tears it
  down explicitly and an ``atexit`` hook closes the process-wide default
  executor.

* **Supervision.**  Dispatch runs under a watchdog (see
  :mod:`repro.engine.faults`): every task failure becomes a structured
  :class:`~repro.engine.faults.FailureRecord`, worker exceptions get a
  bounded deterministic retry (exponential backoff keyed on the task
  fingerprint -- no wall-clock jitter), a stalled or broken pool (worker
  kills surface as stalls under ``multiprocessing.Pool``, which silently
  replaces dead workers and loses their in-flight results) is torn down
  and *resurrected* with only the unacknowledged tasks re-dispatched, a
  task implicated in two pool deaths is *quarantined* (re-run in-process,
  never handed to a worker again), and when no pool can be created at all
  the remaining tasks drain on the deterministic serial path.  Each
  downward step is recorded on the ordered recovery ladder
  ``parallel -> resurrected -> quarantined -> serial``
  (:class:`~repro.engine.faults.RecoveryEvent`), surfaced through
  :class:`~repro.engine.results.ExecutorStats`, result metadata and the
  ``repro chaos`` harness; ``degraded_to_serial`` survives as a derived
  compatibility property.  Because retry, re-dispatch and quarantine all
  re-execute *pure* tasks and reassembly stays keyed on
  ``(job index, run key)``, recovered runs remain bit-identical to the
  fault-free serial reference -- the property the chaos tests pin under
  injected worker kills, exceptions, hangs and pool-creation failures
  (:class:`~repro.engine.faults.FaultPlan`, ``REPRO_FAULT_PLAN``).

When no pool can be created at all (sandboxes without semaphores,
daemonic workers) the executor degrades to the deterministic serial path
-- *observably*: a :class:`RuntimeWarning` is emitted and the returned
:class:`~repro.engine.results.SweepResults` carry a ``serial`` recovery
event (hence ``degraded_to_serial=True``) in their
:class:`~repro.engine.results.ExecutorStats`.
"""

from __future__ import annotations

import atexit
import contextlib
import ctypes
import multiprocessing
import os
import pickle
import threading
import time
import warnings
from dataclasses import dataclass, replace
from multiprocessing import resource_tracker
from typing import Any, Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Union

from repro.core.data_volume import tester_data_volume
from repro.core.grid_sweep import (
    DEFAULT_DELTAS,
    DEFAULT_PERCENTS,
    DEFAULT_SLACKS,
    GridPoint,
    GridRun,
    GridSweepOutcome,
    _execute_run,
    dedupe_grid,
    order_runs_by_estimate,
    preferred_pool_context,
)
from repro.core.lower_bounds import lower_bound
from repro.core.scheduler import IncumbentAbort, SchedulerConfig
from repro.engine.faults import (
    STAGE_PARALLEL,
    STAGE_QUARANTINED,
    STAGE_RESURRECTED,
    STAGE_SERIAL,
    CancelledSolve,
    FailureRecord,
    FaultPlan,
    RecoveryEvent,
    active_cancel_token,
    apply_task_fault,
    backoff_delay,
    encode_recovery_events,
    format_error,
)
from repro.engine.jobs import EngineContext, EngineError, JobResult, ScheduleJob
from repro.engine.results import ExecutorStats, SweepResults
from repro.engine.shm import (
    PUBLISH_ERRORS,
    ShmSegment,
    adopt_universe,
    load_plan,
    publish_plan,
    publish_universe,
)
from repro.schedule.schedule import TestSchedule
from repro.soc.constraints import ConstraintSet
from repro.soc.soc import Soc
from repro.solvers.registry import normalize_solver_name
from repro.solvers.request import ScheduleRequest
from repro.solvers.session import get_default_session

#: Option names the ``best`` solver understands; a best job carrying any
#: other option is left whole so the solver raises its canonical error.
_BEST_OPTION_NAMES = frozenset({"percents", "deltas", "slacks", "workers"})

#: Exceptions that mean "no pool can be created here" (sandboxes without
#: working semaphores, platforms without fork/spawn, daemonic workers).
_POOL_CREATION_ERRORS = (ImportError, OSError, PermissionError, AssertionError)

try:  # the canonical dead-pool exception lives in concurrent.futures
    from concurrent.futures.process import BrokenProcessPool as _BrokenProcessPool
except ImportError:  # pragma: no cover - ancient/stripped stdlib

    class _BrokenProcessPool(RuntimeError):  # type: ignore[no-redef]
        """Placeholder when concurrent.futures is unavailable."""


#: Exceptions that mean "the pool died under us mid-stream" (a worker was
#: killed hard enough to break the result pipe, or the pool machinery
#: itself tore).  ``BrokenPipeError``/``ConnectionError`` are ``OSError``
#: subclasses; the broad ``OSError`` is deliberate -- on the parent-side
#: result iterator any I/O error is pool infrastructure, never task code
#: (task exceptions come back as :class:`_TaskFailure` payloads).
_POOL_DEATH_ERRORS = (_BrokenProcessPool, OSError, EOFError)

#: Slots on the shared incumbent board (one per concurrently-dispatched
#: grid plan; plans beyond the board fall back to dispatch-time limits).
_BOARD_SLOTS = 1024

#: How many pool deaths a task must be in flight for before it is deemed
#: poisoned and quarantined to the in-process serial path.
_QUARANTINE_STRIKES = 2

#: Watchdog default: a pooled run with no task reply for this long is
#: declared stalled and resurrected.  Generous on purpose -- legitimate
#: scheduler runs are sub-second, so a stall is pathological long before
#: five minutes -- and overridable per executor or via the environment.
DEFAULT_TASK_DEADLINE = 300.0
ENV_TASK_DEADLINE = "REPRO_TASK_DEADLINE"

#: Bounded-retry defaults: a task exception is retried at most this many
#: times, with deterministic exponential backoff (see
#: :func:`repro.engine.faults.backoff_delay`) between rounds.
DEFAULT_MAX_TASK_RETRIES = 2
DEFAULT_RETRY_BACKOFF = 0.05

#: Mid-run abort cadence: workers re-read their task's incumbent-board
#: slot every this many scheduler completion events and raise
#: :class:`~repro.core.scheduler.IncumbentAbort` when the running partial
#: makespan can no longer beat the freshest incumbent.  ``0`` disables the
#: checkpoint (dispatch-time and task-start limits still apply).
DEFAULT_BOARD_POLL = 8
ENV_BOARD_POLL = "REPRO_BOARD_POLL"

#: Chunk-size override: force every pooled dispatch round to batch tasks
#: into chunks of exactly this size (the default derives the size from the
#: queue length and worker count; see :func:`_resolve_chunksize`).
ENV_CHUNK_SIZE = "REPRO_CHUNK_SIZE"

#: Cap on the derived chunk size: a lost chunk re-dispatches every task in
#: it after a pool death, so unbounded chunks would make resurrection
#: rounds arbitrarily expensive on very long queues.
_MAX_CHUNKSIZE = 64


# ----------------------------------------------------------------------
# Per-job execution and cache warming (shared by serial path and workers)
# ----------------------------------------------------------------------
def execute_job(job: ScheduleJob, context: EngineContext) -> JobResult:
    """Run one whole job to completion in the current process.

    The job is dispatched through the process-wide solver session, so its
    Pareto rectangle sets come from (and warm) the shared cache.
    """
    soc, constraints = context.resolve(job)
    return _solve_job(job, soc, constraints)


def _solve_job(
    job: ScheduleJob,
    soc: Soc,
    constraints: Optional[ConstraintSet],
    suppress_fanout: bool = False,
) -> JobResult:
    """``execute_job`` with the context references already resolved.

    ``suppress_fanout`` is set when the job runs *inside* a pool worker:
    the flat pool already is the parallelism, so a solver-level ``workers``
    option is forced serial.  Without this, a ``best`` job dispatched
    whole would attempt a nested pool in a daemonic worker and stamp its
    (environment-dependent) ``degraded_to_serial`` marker into result
    metadata, breaking bit-identity with the serial reference.
    """
    options = job.solver_options()
    if suppress_fanout and options.get("workers"):
        options["workers"] = 0
    result = get_default_session().solve(
        ScheduleRequest(
            soc=soc,
            total_width=job.width,
            solver=job.solver,
            config=job.config,
            constraints=constraints,
            options=options,
        )
    )
    if result.schedule is None:
        raise EngineError(
            f"solver {job.solver!r} produces no schedule and cannot run as an "
            "engine job"
        )
    return JobResult(
        job=job,
        makespan=result.makespan,
        data_volume=result.data_volume,
        schedule=result.schedule,
        metadata=tuple(sorted(result.metadata.items())),
        wall_time=result.wall_time,
        worker=multiprocessing.current_process().name,
    )


def prime_context_caches(
    context: EngineContext,
    pairs: Iterable[Union[Tuple[str, int], int]],
) -> int:
    """Warm the Pareto caches for exactly the referenced (SOC, width) pairs.

    ``pairs`` holds ``(soc_key, max_core_width)`` tuples -- only those
    combinations are warmed, so a multi-SOC context does not pay for the
    full SOC x width cross-product when the job list references a subset.
    Bare ``int`` widths are accepted for backward compatibility and warm
    that width for every SOC in the context.

    Both the per-process testing-time curve memo and the default solver
    session's rectangle cache are primed, so every subsequent solve of a
    referenced combination skips wrapper design entirely.  Returns the
    number of per-core curves now cached.
    """
    resolved: Set[Tuple[str, int]] = set()
    for item in pairs:
        if isinstance(item, tuple):
            key, width = item
            resolved.add((key, int(width)))
        else:  # legacy form: one width for every SOC in the context
            resolved.update((key, int(item)) for key in context.socs)
    return _prime_soc_pairs(dict(context.socs), resolved)


def _prime_soc_pairs(
    socs: Dict[str, Soc], pairs: Iterable[Tuple[str, int]]
) -> int:
    """Warm the curve memo and session rectangle cache for exact pairs."""
    from repro.wrapper.pareto import prime_pareto_cache

    session = get_default_session()
    primed = 0
    for key, width in sorted(set(pairs)):
        soc = socs[key]
        primed += prime_pareto_cache(soc.cores, int(width))
        session.rectangle_sets(soc, int(width))
    return primed


# ----------------------------------------------------------------------
# Worker-side task execution
# ----------------------------------------------------------------------
# SOC universe installed in each pool worker by the initializer (fork
# workers inherit the parent's module state; spawn workers receive it via
# initargs).  Tasks reference SOCs by key -- the one large object ships
# once per worker -- while the (small) constraint sets travel inside each
# task, so the pool does not have to be rebuilt when only the constraint
# vocabulary of a job list changes.
_WORKER_SOCS: Optional[Dict[str, Soc]] = None

# The shared incumbent board: a lock-free int64 array (fork pools only).
# The parent writes each grid plan's tightening incumbent makespan into the
# plan's slot; workers read it when a task starts, so pruning limits stay
# tight even when tasks were dispatched (chunked) long before they run.
# Writes are monotone decreasing towards the final winner, so a torn or
# stale read can only yield a *looser* limit -- never an unsound one.
_WORKER_BOARD: Optional[Any] = None  # repro: fork-local

# The fault-injection plan, installed only in pool workers: the parent's
# quarantine and serial-drain paths run injection-free by construction, so
# every recovery ladder terminates (a persistently-hanging task can only
# hang a disposable worker, never the supervising process).
_WORKER_FAULTS: Optional[FaultPlan] = None  # repro: fork-local

# The mid-run abort cadence, resolved in the parent (see
# :func:`_resolve_board_poll`) and installed per worker by the initializer.
_WORKER_BOARD_POLL: int = DEFAULT_BOARD_POLL  # repro: fork-local


def _init_worker(
    socs: Optional[Dict[str, Soc]],
    pairs: Sequence[Tuple[str, int]],
    board: Optional[Any] = None,
    faults: Optional[FaultPlan] = None,
    universe: Optional[str] = None,
    board_poll: int = DEFAULT_BOARD_POLL,
) -> None:
    """Pool initializer: install the SOC universe, warm the caches.

    Under ``fork`` the priming is a cache hit (the parent warmed the same
    pairs just before creating the pool) and ``socs`` arrives by
    inheritance; under ``spawn``/``forkserver`` the universe -- SOCs plus
    the parent's warmed wrapper-curve tables -- is adopted zero-copy from
    the shared-memory segment named by ``universe`` instead of being
    pickled through ``initargs`` per worker.
    """
    global _WORKER_SOCS, _WORKER_BOARD, _WORKER_FAULTS, _WORKER_BOARD_POLL
    if socs is None:
        assert universe is not None, "worker needs a universe (initargs or shm)"
        _WORKER_SOCS = adopt_universe(universe)
    else:
        _WORKER_SOCS = dict(socs)
    _WORKER_BOARD = board
    _WORKER_FAULTS = faults
    _WORKER_BOARD_POLL = int(board_poll)
    _prime_soc_pairs(_WORKER_SOCS, pairs)


@dataclass(frozen=True)
class _JobTask:
    """One whole job, executed via the worker's solver session.

    The constraint set is resolved in the parent and travels with the
    task (it is small); the SOC stays a key into the worker's universe.
    ``attempt`` is the 1-based dispatch count (stamped by the supervisor;
    it feeds retry bookkeeping and deterministic fault injection).
    """

    job_index: int
    job: ScheduleJob
    constraints: Optional[ConstraintSet]
    attempt: int = 1


@dataclass(frozen=True)
class _GridTask:
    """One deduplicated scheduler run of a decomposed ``best`` job.

    ``limit`` is the incumbent makespan of the owning job at dispatch time
    (monotone-tightening only; ``None`` until the job's first result).
    ``slot`` indexes the shared incumbent board for a fresher limit at run
    time (``-1`` when no board is available).  ``attempt`` is the 1-based
    dispatch count stamped by the supervisor.
    """

    job_index: int
    run_index: int
    soc: str
    width: int
    constraints: Optional[ConstraintSet]
    config: SchedulerConfig
    point: GridPoint
    vector: Tuple[int, ...]
    limit: Optional[int]
    slot: int = -1
    attempt: int = 1


@dataclass(frozen=True)
class _ShmGridTask:
    """A :class:`_GridTask` slimmed to a shared-memory plan reference.

    When the supervisor published the owning plan's run table as an shm
    segment (see :mod:`repro.engine.shm`), the task pickled through the
    pool pipe shrinks to this: the segment name plus indices, the
    dispatch-time ``limit`` and the board ``slot``.  The worker inflates
    it back into a full :class:`_GridTask` against its memoised segment
    attachment (:func:`_inflate_task`).  ``soc``/``width`` ride along so
    :func:`task_fingerprint` -- the chaos-harness contract -- is
    computable on both sides without touching the segment.
    """

    job_index: int
    run_index: int
    soc: str
    width: int
    segment: str
    limit: Optional[int]
    slot: int = -1
    attempt: int = 1


@dataclass(frozen=True)
class _BoardAbort:
    """Reply payload of a grid run killed mid-run by the incumbent board.

    Equivalent to a pruned run for reassembly (the aborted run is strictly
    worse than some completed makespan, so it can never win), but counted
    separately as ``board_aborts``.
    """


_Task = Union[_JobTask, _GridTask, _ShmGridTask]

#: Supervisor-side task identity, stable across retries and resurrection
#: rounds: ``(job index, run index)`` with ``-1`` for whole-job tasks.
_TaskKey = Tuple[int, int]


def _task_key(task: _Task) -> _TaskKey:
    return (task.job_index, -1 if isinstance(task, _JobTask) else task.run_index)


def task_fingerprint(task: _Task) -> str:
    """The stable, human-greppable identity of one task.

    Fault plans match on substrings of this string and the retry backoff
    is keyed on it, so the format is part of the chaos-harness contract:
    ``job:{soc}:w{width}:{solver}:i{job index}`` for whole jobs,
    ``grid:{soc}:w{width}:j{job index}:r{run index}`` for grid runs.
    """
    if isinstance(task, _JobTask):
        job = task.job
        return f"job:{job.soc}:w{job.width}:{job.solver}:i{job.index}"
    return f"grid:{task.soc}:w{task.width}:j{task.job_index}:r{task.run_index}"


@dataclass(frozen=True)
class _TaskFailure:
    """A worker-side task exception, shipped back as an ordinary reply.

    Returning failures as payloads (rather than letting them propagate
    through ``imap_unordered``) keeps the result iterator healthy, so one
    bad task cannot poison the replies of its siblings.  ``exception``
    carries the original exception when it pickles cleanly (verified
    worker-side with a full dumps/loads round-trip), letting the parent
    re-raise the canonical error after retries are exhausted.
    """

    fingerprint: str
    attempt: int
    error: str
    exception: Optional[BaseException] = None


def _portable_exception(
    error: BaseException,
) -> Tuple[Optional[BaseException], str]:
    """``(error, "")`` when it survives a pickle round-trip, else ``(None, why)``.

    Custom ``__reduce__``/``__setstate__`` hooks can raise anything, so the
    probe has to catch broadly; the reason travels back as text so the
    parent's journal still explains why the canonical exception was dropped.
    """
    try:
        pickle.loads(pickle.dumps(error))
    except Exception as probe:
        return None, f"exception not portable ({format_error(probe)})"
    return error, ""


#: What a worker sends back per task, keyed for deterministic reassembly:
#: ``(job_index, run_index, payload, wall_seconds)``.  ``run_index`` is
#: ``None`` for whole-job tasks (payload: the JobResult); for grid tasks
#: the payload is ``None`` (pruned), a bare makespan (completed but not a
#: strict improvement on the dispatch limit -- the schedule stays in the
#: worker to save IPC), or a ``(makespan, schedule)`` pair.  A task that
#: raised ships a :class:`_TaskFailure` payload instead.
_TaskReply = Tuple[int, Optional[int], Any, float]


def _execute_task(task: _Task) -> _TaskReply:
    """Worker entry point: fault-injection hook, payload, failure capture."""
    started = time.perf_counter()
    fingerprint = task_fingerprint(task)
    try:
        if _WORKER_FAULTS is not None:
            apply_task_fault(_WORKER_FAULTS, fingerprint, task.attempt)
        return _execute_payload(task, started)
    except (KeyboardInterrupt, SystemExit):
        # Genuinely fatal: let it kill this worker; the parent's watchdog
        # supervises the resulting stall.
        raise
    except Exception as error:
        run_index = None if isinstance(task, _JobTask) else task.run_index
        portable, note = _portable_exception(error)
        text = format_error(error)
        failure = _TaskFailure(
            fingerprint=fingerprint,
            attempt=task.attempt,
            error=f"{text}; {note}" if note else text,
            exception=portable,
        )
        return (task.job_index, run_index, failure, time.perf_counter() - started)


def _execute_chunk(tasks: Tuple[_Task, ...]) -> Tuple[_TaskReply, ...]:
    """Worker entry point: run a parent-chunked batch of tasks.

    Chunking happens parent-side rather than through ``imap_unordered``'s
    own ``chunksize``: CPython wraps a chunked ``imap_unordered`` in a
    plain flattening generator, which loses the ``next(timeout=...)`` API
    the watchdog needs.  A worker death mid-chunk loses the whole batch's
    replies; every task in it stays unacknowledged and re-dispatches.
    """
    return tuple(_execute_task(task) for task in tasks)


def _inflate_task(task: _ShmGridTask) -> _GridTask:
    """Rebuild the full grid task from the worker's plan-segment view."""
    payload = load_plan(task.segment)
    point, vector = payload.run(task.run_index)
    return _GridTask(
        job_index=task.job_index,
        run_index=task.run_index,
        soc=payload.soc,
        width=payload.width,
        constraints=payload.constraints,
        config=payload.config,
        point=point,
        vector=vector,
        limit=task.limit,
        slot=task.slot,
        attempt=task.attempt,
    )


def _execute_payload(task: _Task, started: float) -> _TaskReply:
    assert _WORKER_SOCS is not None, "worker used before initialization"
    if isinstance(task, _JobTask):
        soc = _WORKER_SOCS[task.job.soc]
        result = _solve_job(task.job, soc, task.constraints, suppress_fanout=True)
        return (task.job_index, None, result, time.perf_counter() - started)
    if isinstance(task, _ShmGridTask):
        task = _inflate_task(task)
    soc = _WORKER_SOCS[task.soc]
    constraints = task.constraints
    limit = task.limit
    probe = None
    probe_interval = 0
    if task.slot >= 0 and _WORKER_BOARD is not None:
        shared = _WORKER_BOARD[task.slot]
        if shared and (limit is None or shared < limit):
            limit = int(shared)
        if _WORKER_BOARD_POLL > 0:
            # Arm the mid-run checkpoint: re-read this plan's board slot
            # every K completion events inside the scheduler event loop.
            board, slot = _WORKER_BOARD, task.slot
            probe_interval = _WORKER_BOARD_POLL

            def probe() -> int:
                return int(board[slot])

    sets = get_default_session().rectangle_sets(soc, task.config.max_core_width)
    try:
        schedule = _execute_run(
            soc,
            task.width,
            constraints or ConstraintSet.unconstrained(),
            task.config,
            sets,
            task.point,
            task.vector,
            limit,
            limit_probe=probe,
            probe_interval=probe_interval,
        )
    except IncumbentAbort:
        # The board proved this run strictly worse than a completed
        # sibling mid-run; ship the (tiny) abort marker instead of a
        # result.  Reassembly treats it as pruned, the journal counts it.
        wall = time.perf_counter() - started
        return (task.job_index, task.run_index, _BoardAbort(), wall)
    wall = time.perf_counter() - started
    if schedule is None:  # pruned by the incumbent limit
        return (task.job_index, task.run_index, None, wall)
    makespan = schedule.makespan
    if task.slot >= 0 and _WORKER_BOARD is not None:
        # Publish the completed makespan so sibling tasks of the same job
        # prune against it without waiting for the parent's round-trip.
        # Any completed makespan bounds the job's final best from above,
        # so the (unlocked) read-compare-write race is benign: a lost
        # update can only leave a looser -- never an unsound -- limit.
        current = _WORKER_BOARD[task.slot]
        if current == 0 or makespan < current:
            _WORKER_BOARD[task.slot] = makespan
    if limit is not None and makespan >= limit:
        # Completed but no strict improvement on the incumbent known at
        # dispatch: the makespan alone decides the winner, so the (large)
        # schedule stays out of the result pipe.  In the rare case this
        # run still wins on the index tie-break, the parent deterministically
        # recomputes its schedule once, limit-free.
        return (task.job_index, task.run_index, makespan, wall)
    return (task.job_index, task.run_index, (makespan, schedule), wall)


# ----------------------------------------------------------------------
# Parent-side plans (one per job)
# ----------------------------------------------------------------------
class _JobPlan:
    """A job executed whole: exactly one task, result passed through."""

    __slots__ = ("job", "constraints", "result", "events", "payload_bytes")

    def __init__(
        self, job: ScheduleJob, constraints: Optional[ConstraintSet]
    ) -> None:
        self.job = job
        self.constraints = constraints
        self.result: Optional[JobResult] = None
        self.events: List[RecoveryEvent] = []
        self.payload_bytes = 0  # representative pickled task size, lazy

    @property
    def task_count(self) -> int:
        return 1

    @property
    def settled(self) -> bool:
        return self.result is not None

    def dispatch_cost(self, task: _Task) -> Tuple[int, int]:
        """``(pipe bytes, bytes saved)`` of one pooled dispatch of ``task``."""
        if self.payload_bytes == 0:
            self.payload_bytes = len(pickle.dumps(task))
        return self.payload_bytes, 0

    def absorb(self, run_index: Optional[int], payload: Any, wall: float) -> None:
        self.result = payload

    def finish(self, session: Any) -> JobResult:
        assert self.result is not None, "job task produced no result"
        result = self.result
        if self.events:
            # Recovery steps that touched this job travel in its metadata
            # (scalar-encoded, so sweep CSV exports grow the column).  A
            # clean run appends nothing, keeping serial/parallel metadata
            # comparisons exact.
            metadata = dict(result.metadata)
            metadata["recovery_events"] = encode_recovery_events(self.events)
            result = replace(result, metadata=tuple(sorted(metadata.items())))
        return result


class _GridPlan:
    """Shared best-over-grid state for one decomposed ``best`` job.

    Tracks the incumbent ``(makespan, run index)`` as grid-task results
    arrive (in any order) and keeps the schedule of the best strict
    improvement seen.  The winner selection rule -- minimal
    ``(makespan, run index)`` -- is exactly the serial sweep's, so the
    outcome is independent of completion order.
    """

    __slots__ = (
        "job",
        "soc",
        "soc_key",
        "width",
        "constraints",
        "config",
        "runs",
        "by_index",
        "grid_points",
        "bound",
        "best",
        "best_schedule",
        "wall",
        "dispatched",
        "slot",
        "acked",
        "events",
        "segment",
        "shm_failed",
        "slim_bytes",
        "fat_bytes",
    )

    def __init__(
        self,
        job: Optional[ScheduleJob],
        soc: Soc,
        soc_key: str,
        width: int,
        constraints: Optional[ConstraintSet],
        config: SchedulerConfig,
        runs: Sequence[GridRun],
        grid_points: int,
        bound: int,
    ) -> None:
        self.job = job
        self.soc = soc
        self.soc_key = soc_key
        self.width = width
        self.constraints = constraints
        self.config = config
        self.runs = tuple(runs)  # estimate-ordered
        self.by_index = {run.index: run for run in self.runs}
        self.grid_points = grid_points
        self.bound = bound
        self.best: Optional[Tuple[int, int]] = None  # (makespan, run index)
        self.best_schedule: Optional[TestSchedule] = None
        self.wall = 0.0
        self.dispatched = 0
        self.slot = -1  # shared incumbent-board slot, assigned at dispatch
        self.acked: Set[int] = set()  # run indexes with an absorbed reply
        self.events: List[RecoveryEvent] = []
        self.segment: Optional[ShmSegment] = None  # published run table
        self.shm_failed = False  # publish failed once: stay on fat tasks
        self.slim_bytes = 0  # representative slim/fat pickled task sizes
        self.fat_bytes = 0

    @property
    def task_count(self) -> int:
        return len(self.runs)

    @property
    def settled(self) -> bool:
        """Every run is acknowledged or provably skippable."""
        return all(
            run.index in self.acked or self.skippable(run) for run in self.runs
        )

    # -- dispatch-side -------------------------------------------------
    def limit(self) -> Optional[int]:
        return self.best[0] if self.best is not None else None

    def skippable(self, run: GridRun) -> bool:
        # Once the incumbent meets the lower bound, only an earlier grid
        # point could still displace it (by tying the makespan with a
        # smaller index); everything else is settled.
        return (
            self.best is not None
            and self.best[0] <= self.bound
            and run.index > self.best[1]
        )

    def make_task(
        self, job_index: int, run: GridRun
    ) -> Union[_GridTask, _ShmGridTask]:
        self.dispatched += 1
        if self.segment is not None:
            return _ShmGridTask(
                job_index=job_index,
                run_index=run.index,
                soc=self.soc_key,
                width=self.width,
                segment=self.segment.name,
                limit=self.limit(),
                slot=self.slot,
            )
        return _GridTask(
            job_index=job_index,
            run_index=run.index,
            soc=self.soc_key,
            width=self.width,
            constraints=self.constraints,
            config=self.config,
            point=run.point,
            vector=run.preferred_widths,
            limit=self.limit(),
            slot=self.slot,
        )

    def dispatch_cost(self, task: _Task) -> Tuple[int, int]:
        """``(pipe bytes, bytes saved)`` of one pooled dispatch of ``task``.

        Representative sizes (measured once per plan on the first run's
        task shape); per-task variation is a few bytes of integer fields.
        """
        if isinstance(task, _ShmGridTask):
            return self.slim_bytes, max(0, self.fat_bytes - self.slim_bytes)
        if self.fat_bytes == 0:
            self.fat_bytes = len(pickle.dumps(task))
        return self.fat_bytes, 0

    # -- result-side ---------------------------------------------------
    def absorb(self, run_index: Optional[int], payload: Any, wall: float) -> None:
        self.wall += wall
        if run_index is not None:
            self.acked.add(run_index)
        if payload is None:  # pruned by the incumbent
            return
        if isinstance(payload, tuple):
            makespan, schedule = payload
        else:
            makespan, schedule = payload, None
        key = (makespan, run_index)
        if self.best is None or key < self.best:
            self.best = key
            self.best_schedule = schedule

    def winner(
        self, rectangle_sets: Dict[str, Any]
    ) -> Tuple[int, int, GridPoint, TestSchedule]:
        """The final ``(makespan, run index, point, schedule)`` of the sweep.

        The first dispatched task runs limit-free and always completes, so
        ``best`` is set by the time dispatch ends.  When the winner's
        schedule stayed in its worker (it tied the incumbent and won only
        on the index tie-break), one deterministic limit-free rerun
        recomputes it here.
        """
        assert self.best is not None, "grid sweep produced no completed run"
        makespan, index = self.best
        run = self.by_index[index]
        schedule = self.best_schedule
        if schedule is None:
            schedule = _execute_run(
                self.soc,
                self.width,
                self.constraints or ConstraintSet.unconstrained(),
                self.config,
                rectangle_sets,
                run.point,
                run.preferred_widths,
                None,
            )
            assert schedule is not None and schedule.makespan == makespan
        return makespan, index, run.point, schedule

    def finish(self, session: Any) -> JobResult:
        """Assemble the JobResult exactly as the undecomposed path would."""
        assert self.job is not None
        soc = self.soc
        constraints = self.constraints
        sets = session.rectangle_sets(soc, self.config.max_core_width)
        makespan, _, point, schedule = self.winner(sets)
        outcome = GridSweepOutcome(
            schedule=schedule,
            winner=point,
            makespan=makespan,
            grid_points=self.grid_points,
            unique_runs=len(self.runs),
            lower_bound=self.bound,
            early_exit=makespan <= self.bound,
            recovery_events=tuple(self.events),
        )
        # Parity with Session.solve: the best solver supports constraints,
        # so its schedules are validated against them.
        schedule.validate(soc, constraints=constraints)
        return JobResult(
            job=self.job,
            makespan=makespan,
            data_volume=tester_data_volume(schedule),
            schedule=schedule,
            metadata=tuple(sorted(outcome.metadata().items())),
            wall_time=self.wall,
            worker="flat-pool",
        )


_Plan = Union[_JobPlan, _GridPlan]


# ----------------------------------------------------------------------
# Supervision bookkeeping
# ----------------------------------------------------------------------
class _Journal:
    """Mutable per-run fault journal (parent-side only).

    Accumulates the structured :class:`FailureRecord`\\ s and recovery
    ladder :class:`RecoveryEvent`\\ s that one ``run_jobs``/``run_grid_runs``
    call produced, plus the matching counters; frozen into
    :class:`~repro.engine.results.ExecutorStats` when the run finishes.
    """

    __slots__ = (
        "failures",
        "events",
        "retries",
        "resurrections",
        "quarantined",
        "pools_created",
        "board_aborts",
        "shm_tasks",
        "payload_bytes",
        "shm_bytes_saved",
    )

    def __init__(self) -> None:
        self.failures: List[FailureRecord] = []
        self.events: List[RecoveryEvent] = []
        self.retries = 0
        self.resurrections = 0
        self.quarantined = 0
        self.pools_created = 0
        self.board_aborts = 0
        self.shm_tasks = 0
        self.payload_bytes = 0
        self.shm_bytes_saved = 0

    def failure(
        self,
        kind: str,
        action: str,
        error: str = "",
        task: str = "",
        attempt: int = 0,
    ) -> FailureRecord:
        record = FailureRecord(
            kind=kind, task=task, attempt=attempt, error=error, action=action
        )
        self.failures.append(record)
        return record

    def event(self, stage: str, reason: str, task: str = "") -> RecoveryEvent:
        event = RecoveryEvent(stage=stage, reason=reason, task=task)
        self.events.append(event)
        return event


@dataclass(frozen=True)
class _RoundFailure:
    """One dead/stalled dispatch round: what broke, and the suspects.

    ``suspects`` holds every task that was dispatched but unacknowledged
    when the pool died -- the only tasks whose work could have been lost,
    and therefore the only ones re-dispatched after resurrection.
    """

    kind: str  # "pool-stall" | "pool-death"
    reason: str  # recovery-event slug: "stalled" | "pool-death"
    error: str
    suspects: Dict[_TaskKey, _Task]


def _resolve_task_deadline(value: Optional[float]) -> Optional[float]:
    """The effective watchdog deadline; ``None`` means disabled."""
    if value is None:
        raw = os.environ.get(ENV_TASK_DEADLINE, "").strip()
        if raw:
            try:
                value = float(raw)
            except ValueError:
                raise EngineError(
                    f"{ENV_TASK_DEADLINE}={raw!r} is not a number"
                ) from None
        else:
            value = DEFAULT_TASK_DEADLINE
    return float(value) if value > 0 else None


def _resolve_board_poll(value: Optional[int]) -> int:
    """The effective mid-run abort cadence; ``0`` means disabled."""
    if value is None:
        raw = os.environ.get(ENV_BOARD_POLL, "").strip()
        if raw:
            try:
                value = int(raw)
            except ValueError:
                raise EngineError(
                    f"{ENV_BOARD_POLL}={raw!r} is not an integer"
                ) from None
        else:
            value = DEFAULT_BOARD_POLL
    if value < 0:
        raise EngineError(f"board poll interval must be non-negative, got {value}")
    return int(value)


def _resolve_chunksize(total_tasks: int, processes: int) -> int:
    """Derive the dispatch chunk size from queue length and worker count.

    Targets roughly a dozen chunks per worker: deep enough that the
    backpressure window stays populated, shallow enough that stragglers
    spread and late chunks are dispatched after the incumbent tightened.
    Capped (see :data:`_MAX_CHUNKSIZE`) so a pool death never forfeits an
    unbounded batch of replies.  ``REPRO_CHUNK_SIZE`` overrides the
    derivation with an exact positive size.
    """
    raw = os.environ.get(ENV_CHUNK_SIZE, "").strip()
    if raw:
        try:
            forced = int(raw)
        except ValueError:
            raise EngineError(
                f"{ENV_CHUNK_SIZE}={raw!r} is not an integer"
            ) from None
        if forced <= 0:
            raise EngineError(
                f"{ENV_CHUNK_SIZE} must be positive, got {forced}"
            )
        return forced
    waves = 12
    return max(1, min(total_tasks // (max(1, processes) * waves), _MAX_CHUNKSIZE))


def _warn_pool_degrade(reason: str, detail: str) -> None:
    warnings.warn(
        f"{reason}: no worker pool could be created ({detail}); degrading "
        "to the serial path (results are identical, wall time is not)",
        RuntimeWarning,
        stacklevel=4,
    )


# ----------------------------------------------------------------------
# The executor
# ----------------------------------------------------------------------
class FlatExecutor:
    """A persistent process pool fed by one flat scheduler-run task queue.

    One executor owns (at most) one pool.  The pool is created lazily on
    the first parallel dispatch, keyed on the *SOC universe* (the context's
    key -> SOC mapping -- constraint sets travel inside tasks, so Table 1
    and Table 2 sweeps over the same SOC share one pool), the process
    count and the set of warmed ``(SOC, max width)`` cache pairs; it is
    reused verbatim while those match and refreshed (close + recreate)
    when they change.  ``close()`` tears the pool down; the process-wide
    default executor (:func:`get_default_executor`) is closed at exit.
    """

    def __init__(
        self,
        window_factor: int = 4,
        task_deadline: Optional[float] = None,
        max_task_retries: int = DEFAULT_MAX_TASK_RETRIES,
        retry_backoff: float = DEFAULT_RETRY_BACKOFF,
        fault_plan: Optional[FaultPlan] = None,
        board_poll: Optional[int] = None,
    ) -> None:
        """Configure the supervision envelope.

        ``task_deadline`` is the watchdog: seconds without any task reply
        before the pool is declared stalled and resurrected (``None``
        reads ``REPRO_TASK_DEADLINE`` or falls back to the default; a
        non-positive value disables the watchdog entirely).
        ``max_task_retries`` bounds worker-side retries per task;
        ``retry_backoff`` is the deterministic exponential-backoff base
        (non-positive disables sleeping).  ``fault_plan`` installs a
        deterministic injection schedule in every pool worker (``None``
        reads ``REPRO_FAULT_PLAN``; an empty plan means no injection).
        ``board_poll`` is the mid-run abort cadence in scheduler
        completion events (``None`` reads ``REPRO_BOARD_POLL`` or falls
        back to the default; ``0`` disables mid-run aborts).
        """
        if window_factor < 1:
            raise EngineError("window_factor must be positive")
        self._window_factor = int(window_factor)
        self._task_deadline = _resolve_task_deadline(task_deadline)
        if max_task_retries < 0:
            raise EngineError(
                f"max_task_retries must be non-negative, got {max_task_retries}"
            )
        self._max_task_retries = int(max_task_retries)
        self._retry_backoff = float(retry_backoff)
        self._board_poll = _resolve_board_poll(board_poll)
        plan = fault_plan if fault_plan is not None else FaultPlan.from_env()
        self._fault_plan: Optional[FaultPlan] = plan if plan else None
        self._pool_faults_left = plan.pool_failure_budget() if plan else 0
        self._pool: Optional[Any] = None
        self._universe: Optional[ShmSegment] = None
        self._plan_segments: List[ShmSegment] = []
        self._board: Optional[Any] = None
        self._socs: Optional[Dict[str, Soc]] = None
        self._processes = 0
        self._pairs: Set[Tuple[str, int]] = set()
        self._last_failures: Tuple[FailureRecord, ...] = ()
        self._last_events: Tuple[RecoveryEvent, ...] = ()
        self._last_stats: Optional[ExecutorStats] = None

    # -- lifecycle ------------------------------------------------------
    @property
    def pool_alive(self) -> bool:
        """Whether a worker pool is currently up."""
        return self._pool is not None

    @property
    def last_failures(self) -> Tuple[FailureRecord, ...]:
        """The fault journal of the most recent run (empty when clean)."""
        return self._last_failures

    @property
    def last_recovery_events(self) -> Tuple[RecoveryEvent, ...]:
        """The recovery ladder of the most recent run (empty when clean)."""
        return self._last_events

    @property
    def last_stats(self) -> Optional[ExecutorStats]:
        """Execution stats of the most recent pooled run (``None`` before one).

        This is how callers above the solver boundary (the CLI, the bench
        suites) observe the payload-plane counters without them entering
        result metadata -- result metadata stays bit-identical between the
        serial reference and every parallel configuration.
        """
        return self._last_stats

    @property
    def processes(self) -> int:
        """Worker processes of the live pool (0 when no pool is up)."""
        return self._processes if self._pool is not None else 0

    def close(self) -> None:
        """Tear down the pool (if any).  The executor stays usable.

        Idempotent and shutdown-safe: the pool handle is detached before
        teardown begins, so a second ``close()`` (or ``Session.close()``
        after ``use_executor`` already closed, or the atexit hook firing
        after an explicit close) is a pure no-op, and teardown of a pool
        whose workers are already dead or reaped cannot raise out of
        ``close()`` -- ``terminate``/``join`` on a half-collected pool
        during interpreter shutdown is best-effort by construction.

        Plan segments are *not* released here: mid-run resurrection calls
        ``close()`` between rounds and the fresh pool's workers re-attach
        to the surviving segments by name.  They are released in the run
        entry points' ``finally`` (and by their own finalizers as a last
        resort).
        """
        pool, self._pool = self._pool, None
        universe, self._universe = self._universe, None
        self._board = None
        self._socs = None
        self._processes = 0
        self._pairs = set()
        if pool is not None:
            with contextlib.suppress(Exception):
                pool.terminate()
            with contextlib.suppress(Exception):
                pool.join()
        if universe is not None:
            universe.close()

    def __enter__(self) -> "FlatExecutor":
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.close()

    def _ensure_pool(
        self,
        socs: Dict[str, Soc],
        pairs: Set[Tuple[str, int]],
        processes: int,
        reason: str,
        journal: _Journal,
    ) -> Optional[Any]:
        """A pool matching (SOC universe, processes) with ``pairs`` warm.

        The parent's caches are primed *before* the fork so workers inherit
        them warm.  On creation failure a RuntimeWarning is emitted, a
        ``pool-creation`` :class:`FailureRecord` is journalled and ``None``
        returned -- the supervisor drains the remaining work serially.
        """
        if (
            self._pool is not None
            and self._socs == socs
            and self._processes == processes
            and pairs <= self._pairs
        ):
            # The process count must match exactly: dispatch fans tasks
            # out over every pool worker, so reusing a larger pool would
            # silently exceed the caller's documented worker cap.
            return self._pool
        self.close()
        _prime_soc_pairs(socs, pairs)
        if self._fault_plan is not None and self._pool_faults_left > 0:
            # Injected pool-creation failure: consume one budget unit and
            # behave exactly like the real thing (warning included).
            self._pool_faults_left -= 1
            error_text = "InjectedFault: injected pool-creation failure"
            journal.failure(kind="pool-creation", action="serial", error=error_text)
            _warn_pool_degrade(reason, error_text)
            return None
        pool_context = preferred_pool_context()
        start_method = pool_context.get_start_method()
        board = None
        if start_method == "fork":
            # The incumbent board rides on fork inheritance; spawn pools
            # simply run with dispatch-time limits only.
            try:
                board = pool_context.RawArray(ctypes.c_int64, _BOARD_SLOTS)
            except _POOL_CREATION_ERRORS as error:
                journal.failure(
                    kind="board-creation",
                    action="continue",
                    error=format_error(error),
                )
                board = None
        universe: Optional[ShmSegment] = None
        socs_arg: Optional[Dict[str, Soc]] = socs
        if start_method != "fork":
            # Fork workers inherit the parent's warm caches zero-copy;
            # only non-fork workers need the universe published so their
            # initargs shrink to a segment name instead of pickled SOCs.
            try:
                universe = publish_universe(socs)
                socs_arg = None
            except PUBLISH_ERRORS as error:
                journal.failure(
                    kind="shm-publish",
                    action="continue",
                    error=format_error(error),
                )
                universe = None
                socs_arg = socs
        try:
            # A fork worker shares the parent's resource tracker (which shm
            # attaches rely on) only if it is already running.
            resource_tracker.ensure_running()
            pool = pool_context.Pool(
                processes=processes,
                initializer=_init_worker,
                initargs=(
                    socs_arg,
                    tuple(sorted(pairs)),
                    board,
                    self._fault_plan,
                    universe.name if universe is not None else None,
                    self._board_poll,
                ),
            )
        except _POOL_CREATION_ERRORS as error:
            if universe is not None:
                universe.close()
            journal.failure(
                kind="pool-creation", action="serial", error=format_error(error)
            )
            _warn_pool_degrade(reason, format_error(error))
            return None
        journal.pools_created += 1
        self._pool = pool
        self._universe = universe
        self._board = board
        self._socs = dict(socs)
        self._processes = processes
        self._pairs = set(pairs)
        return pool

    def _publish_plans(
        self, plans: Sequence[_Plan], journal: _Journal
    ) -> None:
        """Publish each grid plan's run table into a shared-memory segment.

        After this, ``make_task`` emits slim :class:`_ShmGridTask`
        references instead of fat :class:`_GridTask` payloads.  Publish
        failures are journalled and the plan falls back to fat tasks for
        the rest of the run (``shm_failed`` stops re-attempts on
        resurrection).  Representative slim/fat pickle sizes are recorded
        once per plan for the dispatch-traffic accounting.
        """
        for plan in plans:
            if (
                not isinstance(plan, _GridPlan)
                or plan.segment is not None
                or plan.shm_failed
                or not plan.runs
            ):
                continue
            try:
                segment = publish_plan(
                    plan.soc_key,
                    plan.width,
                    plan.constraints,
                    plan.config,
                    plan.runs,
                )
            except PUBLISH_ERRORS as error:
                plan.shm_failed = True
                journal.failure(
                    kind="shm-publish",
                    action="continue",
                    error=format_error(error),
                )
                continue
            plan.segment = segment
            self._plan_segments.append(segment)
            run = plan.runs[0]
            slim = _ShmGridTask(
                job_index=0,
                run_index=run.index,
                soc=plan.soc_key,
                width=plan.width,
                segment=segment.name,
                limit=None,
            )
            fat = _GridTask(
                job_index=0,
                run_index=run.index,
                soc=plan.soc_key,
                width=plan.width,
                constraints=plan.constraints,
                config=plan.config,
                point=run.point,
                vector=run.preferred_widths,
                limit=None,
            )
            plan.slim_bytes = len(pickle.dumps(slim))
            plan.fat_bytes = len(pickle.dumps(fat))

    def _release_plan_segments(self) -> None:
        """Release every per-run plan segment (end-of-run cleanup)."""
        segments, self._plan_segments = self._plan_segments, []
        for segment in segments:
            segment.close()

    # -- planning -------------------------------------------------------
    def _plan(
        self, job: ScheduleJob, context: EngineContext, session: Any
    ) -> _Plan:
        """Decompose one job into its flat-task plan.

        Only ``best`` jobs with recognised options decompose; anything
        else (including a best job carrying unknown options, which must
        raise the solver's canonical error) stays whole.
        """
        soc, constraints = context.resolve(job)
        try:
            is_best = normalize_solver_name(job.solver) == "best"
        except (AttributeError, TypeError):
            # job.solver is a validated non-empty str (ScheduleJob raises at
            # construction), so this only guards exotic str subclasses; any
            # such job schedules whole, never silently best-decomposed.
            is_best = False
        if not is_best:
            return _JobPlan(job, constraints)
        options = job.solver_options()
        if not set(options) <= _BEST_OPTION_NAMES:
            return _JobPlan(job, constraints)
        if constraints is not None:
            constraints.validate_for(soc)
        percents = tuple(options.get("percents") or DEFAULT_PERCENTS)
        deltas = tuple(options.get("deltas") or DEFAULT_DELTAS)
        slacks = tuple(options.get("slacks") or DEFAULT_SLACKS)
        sets = session.rectangle_sets(soc, job.config.max_core_width)
        runs = dedupe_grid(
            soc, job.width, job.config, sets, percents, deltas, slacks
        )
        if not runs:  # empty grid: let the solver raise its canonical error
            return _JobPlan(job, constraints)
        bound = lower_bound(
            soc, job.width, job.config.max_core_width, rectangle_sets=sets
        )
        return _GridPlan(
            job=job,
            soc=soc,
            soc_key=job.soc,
            width=job.width,
            constraints=constraints,
            config=job.config,
            runs=order_runs_by_estimate(soc, sets, job.width, runs),
            grid_points=len(percents) * len(deltas) * len(slacks),
            bound=bound,
        )

    # -- dispatch -------------------------------------------------------
    def _supervise(
        self,
        plans: Sequence[_Plan],
        socs: Dict[str, Soc],
        pairs: Set[Tuple[str, int]],
        processes: int,
        chunksize: int,
        session: Any,
        journal: _Journal,
        reason: str,
    ) -> None:
        """Drive every plan to settlement, descending the recovery ladder.

        Work proceeds in *rounds*: each round dispatches every pending
        (unacknowledged, unquarantined, unskippable) task through the
        pool.  A clean round that leaves retryable failures is followed by
        another round (bounded per-task attempts, deterministic backoff);
        a stalled or broken pool is torn down, tasks implicated in
        ``_QUARANTINE_STRIKES`` pool deaths are quarantined to an
        in-process run, and the pool is resurrected for the survivors.
        When no pool can be created the remaining tasks drain on the
        serial path.  Every step is journalled; clean runs journal
        nothing, which is what keeps their results and metadata
        bit-identical to the serial reference.
        """
        attempts: Dict[_TaskKey, int] = {}
        suspect_strikes: Dict[_TaskKey, int] = {}
        quarantined: Set[_TaskKey] = set()
        resurrect_reason: Optional[str] = None
        while not all(plan.settled for plan in plans):
            pool = self._ensure_pool(socs, pairs, processes, reason, journal)
            if pool is None:
                event = journal.event(STAGE_SERIAL, reason="pool-creation")
                if journal.pools_created:
                    # Mid-run downgrade: jobs that still had pending work
                    # record it.  An *entry* downgrade (no pool ever
                    # existed) stays out of job metadata so results match
                    # the serial reference exactly, as they always did.
                    for plan in plans:
                        if not plan.settled:
                            plan.events.append(event)
                self._drain_serial(plans, socs, session)
                return
            if resurrect_reason is not None:
                journal.resurrections += 1
                event = journal.event(STAGE_RESURRECTED, reason=resurrect_reason)
                for plan in plans:
                    if not plan.settled:
                        plan.events.append(event)
                resurrect_reason = None
            self._publish_plans(plans, journal)
            try:
                failure, retry_delay = self._stream_round(
                    pool, plans, processes, chunksize, attempts, quarantined, journal
                )
            except (KeyboardInterrupt, SystemExit) as error:
                journal.failure(
                    kind="fatal", action="raise", error=format_error(error)
                )
                self.close()  # drop abandoned in-flight tasks with the pool
                raise
            except Exception:
                # Already journalled at the failure site; the pool goes
                # with the abandoned in-flight tasks.
                self.close()
                raise
            if failure is None:
                if retry_delay > 0:
                    time.sleep(retry_delay)
                continue  # settled plans end the loop; retries re-dispatch
            # The pool is stalled or broken: record, tear it down, add a
            # strike against every unacknowledged task, quarantine repeat
            # offenders in-process, then resurrect for the survivors.
            journal.failure(
                kind=failure.kind, action="resurrect", error=failure.error
            )
            self.close()
            ordered_suspects = sorted(failure.suspects)
            for key in ordered_suspects:
                suspect_strikes[key] = suspect_strikes.get(key, 0) + 1
            for key in ordered_suspects:
                if suspect_strikes[key] < _QUARANTINE_STRIKES or key in quarantined:
                    continue
                task = failure.suspects[key]
                fingerprint = task_fingerprint(task)
                quarantined.add(key)
                journal.quarantined += 1
                journal.failure(
                    kind=failure.kind,
                    action="quarantine",
                    error=failure.error,
                    task=fingerprint,
                    attempt=attempts.get(key, 0),
                )
                event = journal.event(
                    STAGE_QUARANTINED, reason=failure.reason, task=fingerprint
                )
                plans[key[0]].events.append(event)
                # In-process, injection-free, bounded by the current
                # incumbent: the ladder always terminates here.
                self._run_task_in_process(plans, socs, session, task)
            resurrect_reason = failure.reason

    def _stream_round(
        self,
        pool: Any,
        plans: Sequence[_Plan],
        processes: int,
        chunksize: int,
        attempts: Dict[_TaskKey, int],
        quarantined: Set[_TaskKey],
        journal: _Journal,
    ) -> Tuple[Optional[_RoundFailure], float]:
        """One dispatch round: stream pending tasks, absorb replies.

        A sliding backpressure window (a plain semaphore between the
        result loop and the task generator, which runs in the pool's
        feeder thread) keeps enough tasks in flight to saturate the
        workers while leaving later grid tasks undispatched long enough to
        pick up tightened incumbent limits and skip decisions.  On fork
        pools the shared incumbent board supplements this: tasks read
        their plan's freshest incumbent when they *start*, so pruning
        stays tight even for tasks dispatched early in large chunks.

        Returns ``(None, retry_delay)`` when the round ran to completion
        (``retry_delay > 0`` means retryable task failures were journalled
        and their tasks left unacknowledged for the next round), or a
        :class:`_RoundFailure` capturing a stalled/broken pool with the
        unacknowledged suspects.  Retry-exhausted task errors re-raise the
        task's own exception.
        """
        board = self._board
        slot = 0
        for plan in plans:
            if isinstance(plan, _GridPlan):
                if board is not None and slot < _BOARD_SLOTS:
                    plan.slot = slot
                    # Re-seed across rounds: a resurrected pool's fresh
                    # board starts from the incumbents already absorbed.
                    board[slot] = plan.best[0] if plan.best is not None else 0
                    slot += 1
                else:
                    plan.slot = -1
        window = max(processes * self._window_factor * chunksize, 2 * chunksize)
        permits = threading.Semaphore(window)
        abort = threading.Event()
        lock = threading.Lock()
        inflight: Dict[_TaskKey, _Task] = {}

        def stamp(task: _Task) -> _Task:
            key = _task_key(task)
            with lock:
                attempt = attempts.get(key, 0) + 1
                attempts[key] = attempt
                stamped = replace(task, attempt=attempt)
                inflight[key] = stamped
                # Dispatch-traffic accounting: bytes actually sent down
                # the pool pipe, counted per dispatch (re-dispatches
                # included -- those bytes really are re-sent).
                sent, saved = plans[key[0]].dispatch_cost(stamped)
                journal.payload_bytes += sent
                if isinstance(stamped, _ShmGridTask):
                    journal.shm_tasks += 1
                    journal.shm_bytes_saved += saved
            return stamped

        def stream() -> Iterator[_Task]:
            for job_index, plan in enumerate(plans):
                if isinstance(plan, _JobPlan):
                    if plan.result is not None or (job_index, -1) in quarantined:
                        continue
                    permits.acquire()
                    if abort.is_set():
                        return
                    yield stamp(
                        _JobTask(
                            job_index=job_index,
                            job=plan.job,
                            constraints=plan.constraints,
                        )
                    )
                    continue
                for run in plan.runs:
                    if (
                        run.index in plan.acked
                        or (job_index, run.index) in quarantined
                        or plan.skippable(run)
                    ):
                        continue
                    permits.acquire()
                    if abort.is_set():
                        return
                    if plan.skippable(run):  # re-check after blocking
                        permits.release()
                        continue
                    yield stamp(plan.make_task(job_index, run))

        def chunked() -> Iterator[Tuple[_Task, ...]]:
            batch: List[_Task] = []
            for task in stream():
                batch.append(task)
                if len(batch) >= chunksize:
                    yield tuple(batch)
                    batch = []
            if batch:
                yield tuple(batch)

        retry_delay = 0.0
        iterator = pool.imap_unordered(_execute_chunk, chunked(), chunksize=1)
        try:
            while True:
                token = active_cancel_token()
                if token is not None and token.cancelled():
                    # Cooperative cancellation checkpoint (service layer):
                    # journal the abandonment, then raise -- _supervise's
                    # escalation path tears the pool down, dropping every
                    # in-flight task with it.
                    reason = token.reason()
                    journal.failure(kind="cancelled", action="raise", error=reason)
                    raise CancelledSolve(reason)
                try:
                    if self._task_deadline is not None:
                        replies = iterator.next(timeout=self._task_deadline)
                    else:
                        replies = next(iterator)
                except StopIteration:
                    return None, retry_delay
                except multiprocessing.TimeoutError:
                    with lock:
                        suspects = dict(inflight)
                    return (
                        _RoundFailure(
                            kind="pool-stall",
                            reason="stalled",
                            error=(
                                f"no task reply within {self._task_deadline:.6g}s; "
                                f"{len(suspects)} task(s) unacknowledged"
                            ),
                            suspects=suspects,
                        ),
                        0.0,
                    )
                except _POOL_DEATH_ERRORS as error:
                    with lock:
                        suspects = dict(inflight)
                    return (
                        _RoundFailure(
                            kind="pool-death",
                            reason="pool-death",
                            error=format_error(error),
                            suspects=suspects,
                        ),
                        0.0,
                    )
                for reply in replies:
                    job_index, run_index, payload, wall = reply
                    permits.release()
                    key = (job_index, run_index if run_index is not None else -1)
                    with lock:
                        inflight.pop(key, None)
                    plan = plans[job_index]
                    if isinstance(payload, _TaskFailure):
                        if payload.attempt <= self._max_task_retries:
                            # Leave the task unacknowledged: the next round
                            # re-dispatches it with a bumped attempt number.
                            journal.retries += 1
                            journal.failure(
                                kind="task-error",
                                action="retry",
                                error=payload.error,
                                task=payload.fingerprint,
                                attempt=payload.attempt,
                            )
                            event = journal.event(
                                STAGE_PARALLEL,
                                reason="retried",
                                task=payload.fingerprint,
                            )
                            plan.events.append(event)
                            retry_delay = max(
                                retry_delay,
                                backoff_delay(
                                    payload.fingerprint,
                                    payload.attempt,
                                    self._retry_backoff,
                                ),
                            )
                            continue
                        journal.failure(
                            kind="task-error",
                            action="raise",
                            error=payload.error,
                            task=payload.fingerprint,
                            attempt=payload.attempt,
                        )
                        if payload.exception is not None:
                            raise payload.exception
                        raise EngineError(
                            f"task {payload.fingerprint} failed after "
                            f"{payload.attempt} attempt(s): {payload.error}"
                        )
                    if isinstance(payload, _BoardAbort):
                        # A mid-run board abort: the run provably could
                        # not beat an already-completed incumbent, so it
                        # is acknowledged exactly like a pruned run.
                        journal.board_aborts += 1
                        payload = None
                    plan.absorb(run_index, payload, wall)
                    if (
                        isinstance(plan, _GridPlan)
                        and plan.slot >= 0
                        and plan.best is not None
                        and board is not None
                    ):
                        board[plan.slot] = plan.best[0]
        finally:
            # Unblock the feeder thread (it may be parked on the
            # semaphore) whatever way the round ended.
            abort.set()
            for _ in range(window + 1):
                permits.release()

    # -- in-process execution (quarantine and serial drain) -------------
    def _run_task_in_process(
        self,
        plans: Sequence[_Plan],
        socs: Dict[str, Soc],
        session: Any,
        task: _Task,
    ) -> None:
        """Execute one task in the supervising process and absorb it.

        Used for quarantined tasks and the serial drain.  Injection-free
        (the fault plan lives only in pool workers) and bounded by the
        plan's *current* incumbent -- fresher than any dispatch-time
        limit, and pruning is monotone, so the winner is unaffected.
        """
        started = time.perf_counter()
        plan = plans[task.job_index]
        if isinstance(task, _JobTask):
            result = _solve_job(
                task.job, socs[task.job.soc], task.constraints, suppress_fanout=True
            )
            plan.absorb(None, result, time.perf_counter() - started)
            return
        assert isinstance(plan, _GridPlan)
        sets = session.rectangle_sets(plan.soc, plan.config.max_core_width)
        # Works for fat and slim grid tasks alike: the parent's plan holds
        # every run, so a slim task needs no segment attach here.
        run = plan.by_index[task.run_index]
        schedule = _execute_run(
            plan.soc,
            plan.width,
            plan.constraints or ConstraintSet.unconstrained(),
            plan.config,
            sets,
            run.point,
            run.preferred_widths,
            plan.limit(),
        )
        payload = None if schedule is None else (schedule.makespan, schedule)
        plan.absorb(task.run_index, payload, time.perf_counter() - started)

    def _drain_serial(
        self, plans: Sequence[_Plan], socs: Dict[str, Soc], session: Any
    ) -> None:
        """Run every pending task in-process, in deterministic plan order."""
        for job_index, plan in enumerate(plans):
            if isinstance(plan, _JobPlan):
                if plan.result is None:
                    self._run_task_in_process(
                        plans,
                        socs,
                        session,
                        _JobTask(
                            job_index=job_index,
                            job=plan.job,
                            constraints=plan.constraints,
                        ),
                    )
                continue
            for run in plan.runs:
                if run.index in plan.acked or plan.skippable(run):
                    continue
                self._run_task_in_process(
                    plans, socs, session, plan.make_task(job_index, run)
                )

    # -- entry points ---------------------------------------------------
    def run_jobs(
        self,
        jobs: Iterable[ScheduleJob],
        context: EngineContext,
        workers: int = 0,
        chunksize: Optional[int] = None,
    ) -> SweepResults:
        """Execute a job list on the flat queue; results in job order.

        Semantics (and results, bit for bit) match the historical
        two-layer engine for every worker count; see
        :func:`repro.engine.runner.run_jobs` for the public contract.
        """
        ordered: List[ScheduleJob] = list(jobs)
        if workers < 0:
            raise EngineError(f"workers must be non-negative, got {workers}")
        if not ordered:
            return SweepResults(())
        indexes = [job.index for job in ordered]
        if len(set(indexes)) != len(indexes):
            raise EngineError("job indexes must be unique within one sweep")
        for job in ordered:
            context.resolve(job)  # fail fast on dangling references

        pairs = {(job.soc, job.config.max_core_width) for job in ordered}
        if int(workers) <= 1:
            return self._run_serial(ordered, context, pairs)

        session = get_default_session()
        # Adaptive granularity: explode best jobs into grid-run tasks only
        # when job-level parallelism cannot fill the pool on its own.
        # With plenty of jobs, whole-job dispatch keeps the per-task IPC
        # minimal and each job's internal pruning maximally tight; with
        # few jobs (the Table 1 shape: a handful of best-over-grid cells),
        # decomposition is what creates the parallelism and shrinks
        # stragglers.  Either granularity yields bit-identical results.
        decompose = len(ordered) < 2 * int(workers)
        plans = [
            self._plan(job, context, session)
            if decompose
            else _JobPlan(job, context.resolve(job)[1])
            for job in ordered
        ]
        total_tasks = sum(plan.task_count for plan in plans)
        decomposed = sum(1 for plan in plans if isinstance(plan, _GridPlan))
        processes = min(int(workers), total_tasks)
        if processes <= 1:
            return self._run_serial(ordered, context, pairs)
        if chunksize is None:
            # Grid-run tasks are small (often sub-millisecond on compact
            # SOCs), so chunk them to amortise IPC -- the shared incumbent
            # board keeps pruning tight despite the coarser dispatch --
            # but cap the chunk so heterogeneous tails still spread.
            chunksize = _resolve_chunksize(total_tasks, processes)
        if self._fault_plan is not None:
            # Chaos runs pin chunksize to 1: a lost chunk implicates only
            # the task that actually broke the pool, keeping quarantine
            # attribution (and the tests asserting it) exact.
            chunksize = 1
        journal = _Journal()
        try:
            self._supervise(
                plans,
                dict(context.socs),
                pairs,
                processes,
                max(1, int(chunksize)),
                session,
                journal,
                "flat executor",
            )
        finally:
            self._release_plan_segments()
            self._last_failures = tuple(journal.failures)
            self._last_events = tuple(journal.events)
        results = tuple(plan.finish(session) for plan in plans)
        stats = ExecutorStats(
            jobs=len(ordered),
            decomposed_jobs=decomposed,
            tasks=total_tasks,
            workers=processes if journal.pools_created else 0,
            retries=journal.retries,
            resurrections=journal.resurrections,
            quarantined=journal.quarantined,
            board_aborts=journal.board_aborts,
            shm_tasks=journal.shm_tasks,
            payload_bytes=journal.payload_bytes,
            shm_bytes_saved=journal.shm_bytes_saved,
            recovery_events=tuple(journal.events),
            failures=tuple(journal.failures),
        )
        self._last_stats = stats
        return SweepResults(results, stats=stats)

    def run_grid_runs(
        self,
        soc: Soc,
        total_width: int,
        constraints: Optional[ConstraintSet],
        config: SchedulerConfig,
        runs: Sequence[GridRun],
        grid_points: int,
        bound: int,
        workers: int,
        rectangle_sets: Dict[str, Any],
    ) -> Tuple[
        Optional[Tuple[int, int, GridPoint, TestSchedule]],
        Tuple[RecoveryEvent, ...],
        Tuple[FailureRecord, ...],
        Optional[ExecutorStats],
    ]:
        """Fan one best-over-grid sweep out over the shared flat queue.

        The direct entry point for :func:`repro.core.grid_sweep.run_grid_sweep`
        (a ``Session.solve`` of the ``best`` solver with ``workers > 1``),
        so standalone best solves and engine sweeps share one pool.  ``runs``
        must already be deduplicated and estimate-ordered.  Returns the
        winning ``(makespan, run index, point, schedule)`` plus the run's
        recovery ladder, fault journal and execution stats (``None`` stats
        when the executor declined to run).  The winner is ``None`` only
        when the executor declines to parallelise (too few runs per
        worker); pool failures are recovered *internally* -- resurrection,
        quarantine or serial drain -- and still produce the winner, with
        the path taken reported through the events.
        """
        processes = min(int(workers), len(runs))
        if processes <= 1:
            return None, (), (), None
        pairs = {(soc.name, config.max_core_width)}
        plan = _GridPlan(
            job=None,
            soc=soc,
            soc_key=soc.name,
            width=total_width,
            constraints=constraints,
            config=config,
            runs=runs,
            grid_points=grid_points,
            bound=bound,
        )
        chunksize = _resolve_chunksize(len(runs), processes)
        if self._fault_plan is not None:
            chunksize = 1  # exact quarantine attribution under chaos
        journal = _Journal()
        session = get_default_session()
        try:
            self._supervise(
                [plan],
                {soc.name: soc},
                pairs,
                processes,
                chunksize,
                session,
                journal,
                "grid sweep",
            )
        finally:
            self._release_plan_segments()
            self._last_failures = tuple(journal.failures)
            self._last_events = tuple(journal.events)
        stats = ExecutorStats(
            jobs=1,
            decomposed_jobs=1,
            tasks=len(runs),
            workers=processes if journal.pools_created else 0,
            retries=journal.retries,
            resurrections=journal.resurrections,
            quarantined=journal.quarantined,
            board_aborts=journal.board_aborts,
            shm_tasks=journal.shm_tasks,
            payload_bytes=journal.payload_bytes,
            shm_bytes_saved=journal.shm_bytes_saved,
            recovery_events=tuple(journal.events),
            failures=tuple(journal.failures),
        )
        self._last_stats = stats
        return (
            plan.winner(rectangle_sets),
            tuple(journal.events),
            tuple(journal.failures),
            stats,
        )

    # -- serial path ----------------------------------------------------
    def _run_serial(
        self,
        jobs: Sequence[ScheduleJob],
        context: EngineContext,
        pairs: Set[Tuple[str, int]],
    ) -> SweepResults:
        """The requested-serial path (``workers <= 1``): no pool, no journal."""
        prime_context_caches(context, pairs)
        results = tuple(execute_job(job, context) for job in jobs)
        stats = ExecutorStats(
            jobs=len(jobs),
            decomposed_jobs=0,
            tasks=len(jobs),
            workers=0,
        )
        return SweepResults(results, stats=stats)


# ----------------------------------------------------------------------
# Process-wide default executor
# ----------------------------------------------------------------------
_DEFAULT_EXECUTOR: Optional[FlatExecutor] = None


def get_default_executor() -> FlatExecutor:
    """The process-wide executor (created on first use, closed at exit).

    The sweep engine's :func:`~repro.engine.runner.run_jobs` and the
    ``best`` solver's grid sweep both dispatch through this executor, so
    one warm pool serves every layer of a session.
    """
    global _DEFAULT_EXECUTOR
    if _DEFAULT_EXECUTOR is None:
        _DEFAULT_EXECUTOR = FlatExecutor()
        atexit.register(close_default_executor)
    return _DEFAULT_EXECUTOR


def close_default_executor() -> None:
    """Tear down the process-wide executor's pool (idempotent)."""
    if _DEFAULT_EXECUTOR is not None:
        _DEFAULT_EXECUTOR.close()


@contextlib.contextmanager
def use_executor(executor: FlatExecutor) -> Iterator[FlatExecutor]:
    """Temporarily install ``executor`` as the process-wide default.

    The previous default (if any) keeps its pool and is restored on exit;
    the installed executor's pool is closed.  This is how the chaos
    harness (``repro chaos``, :mod:`repro.engine.faults`) routes a whole
    solve -- grid fan-out included -- through an executor armed with a
    :class:`~repro.engine.faults.FaultPlan` and a tight task deadline
    without disturbing the session's warm default pool.

    The restore runs in a ``finally`` *before* the close, so the previous
    default comes back even when the body raises mid-dispatch and even if
    the installed executor's teardown were to misbehave (``close()`` is
    itself exception-safe); a failed solve can never leave the process
    default pointing at the temporary executor.
    """
    global _DEFAULT_EXECUTOR
    previous = _DEFAULT_EXECUTOR
    _DEFAULT_EXECUTOR = executor
    try:
        yield executor
    finally:
        _DEFAULT_EXECUTOR = previous
        executor.close()
