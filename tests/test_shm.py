"""Tests for the zero-copy shared-memory payload plane (repro.engine.shm).

Four contracts are pinned here:

* **Round trips.**  A published plan/universe segment reproduces the
  exact points, preferred-width vectors, configs and curve tables on the
  attach side; the worker attach cache is an LRU capped at
  ``_PLAN_CACHE_LIMIT`` entries.
* **Guarded lifecycle.**  ``ShmSegment.close()`` is idempotent, the
  ``weakref.finalize`` reclaims abandoned segments, and a pooled run
  leaves no plan segment published behind it.
* **Bit-identity.**  Grid sweeps through the shm plane -- including
  mid-run incumbent aborts at aggressive poll cadences, chaos fault
  plans, and every chunk size -- match the serial reference
  record-for-record (schedules by fingerprint), with the payload-plane
  counters visible on the outcome but excluded from equality.
* **Knob resolution.**  ``REPRO_CHUNK_SIZE`` / ``REPRO_BOARD_POLL``
  override the derived chunk size and abort cadence, rejecting
  malformed values with the canonical :class:`EngineError`.
"""

import gc
import os
import subprocess
import sys
import textwrap

import pytest

import repro.engine.executor as executor_module
from repro.analysis.perf import schedule_fingerprint
from repro.core.grid_sweep import run_grid_sweep
from repro.core.scheduler import SchedulerConfig
from repro.engine import shm
from repro.engine.executor import (
    DEFAULT_BOARD_POLL,
    ENV_BOARD_POLL,
    ENV_CHUNK_SIZE,
    FlatExecutor,
    _resolve_board_poll,
    _resolve_chunksize,
    use_executor,
)
from repro.engine.faults import FaultPlan
from repro.engine.jobs import EngineError
from repro.soc.benchmarks import get_benchmark
from repro.solvers import ScheduleRequest
from repro.solvers.session import get_default_session

SMALL_GRID = {"percents": (1, 10, 40), "deltas": (0, 2), "slacks": (0, 3)}
TRIM_GRID = {"percents": (1, 25), "deltas": (0,), "slacks": (3, 6)}


def make_runs(count, cores, base=100):
    """Synthetic deduplicated grid runs with distinct vectors."""
    from repro.core.grid_sweep import GridPoint, GridRun

    return tuple(
        GridRun(
            index=i,
            point=GridPoint(percent=float(i + 1), delta=i % 3, slack=i % 5),
            preferred_widths=tuple(base + i * cores + c for c in range(cores)),
        )
        for i in range(count)
    )


def sweep_identical(left, right):
    return (
        left == right
        and left.makespan == right.makespan
        and left.winner == right.winner
        and schedule_fingerprint(left.schedule)
        == schedule_fingerprint(right.schedule)
    )


@pytest.fixture(autouse=True)
def _clean_worker_cache():
    """Each test starts and ends with an empty in-process attach cache."""
    shm.release_worker_segments()
    yield
    shm.release_worker_segments()


# ----------------------------------------------------------------------
# Plan segments: publish / attach round trip and the worker LRU
# ----------------------------------------------------------------------
class TestPlanRoundTrip:
    def test_publish_load_reproduces_every_run(self):
        runs = make_runs(7, cores=11)
        config = SchedulerConfig(percent=3.0, delta=1, insertion_slack=4)
        segment = shm.publish_plan("d695", 32, None, config, runs)
        try:
            payload = shm.load_plan(segment.name)
            assert payload.soc == "d695"
            assert payload.width == 32
            assert payload.constraints is None
            assert payload.config == config
            for run in runs:
                point, vector = payload.run(run.index)
                assert point == run.point
                assert vector == run.preferred_widths
        finally:
            shm.release_worker_segments()
            segment.close()

    def test_empty_and_single_run_plans(self):
        config = SchedulerConfig()
        for runs in (make_runs(0, cores=0), make_runs(1, cores=4)):
            segment = shm.publish_plan("soc", 16, None, config, runs)
            try:
                payload = shm.load_plan(segment.name)
                for run in runs:
                    assert payload.run(run.index) == (
                        run.point,
                        run.preferred_widths,
                    )
            finally:
                shm.release_worker_segments()
                segment.close()

    def test_mismatched_vector_lengths_rejected(self):
        from repro.core.grid_sweep import GridPoint, GridRun

        runs = (
            GridRun(index=0, point=GridPoint(1.0, 0, 0), preferred_widths=(1, 2)),
            GridRun(index=1, point=GridPoint(2.0, 0, 0), preferred_widths=(1,)),
        )
        with pytest.raises(ValueError, match="vector length"):
            shm.publish_plan("soc", 16, None, SchedulerConfig(), runs)

    def test_attach_cache_is_an_lru(self):
        config = SchedulerConfig()
        segments = [
            shm.publish_plan(f"soc{i}", 16, None, config, make_runs(2, cores=3))
            for i in range(shm._PLAN_CACHE_LIMIT + 3)
        ]
        try:
            for segment in segments:
                shm.load_plan(segment.name)
            hits, misses, entries = shm.plan_cache_info()
            assert entries == shm._PLAN_CACHE_LIMIT
            # Re-loading the newest is a hit; the evicted oldest re-attaches.
            before_hits = hits
            shm.load_plan(segments[-1].name)
            assert shm.plan_cache_info()[0] == before_hits + 1
            shm.load_plan(segments[0].name)
            assert shm.plan_cache_info()[2] == shm._PLAN_CACHE_LIMIT
        finally:
            shm.release_worker_segments()
            for segment in segments:
                segment.close()

    def test_release_worker_segments_is_idempotent(self):
        segment = shm.publish_plan(
            "soc", 16, None, SchedulerConfig(), make_runs(2, cores=3)
        )
        try:
            shm.load_plan(segment.name)
            shm.release_worker_segments()
            shm.release_worker_segments()
            assert shm.plan_cache_info()[2] == 0
        finally:
            segment.close()


# ----------------------------------------------------------------------
# Universe segments: SOCs plus warmed curve tables
# ----------------------------------------------------------------------
class TestUniverseRoundTrip:
    def test_adopt_returns_identical_universe(self):
        soc = get_benchmark("d695")
        # Warm the parent's curve tables so the segment actually carries
        # them (adopt re-seeds; results must be unaffected either way).
        get_default_session().solve(
            ScheduleRequest(soc=soc, total_width=16, solver="paper")
        )
        segment = shm.publish_universe({soc.name: soc})
        try:
            adopted = shm.adopt_universe(segment.name)
            assert set(adopted) == {soc.name}
            assert adopted[soc.name] == soc
        finally:
            segment.close()

    def test_adopted_universe_solves_identically(self):
        soc = get_benchmark("d695")
        reference = get_default_session().solve(
            ScheduleRequest(soc=soc, total_width=24, solver="paper")
        )
        segment = shm.publish_universe({soc.name: soc})
        try:
            adopted = shm.adopt_universe(segment.name)
        finally:
            segment.close()
        again = get_default_session().solve(
            ScheduleRequest(soc=adopted[soc.name], total_width=24, solver="paper")
        )
        assert again.makespan == reference.makespan
        assert schedule_fingerprint(again.schedule) == schedule_fingerprint(
            reference.schedule
        )


# ----------------------------------------------------------------------
# Guarded lifecycle: idempotent close, finalizer, no leaked segments
# ----------------------------------------------------------------------
class TestSegmentLifecycle:
    def test_close_unlinks_and_is_idempotent(self):
        segment = shm.publish_plan(
            "soc", 16, None, SchedulerConfig(), make_runs(2, cores=3)
        )
        name = segment.name
        assert segment.alive
        segment.close()
        segment.close()
        assert not segment.alive
        with pytest.raises(FileNotFoundError):
            shm.load_plan(name)

    def test_abandoned_segment_is_finalized(self):
        segment = shm.publish_plan(
            "soc", 16, None, SchedulerConfig(), make_runs(2, cores=3)
        )
        name = segment.name
        del segment
        gc.collect()
        with pytest.raises(FileNotFoundError):
            shm.load_plan(name)

    def test_pooled_sweep_releases_its_plan_segments(self):
        soc = get_benchmark("d695")
        executor = FlatExecutor()
        try:
            with use_executor(executor):
                outcome = run_grid_sweep(soc, 32, workers=2, **SMALL_GRID)
            assert outcome.payload_bytes > 0
            assert executor._plan_segments == []
        finally:
            executor.close()

    def test_cold_pooled_solves_leave_tracker_and_dev_shm_clean(self):
        # Workers share the parent's resource tracker: a worker-side
        # unregister would make the parent's unlink log a KeyError.
        script = textwrap.dedent(
            """
            from repro.analysis.perf import cold_reset
            from repro.soc.generator import GeneratorProfile, generate_soc
            from repro.solvers import ScheduleRequest, Session

            soc = generate_soc(3, name="t", profile=GeneratorProfile(min_cores=60, max_cores=60))
            options = {"percents": (1, 25), "deltas": (0,), "slacks": (3, 6), "workers": 2}
            for _ in range(2):
                cold_reset()
                Session().solve(
                    ScheduleRequest(soc=soc, total_width=32, solver="best", options=options)
                )
            """
        )
        before = _psm_segments()
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
        done = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, env=env,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        noisy = [
            line for line in done.stderr.splitlines()
            if "resource_tracker" in line or "KeyError" in line
        ]
        assert noisy == []
        assert _psm_segments() - before == set()


def _psm_segments():
    """Names of the multiprocessing shared-memory segments present now."""
    try:
        return {name for name in os.listdir("/dev/shm") if name.startswith("psm_")}
    except OSError:
        return set()


# ----------------------------------------------------------------------
# Bit-identity through the shm plane
# ----------------------------------------------------------------------
class TestShmBitIdentity:
    @pytest.mark.parametrize(
        "soc_name,width,grid",
        [("d695", 32, SMALL_GRID), ("p93791", 64, TRIM_GRID)],
    )
    def test_worker_counts_match_serial_reference(self, soc_name, width, grid):
        soc = get_benchmark(soc_name)
        serial = run_grid_sweep(soc, width, **grid)
        assert serial.payload_bytes == 0  # serial path never dispatches
        for workers in (1, 2, 4):
            parallel = run_grid_sweep(soc, width, workers=workers, **grid)
            assert sweep_identical(parallel, serial)
            if workers >= 2:
                # The shm plane engaged: slim tasks crossed the pipe and
                # each saved pickled bytes against the fat payload.
                assert parallel.payload_bytes > 0
                assert parallel.shm_bytes_saved > 0

    def test_aggressive_board_poll_stays_identical(self, monkeypatch):
        soc = get_benchmark("d695")
        serial = run_grid_sweep(soc, 32, **SMALL_GRID)
        for poll in ("1", "0"):
            monkeypatch.setenv(ENV_BOARD_POLL, poll)
            executor = FlatExecutor()
            try:
                with use_executor(executor):
                    swept = run_grid_sweep(soc, 32, workers=2, **SMALL_GRID)
                assert sweep_identical(swept, serial)
                if poll == "0":
                    assert swept.board_aborts == 0  # checkpoint disabled
            finally:
                executor.close()

    def test_chaos_plan_with_shm_and_aborts_stays_identical(self, monkeypatch):
        # Faults and mid-run aborts compose: kills/exceptions re-dispatch
        # slim shm tasks, the board checkpoint fires every event, and the
        # result still matches the fault-free serial reference.
        monkeypatch.setenv(ENV_BOARD_POLL, "1")
        soc = get_benchmark("d695")
        serial = run_grid_sweep(soc, 32, **SMALL_GRID)
        plan = FaultPlan.from_dict(
            {
                "faults": [
                    {"kind": "exception", "match": ":r0", "attempts": [1]},
                    {"kind": "kill", "match": ":r2", "attempts": [1]},
                ]
            }
        )
        executor = FlatExecutor(
            fault_plan=plan, task_deadline=10.0, retry_backoff=0.0
        )
        try:
            with use_executor(executor):
                swept = run_grid_sweep(soc, 32, workers=2, **SMALL_GRID)
            assert sweep_identical(swept, serial)
        finally:
            executor.close()

    def test_spawn_pool_adopts_universe_and_stays_identical(self, monkeypatch):
        # Under spawn the universe (SOCs + warmed curve tables) travels by
        # shared memory instead of pickled initargs; workers adopt it in
        # the initializer and results still match the serial reference.
        import multiprocessing

        monkeypatch.setattr(
            executor_module,
            "preferred_pool_context",
            lambda: multiprocessing.get_context("spawn"),
        )
        soc = get_benchmark("d695")
        serial = run_grid_sweep(soc, 32, **TRIM_GRID)
        executor = FlatExecutor()
        try:
            with use_executor(executor):
                swept = run_grid_sweep(soc, 32, workers=2, **TRIM_GRID)
            assert sweep_identical(swept, serial)
            assert swept.payload_bytes > 0
        finally:
            executor.close()

    @pytest.mark.parametrize("chunk", ["1", "5", "999"])
    def test_every_chunk_size_stays_identical(self, monkeypatch, chunk):
        monkeypatch.setenv(ENV_CHUNK_SIZE, chunk)
        soc = get_benchmark("d695")
        serial = run_grid_sweep(soc, 32, **SMALL_GRID)
        swept = run_grid_sweep(soc, 32, workers=2, **SMALL_GRID)
        assert sweep_identical(swept, serial)

    def test_watchdog_arms_at_derived_chunk_sizes(self, monkeypatch):
        # A hang inside a multi-task chunk must still trip the watchdog
        # and resurrect the pool without losing the chunk's results.
        monkeypatch.setenv(ENV_CHUNK_SIZE, "4")
        soc = get_benchmark("d695")
        serial = run_grid_sweep(soc, 32, **SMALL_GRID)
        plan = FaultPlan.from_dict(
            {"faults": [{"kind": "hang", "match": ":r1", "attempts": [1],
                         "seconds": 30.0}]}
        )
        executor = FlatExecutor(
            fault_plan=plan, task_deadline=1.0, retry_backoff=0.0
        )
        try:
            with use_executor(executor):
                swept = run_grid_sweep(soc, 32, workers=2, **SMALL_GRID)
            assert sweep_identical(swept, serial)
            assert swept.recovery_events  # the stall was journalled
        finally:
            executor.close()


# ----------------------------------------------------------------------
# Knob resolution: chunk size and board-poll cadence
# ----------------------------------------------------------------------
class TestKnobResolution:
    def test_chunksize_derivation(self, monkeypatch):
        monkeypatch.delenv(ENV_CHUNK_SIZE, raising=False)
        assert _resolve_chunksize(3, 2) == 1  # short queues stay unbatched
        assert _resolve_chunksize(100, 4) == 2
        assert _resolve_chunksize(5000, 4) == 64  # capped
        assert _resolve_chunksize(0, 0) == 1

    def test_chunksize_override(self, monkeypatch):
        monkeypatch.setenv(ENV_CHUNK_SIZE, "7")
        assert _resolve_chunksize(5000, 4) == 7
        monkeypatch.setenv(ENV_CHUNK_SIZE, "0")
        with pytest.raises(EngineError, match="must be positive"):
            _resolve_chunksize(100, 4)
        monkeypatch.setenv(ENV_CHUNK_SIZE, "many")
        with pytest.raises(EngineError, match="not an integer"):
            _resolve_chunksize(100, 4)

    def test_board_poll_resolution(self, monkeypatch):
        monkeypatch.delenv(ENV_BOARD_POLL, raising=False)
        assert _resolve_board_poll(None) == DEFAULT_BOARD_POLL
        assert _resolve_board_poll(0) == 0
        assert _resolve_board_poll(3) == 3
        monkeypatch.setenv(ENV_BOARD_POLL, "5")
        assert _resolve_board_poll(None) == 5
        monkeypatch.setenv(ENV_BOARD_POLL, "never")
        with pytest.raises(EngineError, match="not an integer"):
            _resolve_board_poll(None)
        with pytest.raises(EngineError, match="non-negative"):
            _resolve_board_poll(-1)
