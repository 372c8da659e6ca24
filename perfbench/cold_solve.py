"""``cold-solve``: a cold CLI solve, closed loop with one caller.

Each operation is ``cold_reset()``, a fresh ``Session`` and a ``best``
solve at W=32 and W=64 with the ``scale`` suite's trimmed grid at
``workers=2``, on a newly generated 1000-core SOC.  The wrapper-curve
kernel does most of the work; pool start-up and the decomposed
shared-memory grid tasks are on the critical path.

Output gate: every schedule must fingerprint identically to a
``workers=0`` serial solve of the same request (taken outside the
operation's timed region).
"""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List

from perfbench import layers
from perfbench.common import (
    Budget,
    GateFailure,
    Tracer,
    freeze_inputs,
    median,
    median_rate,
    peak_rss_mb,
    share,
    tail,
)
from repro.analysis.perf import cold_reset, schedule_fingerprint
from repro.engine.executor import get_default_executor
from repro.soc.generator import GeneratorProfile, generate_soc
from repro.soc.soc import Soc
from repro.solvers import ScheduleRequest, Session
from repro.wrapper.curve import curve_cache_info

NAME = "cold-solve"

CORES = 1000
WIDTHS = (32, 64)
WORKERS = 2
#: The ``scale`` suite's trimmed grid.
OPTIONS = {"percents": (1, 25), "deltas": (0,), "slacks": (3, 6)}
#: An operation within this many seconds counts toward goodput.
LATENCY_LIMIT_S = 5.0
#: SOCs generated up front; an operation takes about 3 s on a 2-CPU host.
SOCS_PER_SECOND = 0.4


@dataclass
class Inputs:
    seed: int
    seconds: float
    rng: random.Random
    socs: List[Soc]

    def soc(self, index: int) -> Soc:
        while index >= len(self.socs):  # a faster program needs more inputs
            self.socs.append(_generate(self.seed, len(self.socs), self.rng))
        return self.socs[index]


def _generate(seed: int, index: int, rng: random.Random) -> Soc:
    return generate_soc(
        rng.randrange(2**31),
        name=f"c{seed}-{index}",
        profile=GeneratorProfile(min_cores=CORES, max_cores=CORES),
    )


def setup(seed: int, seconds: float) -> Inputs:
    """Generate the SOCs of the run."""
    rng = random.Random(seed)
    count = math.ceil(seconds * SOCS_PER_SECOND) + 1
    inputs = Inputs(seed, seconds, rng, [_generate(seed, index, rng) for index in range(count)])
    freeze_inputs()
    return inputs


def input_signature(inputs: Inputs) -> List[str]:
    return [repr(soc.cores[:3]) for soc in inputs.socs]


def _request(soc: Soc, width: int, workers: int) -> ScheduleRequest:
    return ScheduleRequest(
        soc=soc, total_width=width, solver="best", options={**OPTIONS, "workers": workers}
    )


def run(inputs: Inputs, tracer: Tracer, out_dir: str) -> Dict[str, Any]:
    """Run operations until ``seconds`` of operation time have passed."""
    op_seconds: List[float] = []
    sums: Dict[str, float] = {}

    def add(name: str, value: float) -> None:
        sums[name] = sums.get(name, 0.0) + value

    budget = Budget(inputs.seconds, tracer.enabled)
    while budget.left(op_seconds):
        index = len(op_seconds)
        soc = inputs.soc(index)
        request_id = f"op{index}"
        started = time.perf_counter()
        cold_reset()
        reset_done = time.perf_counter()
        session = Session()
        sets_done = curve_done = time.perf_counter()
        if tracer.enabled:
            session.rectangle_sets(soc, max(WIDTHS))
            curve_done = time.perf_counter()
        results = []
        solve_spans = []
        tasks = payload = 0
        for width in WIDTHS:
            begin = time.perf_counter()
            results.append(session.solve(_request(soc, width, WORKERS)))
            solve_spans.append((begin, time.perf_counter(), width))
            stats = get_default_executor().last_stats
            if stats is not None:
                tasks += stats.tasks
                payload += stats.payload_bytes
                add("executor.retries", stats.retries)
                add("executor.board_aborts", stats.board_aborts)
        ended = time.perf_counter()
        if index == 0:
            # One cold solve, as a CLI process reaches it; read before the gate.
            peak_rss = peak_rss_mb()
        curve_info = curve_cache_info()

        # Output gate, outside the timed operation: the serial reference.
        serial_spans = []
        for result, width in zip(results, WIDTHS):
            begin = time.perf_counter()
            reference = session.solve(_request(soc, width, 0))
            serial_spans.append((begin, time.perf_counter(), width))
            if schedule_fingerprint(result.schedule) != schedule_fingerprint(
                reference.schedule
            ):
                raise GateFailure(
                    f"cold-solve: {soc.name} W={width} workers={WORKERS} differs from "
                    "the workers=0 serial reference"
                )
        op_seconds.append(ended - started)
        add("executor.tasks", tasks)
        add("executor.payload_bytes", payload)
        add("grid.unique_runs", sum(r.metadata["unique_runs"] for r in results))
        add("grid.grid_points", sum(r.metadata["grid_points"] for r in results))
        add("grid.early_exits", sum(bool(r.metadata["early_exit"]) for r in results))
        add("wrapper.widths_computed", curve_info.widths_computed)
        add("wrapper.curve_hits", curve_info.hits)
        add("wrapper.curve_misses", curve_info.misses)
        if tracer.enabled:
            _trace_op(
                tracer, request_id, soc, session, results, add,
                started, reset_done, sets_done, curve_done, solve_spans, serial_spans,
            )

    operations = len(op_seconds)
    latency_tail, quantile, samples = tail(op_seconds)
    good = sum(1 for value in op_seconds if value <= LATENCY_LIMIT_S) / operations
    end_to_end = {
        "solve_p50_s": median(op_seconds),
        "cores_per_s": median_rate([CORES] * operations, op_seconds),
        "cells_per_s": median_rate([len(WIDTHS)] * operations, op_seconds),
        "latency_p50_s": median(op_seconds),
        "latency_p99_s": latency_tail,
        "goodput_rps": good * median_rate([1] * operations, op_seconds),
        "served_share": 1.0,
        "peak_rss_mb": peak_rss,
    }
    session_info = session.cache_info()
    layer_values = {
        "wrapper.widths_computed": sums["wrapper.widths_computed"] / operations,
        "wrapper.curve_hit_share": share(
            sums["wrapper.curve_hits"],
            sums["wrapper.curve_hits"] + sums["wrapper.curve_misses"],
        ),
        "wrapper.cached_cores": float(curve_cache_info().cores),
        "session.entries": float(session_info.entries),
        "grid.unique_run_share": share(sums["grid.unique_runs"], sums["grid.grid_points"]),
        "grid.early_exit_share": share(sums["grid.early_exits"], operations * len(WIDTHS)),
        "executor.tasks": sums["executor.tasks"] / operations,
        "executor.payload_bytes_per_task": share(
            sums["executor.payload_bytes"], sums["executor.tasks"]
        ),
        "executor.retries": sums.get("executor.retries", 0.0),
        "executor.board_aborts": sums.get("executor.board_aborts", 0.0) / operations,
        "ops.fail_share": 0.0,
    }
    if tracer.enabled:
        layer_values.update(
            {
                "wrapper.curve_s": sums["wrapper.curve_s"] / operations,
                "solvers.rect_hit_share": share(
                    sums["solvers.rect_hits"],
                    sums["solvers.rect_hits"] + sums["solvers.rect_misses"],
                ),
                "grid.plan_s": sums["grid.plan_s"] / operations,
                "scheduler.run_s": sums["scheduler.run_s"] / operations,
                "schedule.validate_s": sums["schedule.validate_s"] / operations,
                "executor.speedup": share(sums["serial_s"], sums["parallel_s"]),
            }
        )
    return {
        "attempted": operations,
        "failed": 0,
        "end_to_end": end_to_end,
        "layers": layer_values,
        "notes": [
            f"operations={operations} of {CORES} cores, W={WIDTHS}, workers={WORKERS}, "
            f"cpus={os.cpu_count()}",
            f"latency_p99_s is the p{quantile * 100:.1f} of {samples} operations",
        ],
    }


def _trace_op(
    tracer: Tracer,
    request_id: str,
    soc: Soc,
    session: Session,
    results: List[Any],
    add: Any,
    started: float,
    reset_done: float,
    sets_done: float,
    curve_done: float,
    solve_spans: List[tuple],
    serial_spans: List[tuple],
) -> None:
    """Spans of one traced operation, plus its single-layer timings."""
    info = session.cache_info()
    add("solvers.rect_hits", info.hits)
    add("solvers.rect_misses", info.misses)
    add("wrapper.curve_s", curve_done - sets_done)
    add("parallel_s", sum(end - begin for begin, end, _ in solve_spans))
    add("serial_s", sum(end - begin for begin, end, _ in serial_spans))
    sets = session.rectangle_sets(soc, max(WIDTHS))
    probes = []
    for result, width in zip(results, WIDTHS):
        begin = time.perf_counter()
        plan = layers.time_plan(soc, width, sets, OPTIONS)
        scheduler = layers.time_scheduler(soc, width, "best", sets, OPTIONS)
        validate = layers.time_validate(result.schedule, soc)
        probes.append((begin, time.perf_counter(), width))
        add("grid.plan_s", plan["plan_s"])
        add("scheduler.run_s", scheduler["run_s"])
        add("schedule.validate_s", validate)
    ended = time.perf_counter()
    root = tracer.add("operation", started, ended, request=request_id, cores=len(soc.cores))
    tracer.add("analysis.cold_reset", started, reset_done, root, request_id)
    tracer.add("solvers.Session", reset_done, sets_done, root, request_id)
    tracer.add("wrapper.rectangle_sets", sets_done, curve_done, root, request_id)
    for begin, end, width in solve_spans:
        tracer.add("solvers.solve", begin, end, root, request_id, width=width, workers=WORKERS)
    for begin, end, width in serial_spans:
        tracer.add("solvers.solve", begin, end, root, request_id, width=width, workers=0)
    for begin, end, width in probes:
        tracer.add("layers.plan_schedule_validate", begin, end, root, request_id, width=width)
