"""``paper-tables``: regenerate the paper's tables, closed loop with one caller.

Each operation regenerates one SOC's Table 1 (``run_table1``) or its
Table 2 width sweep with the ``best`` solver
(``parallel_tam_sweep_results(..., TABLE2_WIDTHS, solver="best")``, the
form of ``parallel_tam_sweep`` that also returns the schedules), at
``workers=2``.  Each round covers the four ITC'02 SOCs plus one seeded
synthetic 50-core SOC, new in every round.  Curves and the worker pool are warmed during
set-up, so the scheduler event loop (with its preemptive and
power-constrained modes), grid planning and the executor's whole-job
path do the work.

Output gate (after the timed loop): d695 and p93791 must equal
``benchmarks/golden_makespans.json``; every other SOC must equal a
``workers=0`` serial run -- Table 1 rows by value (they carry no
schedules), Table 2 by ``schedule_fingerprint`` of every width.
"""

from __future__ import annotations

import json
import math
import os
import random
import time
from dataclasses import dataclass
from typing import Any, Dict, List, Set, Tuple

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
from repro.analysis.experiments import TABLE2_WIDTHS, run_table1
from repro.analysis.perf import cold_reset, schedule_fingerprint
from repro.engine.api import SCHEDULER_MODES, parallel_tam_sweep_results
from repro.engine.executor import get_default_executor
from repro.soc.benchmarks import get_benchmark
from repro.soc.generator import GeneratorProfile, generate_soc
from repro.soc.soc import Soc
from repro.solvers.session import get_default_session
from repro.wrapper.curve import curve_cache_info

NAME = "paper-tables"

ITC02_SOCS = ("d695", "p22810", "p34392", "p93791")
GOLDEN_SOCS = ("d695", "p93791")
SYNTHETIC_CORES = 50
#: Synthetic SOCs generated in set-up: one per expected round.  A single
#: synthetic SOC would make the run's cost swing with its seed (+-20% table
#: time between seeds); a fresh one per round averages that out.
ROUNDS_PER_SECOND = 0.3
WORKERS = 2
MAX_WIDTH = 64
TABLES = ("table1", "table2")
#: An operation within this many seconds counts toward goodput.
LATENCY_LIMIT_S = 2.0
GOLDEN_FILE = os.path.join("benchmarks", "golden_makespans.json")


@dataclass
class Inputs:
    seed: int
    seconds: float
    rng: random.Random
    itc02: List[Soc]
    #: One synthetic SOC per round, generated and warmed ahead of the round.
    synthetic: List[Soc]
    #: ``(soc slot, table)`` in the order each round runs them; slot
    #: ``len(itc02)`` is the round's synthetic SOC.
    order: List[Tuple[int, str]]

    def soc(self, round_index: int, slot: int) -> Soc:
        if slot < len(self.itc02):
            return self.itc02[slot]
        while round_index >= len(self.synthetic):  # a faster program runs more rounds
            self.synthetic.append(_synthetic(self.seed, len(self.synthetic), self.rng))
            get_default_session().rectangle_sets(self.synthetic[-1], MAX_WIDTH)
        return self.synthetic[round_index]


def _synthetic(seed: int, index: int, rng: random.Random) -> Soc:
    return generate_soc(
        rng.randrange(2**31),
        name=f"t{seed}-{index}",
        profile=GeneratorProfile(min_cores=SYNTHETIC_CORES, max_cores=SYNTHETIC_CORES),
    )


def setup(seed: int, seconds: float) -> Inputs:
    """Build the SOCs, then warm their curves and the worker pool."""
    cold_reset()
    rng = random.Random(seed)
    itc02 = [get_benchmark(name) for name in ITC02_SOCS]
    rounds = math.ceil(seconds * ROUNDS_PER_SECOND) + 1
    synthetic = [_synthetic(seed, index, rng) for index in range(rounds)]
    order = [(slot, table) for slot in range(len(itc02) + 1) for table in TABLES]
    rng.shuffle(order)
    freeze_inputs()
    session = get_default_session()
    for soc in itc02 + synthetic:
        session.rectangle_sets(soc, MAX_WIDTH)
    _table(itc02[0], "table2", WORKERS)  # starts the pool
    return Inputs(seed, seconds, rng, itc02, synthetic, order)


def input_signature(inputs: Inputs) -> List[str]:
    return [repr(soc.cores) for soc in inputs.synthetic] + [
        f"{slot}:{table}" for slot, table in inputs.order
    ]


def _table(soc: Soc, table: str, workers: int) -> Any:
    if table == "table1":
        return run_table1(soc, workers=workers)
    return parallel_tam_sweep_results(soc, TABLE2_WIDTHS, workers=workers, solver="best")


def _cells(table: str, value: Any) -> int:
    """Table 1: one cell per (width, mode); Table 2: one per width."""
    if table == "table1":
        return len(value) * len(SCHEDULER_MODES)
    return len(value[1])


def _comparable(table: str, value: Any) -> Any:
    """What the gate compares: Table 1 rows, or Table 2 values and fingerprints."""
    if table == "table1":
        return value
    sweep, results = value
    return (
        tuple(sweep.testing_times),
        tuple(sweep.data_volumes),
        tuple(schedule_fingerprint(result.schedule) for result in results),
    )


def _golden(soc: Soc, table: str, comparable: Any, golden: Dict[str, int]) -> List[str]:
    """Differences between a comparable value and the golden makespans."""
    drifts = []
    if table == "table1":
        for row in comparable:
            for field in ("lower_bound", "non_preemptive", "preemptive", "power_constrained"):
                key = f"{soc.name}/table1/{row.width}/{field}"
                if golden.get(key) != getattr(row, field):
                    drifts.append(f"{key}: golden {golden.get(key)} != {getattr(row, field)}")
    else:
        testing_times = comparable[0]
        for width, testing_time in zip(TABLE2_WIDTHS, testing_times):
            key = f"{soc.name}/table2_best/{width}"
            if golden.get(key) != testing_time:
                drifts.append(f"{key}: golden {golden.get(key)} != {testing_time}")
    return drifts


def run(inputs: Inputs, tracer: Tracer, out_dir: str) -> Dict[str, Any]:
    """Run table operations round by round until ``seconds`` have passed."""
    with open(GOLDEN_FILE, "r", encoding="utf-8") as handle:
        golden = json.load(handle)["makespans"]
    session = get_default_session()
    op_seconds: List[float] = []
    by_table: Dict[str, List[float]] = {table: [] for table in TABLES}
    by_op: Dict[Tuple[str, str], List[float]] = {}
    outputs: Dict[Tuple[str, str], List[Any]] = {}
    socs: Dict[str, Soc] = {}
    verified: Set[Tuple[str, str]] = set()
    op_cells: List[int] = []
    op_cores: List[int] = []
    sums: Dict[str, float] = {}
    curve_before = curve_cache_info()
    rect_before = session.cache_info()

    def add(name: str, value: float) -> None:
        sums[name] = sums.get(name, 0.0) + value

    budget = Budget(inputs.seconds, tracer.enabled)
    while budget.left(op_seconds):
        round_index, position = divmod(len(op_seconds), len(inputs.order))
        slot, table = inputs.order[position]
        soc = inputs.soc(round_index, slot)
        started = time.perf_counter()
        value = _table(soc, table, WORKERS)
        ended = time.perf_counter()
        stats = value[1].stats if table == "table2" else get_default_executor().last_stats
        if stats is not None:
            add("executor.tasks", stats.tasks)
            add("executor.payload_bytes", stats.payload_bytes)
            add("executor.retries", stats.retries)
            add("executor.board_aborts", stats.board_aborts)
        op_seconds.append(ended - started)
        by_table[table].append(ended - started)
        kind = soc.name if slot < len(inputs.itc02) else "synthetic"
        by_op.setdefault((kind, table), []).append(ended - started)
        outputs.setdefault((soc.name, table), []).append(_comparable(table, value))
        socs[soc.name] = soc
        op_cells.append(_cells(table, value))
        op_cores.append(len(soc.cores))
        if tracer.enabled:
            _trace_op(tracer, len(op_seconds), soc, table, value, add, started, ended)
            verified.add((soc.name, table))

    peak_rss = peak_rss_mb()
    _check(socs, outputs, golden, verified)
    operations = len(op_seconds)
    latency_tail, quantile, samples = tail(op_seconds)
    good = sum(1 for value in op_seconds if value <= LATENCY_LIMIT_S) / operations
    per_round = len(inputs.order)
    curve_after = curve_cache_info()
    rect_after = session.cache_info()
    curve_hits = curve_after.hits - curve_before.hits
    curve_lookups = curve_hits + curve_after.misses - curve_before.misses
    rect_hits = rect_after.hits - rect_before.hits
    rect_lookups = rect_hits + rect_after.misses - rect_before.misses
    end_to_end = {
        "solve_p50_s": median(op_seconds),
        "cores_per_s": median_rate(op_cores, op_seconds, per_round),
        "cells_per_s": median_rate(op_cells, op_seconds, per_round),
        "latency_p50_s": median(op_seconds),
        "latency_p99_s": latency_tail,
        "goodput_rps": good * median_rate([1] * operations, op_seconds, per_round),
        "served_share": 1.0,
        "peak_rss_mb": peak_rss,
    }
    layer_values = {
        "wrapper.widths_computed": (
            curve_after.widths_computed - curve_before.widths_computed
        ) / operations,
        "wrapper.curve_hit_share": share(curve_hits, curve_lookups),
        "solvers.rect_hit_share": share(rect_hits, rect_lookups),
        "wrapper.cached_cores": float(curve_after.cores),
        "session.entries": float(rect_after.entries),
        "experiments.table1_s": share(sum(by_table["table1"]), len(by_table["table1"])),
        "experiments.table2_s": share(sum(by_table["table2"]), len(by_table["table2"])),
        "executor.tasks": sums.get("executor.tasks", 0.0) / operations,
        "executor.payload_bytes_per_task": share(
            sums.get("executor.payload_bytes", 0.0), sums.get("executor.tasks", 0.0)
        ),
        "executor.retries": sums.get("executor.retries", 0.0),
        "executor.board_aborts": sums.get("executor.board_aborts", 0.0) / operations,
        "ops.fail_share": 0.0,
    }
    if tracer.enabled:
        layer_values.update(
            {
                "wrapper.curve_s": sums.get("wrapper.curve_s", 0.0) / operations,
                "grid.plan_s": sums["grid.plan_s"] / operations,
                "grid.unique_run_share": share(
                    sums["grid.unique_runs"], sums["grid.grid_points"]
                ),
                "grid.early_exit_share": share(sums["grid.early_exits"], sums["grid.cells"]),
                "scheduler.run_s": sums["serial_s"] / operations,
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
            f"operations={operations} cells={sum(op_cells)} socs={','.join(ITC02_SOCS)} and "
            f"{sum(name not in ITC02_SOCS for name in socs)} synthetic "
            f"{SYNTHETIC_CORES}-core SOCs, workers={WORKERS} cpus={os.cpu_count()}",
            f"latency_p99_s is the p{quantile * 100:.1f} of {samples} operations",
            "median seconds per operation: "
            + ", ".join(
                f"{kind}/{table}={median(times):.3f}"
                for (kind, table), times in sorted(by_op.items())
            ),
        ],
    }


def _check(
    socs: Dict[str, Soc],
    outputs: Dict[Tuple[str, str], List[Any]],
    golden: Dict[str, int],
    verified: Set[Tuple[str, str]],
) -> None:
    """Golden values for d695/p93791, a serial reference for the rest.

    ``verified`` names the outputs a traced run already compared with its
    ``workers=0`` repeat.
    """
    for (name, table), values in sorted(outputs.items()):
        soc = socs[name]
        if any(value != values[0] for value in values):
            raise GateFailure(f"paper-tables: {soc.name} {table} changed between rounds")
        if soc.name in GOLDEN_SOCS:
            drifts = _golden(soc, table, values[0], golden)
            if drifts:
                raise GateFailure(f"paper-tables: golden drift: {drifts[:3]}")
            continue
        if (name, table) in verified:
            continue
        reference = _comparable(table, _table(soc, table, 0))
        if reference != values[0]:
            raise GateFailure(
                f"paper-tables: {soc.name} {table} at workers={WORKERS} differs from "
                "the workers=0 serial reference"
            )


def _trace_op(
    tracer: Tracer,
    number: int,
    soc: Soc,
    table: str,
    value: Any,
    add: Any,
    started: float,
    ended: float,
) -> None:
    """Spans of one traced operation: the table call, its serial repeat, layer probes."""
    request_id = f"op{number}"
    session = get_default_session()
    misses = session.cache_info().misses
    begin = time.perf_counter()
    sets = session.rectangle_sets(soc, MAX_WIDTH)
    sets_done = time.perf_counter()
    if session.cache_info().misses > misses:
        add("wrapper.curve_s", sets_done - begin)
    serial = _table(soc, table, 0)
    serial_done = time.perf_counter()
    if _comparable(table, serial) != _comparable(table, value):
        raise GateFailure(f"paper-tables: {soc.name} {table} serial repeat differs")
    add("parallel_s", ended - started)
    add("serial_s", serial_done - sets_done)

    # Grid planning per cell, and early exits.
    plan_begin = time.perf_counter()
    if table == "table1":
        for row in value:
            for _mode in SCHEDULER_MODES:
                planned = layers.time_plan(soc, row.width, sets, {})
                add("grid.plan_s", planned["plan_s"])
                add("grid.unique_runs", planned["unique_runs"])
                add("grid.grid_points", planned["grid_points"])
            add("grid.cells", len(SCHEDULER_MODES))
            add(
                "grid.early_exits",
                sum(
                    makespan <= row.lower_bound
                    for makespan in (row.non_preemptive, row.preemptive, row.power_constrained)
                ),
            )
    else:
        _, results = value
        for result in results:
            planned = layers.time_plan(soc, result.job.width, sets, {})
            add("grid.plan_s", planned["plan_s"])
            add("grid.unique_runs", planned["unique_runs"])
            add("grid.grid_points", planned["grid_points"])
            add("grid.cells", 1)
            add("grid.early_exits", bool(dict(result.metadata).get("early_exit")))
    plan_done = time.perf_counter()
    validate = 0.0
    if table == "table2":
        for result in value[1]:
            validate += layers.time_validate(result.schedule, soc)
    validate_done = time.perf_counter()
    add("schedule.validate_s", validate)

    root = tracer.add("operation", started, validate_done, request=request_id, table=table)
    tracer.add(f"experiments.{table}", started, ended, root, request_id, workers=WORKERS)
    tracer.add("wrapper.rectangle_sets", begin, sets_done, root, request_id)
    tracer.add(f"experiments.{table}", sets_done, serial_done, root, request_id, workers=0)
    tracer.add("layers.plan", plan_begin, plan_done, root, request_id)
    tracer.add("layers.validate", plan_done, validate_done, root, request_id)
