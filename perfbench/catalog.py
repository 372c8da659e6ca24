"""The benchmark's catalogue: workloads, metrics and bounds.

``BENCHMARK.json`` at the repository root is rendered from this module
(``python3 perfbench/catalog.py`` prints it); the benchmark's tests check
the two agree.  Which end-to-end metric each layer metric should move, and
on which workload, is the table in ``README.md``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Dict, Tuple

COMMAND = ("python3", "perfbench/run.py")
PATHS = ("perfbench",)
RUN_SECONDS = 30

WORKLOADS: Tuple[Tuple[str, str], ...] = (
    (
        "cold-solve",
        "cold CLI solve of a fresh 1000-core SOC at W=32,64 with workers=2: "
        "the wrapper-curve kernel and pool start-up dominate",
    ),
    (
        "paper-tables",
        "Table 1 and Table 2 regeneration on warm curves: scheduler event loop, "
        "grid planning and the executor's whole-job path do the work",
    ),
    (
        "serve-mix",
        "Poisson clients of repro serve at 20 rps with duplicate, near-duplicate, "
        "fresh and ITC'02 requests: admission, queue, journal, dedup and codec",
    ),
)


@dataclass(frozen=True)
class EndToEnd:
    name: str
    unit: str
    better: str
    bound: float


@dataclass(frozen=True)
class Layer:
    name: str
    unit: str
    better: str


END_TO_END: Tuple[EndToEnd, ...] = (
    EndToEnd("setup_s", "s", "lower", 0.25),
    EndToEnd("solve_p50_s", "s", "lower", 0.25),
    EndToEnd("cores_per_s", "1/s", "higher", 0.25),
    EndToEnd("cells_per_s", "1/s", "higher", 0.25),
    EndToEnd("latency_p50_s", "s", "lower", 0.25),
    EndToEnd("latency_p99_s", "s", "lower", 0.25),
    EndToEnd("goodput_rps", "1/s", "higher", 0.25),
    EndToEnd("served_share", "share", "higher", 0.02),
    EndToEnd("peak_rss_mb", "MiB", "lower", 0.1),
)

PER_LAYER: Tuple[Layer, ...] = (
    Layer("wrapper.curve_s", "s", "lower"),
    Layer("wrapper.widths_computed", "count", "lower"),
    Layer("wrapper.curve_hit_share", "share", "higher"),
    Layer("solvers.rect_hit_share", "share", "higher"),
    Layer("wrapper.cached_cores", "count", "lower"),
    Layer("session.entries", "count", "lower"),
    Layer("grid.plan_s", "s", "lower"),
    Layer("grid.unique_run_share", "share", "lower"),
    Layer("grid.early_exit_share", "share", "higher"),
    Layer("scheduler.run_s", "s", "lower"),
    Layer("schedule.validate_s", "s", "lower"),
    Layer("experiments.table1_s", "s", "lower"),
    Layer("experiments.table2_s", "s", "lower"),
    Layer("executor.speedup", "x", "higher"),
    Layer("executor.cpus", "count", "higher"),
    Layer("executor.tasks", "count", "lower"),
    Layer("executor.payload_bytes_per_task", "B", "lower"),
    Layer("executor.retries", "count", "lower"),
    Layer("executor.board_aborts", "count", "higher"),
    Layer("shm.segments_left", "count", "lower"),
    Layer("shm.tracker_errors", "count", "lower"),
    Layer("protocol.decode_s", "s", "lower"),
    Layer("protocol.fingerprint_s", "s", "lower"),
    Layer("protocol.encode_s", "s", "lower"),
    Layer("protocol.request_bytes", "B", "lower"),
    Layer("protocol.result_bytes", "B", "lower"),
    Layer("supervisor.admit_s", "s", "lower"),
    Layer("supervisor.queue_wait_p50_s", "s", "lower"),
    Layer("supervisor.queue_wait_p99_s", "s", "lower"),
    Layer("supervisor.service_p50_s", "s", "lower"),
    Layer("supervisor.service_p99_s", "s", "lower"),
    Layer("supervisor.stats_s", "s", "lower"),
    Layer("supervisor.dedup_cached_share", "share", "higher"),
    Layer("supervisor.dedup_coalesced_share", "share", "higher"),
    Layer("supervisor.max_queue_depth", "count", "lower"),
    Layer("supervisor.rejected_overloaded", "count", "lower"),
    Layer("supervisor.rejected_bad_request", "count", "lower"),
    Layer("supervisor.dedup_entries", "count", "lower"),
    Layer("journal.records", "count", "lower"),
    Layer("journal.bytes", "B", "lower"),
    Layer("journal.bytes_per_request", "B", "lower"),
    Layer("loadgen.lag_p99_s", "s", "lower"),
    Layer("process.threads", "count", "lower"),
    Layer("ops.fail_share", "share", "lower"),
    Layer("input.duplicate_share", "share", "higher"),
    Layer("input.near_duplicate_share", "share", "higher"),
    Layer("input.itc02_share", "share", "higher"),
    Layer("input.defect_share", "share", "lower"),
    Layer("gc.full_collections", "count", "lower"),
    Layer("gc.pause_max_s", "s", "lower"),
    Layer("gc.pause_total_s", "s", "lower"),
    Layer("host.calibration_s", "s", "lower"),
    Layer("tracing.overhead_share", "share", "lower"),
    Layer("trace.coverage_min", "share", "higher"),
)

END_TO_END_NAMES = tuple(metric.name for metric in END_TO_END)
PER_LAYER_NAMES = tuple(metric.name for metric in PER_LAYER)
UNITS: Dict[str, str] = {metric.name: metric.unit for metric in END_TO_END + PER_LAYER}


def benchmark_json() -> Dict[str, object]:
    """The ``BENCHMARK.json`` document."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why} for name, why in WORKLOADS],
        "end_to_end": [
            {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
            for m in END_TO_END
        ],
        "per_layer": [
            {"name": m.name, "unit": m.unit, "better": m.better} for m in PER_LAYER
        ],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
