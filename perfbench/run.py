"""Run one workload of the repo benchmark and print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload cold-solve --seed 1 --seconds 30 --trace 0

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the same
workload with spans recorded in memory, writes them to
``.perfbench_out/trace-<workload>-<seed>.json`` at the end and prints every
per-layer metric.  Each metric is printed as ``name = value unit``; the last
line of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.  A failed output check prints ``GATE FAILED``
on standard error and exits 1 without a result.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import os
import statistics
import sys
import threading
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: Set-ups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3

EXIT_GATE = 1
EXIT_USAGE = 2


def _parse(argv: list) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class _StderrCapture:
    """Send fd 2 (ours and every child's) to a file, to count tracker errors.

    The captured text is copied back to the real stderr on exit.
    """

    def __init__(self, path: str) -> None:
        self.path = path
        sys.stderr.flush()
        self._saved = os.dup(2)
        self._file = open(path, "w+b")
        os.dup2(self._file.fileno(), 2)

    def release(self) -> str:
        sys.stderr.flush()
        os.dup2(self._saved, 2)
        os.close(self._saved)
        self._file.seek(0)
        text = self._file.read().decode("utf-8", "replace")
        self._file.close()
        os.unlink(self.path)
        sys.stderr.write(text)
        sys.stderr.flush()
        return text


def _stop_children() -> None:
    """Close the pool and the shared-memory resource tracker; reap children."""
    from multiprocessing import resource_tracker

    from repro.engine.executor import close_default_executor

    close_default_executor()
    tracker = getattr(resource_tracker, "_resource_tracker", None)
    stop = getattr(tracker, "_stop", None)
    if stop is not None:
        stop()  # waits for the tracker to exit, flushing its stderr
    for child in multiprocessing.active_children():
        child.join(timeout=10.0)


def main(argv: list) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no repro package under {SRC}; run from a full checkout",
              file=sys.stderr)
        return EXIT_USAGE
    sys.path.insert(0, SRC)
    sys.path.insert(0, ROOT)
    os.chdir(ROOT)

    from perfbench import catalog, cold_solve, paper_tables, serve_mix
    from perfbench.common import (
        COVERAGE_TOLERANCE,
        GateFailure,
        GcPauses,
        Tracer,
        host_calibration_seconds,
        shm_segments,
        span_cost_seconds,
    )

    workloads = {module.NAME: module for module in (cold_solve, paper_tables, serve_mix)}
    module = workloads.get(args.workload)
    if module is None:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads)}", file=sys.stderr)
        return EXIT_USAGE
    if args.seconds <= 0:
        print("perfbench: --seconds must be positive", file=sys.stderr)
        return EXIT_USAGE

    os.makedirs(OUT_DIR, exist_ok=True)
    capture = _StderrCapture(os.path.join(OUT_DIR, f"stderr-{os.getpid()}.txt"))
    segments_before = shm_segments()
    tracer = Tracer(enabled=bool(args.trace))
    calibration = [host_calibration_seconds()]
    try:
        setup_seconds = []
        for _ in range(SETUP_REPEATS):
            started = time.perf_counter()
            inputs = module.setup(args.seed, args.seconds)
            setup_seconds.append(time.perf_counter() - started)
        started = time.perf_counter()
        with GcPauses() as gc_pauses:
            outcome = module.run(inputs, tracer, OUT_DIR)
        run_wall = time.perf_counter() - started
    except GateFailure as failure:
        _stop_children()
        capture.release()
        print(f"GATE FAILED: {failure}", file=sys.stderr)
        return EXIT_GATE
    except BaseException:
        _stop_children()
        capture.release()
        raise
    threads = threading.active_count()
    calibration.append(host_calibration_seconds())
    _stop_children()
    stderr_text = capture.release()
    segments_left = len(shm_segments() - segments_before)
    tracker_errors = sum(
        1 for line in stderr_text.splitlines() if line.startswith("KeyError: '/psm_")
    )

    end_to_end = dict(outcome["end_to_end"])
    end_to_end["setup_s"] = statistics.median(setup_seconds)
    layer_values = {name: 0.0 for name in catalog.PER_LAYER_NAMES}
    layer_values.update(outcome["layers"])
    layer_values.update(gc_pauses.metrics())
    layer_values.update(
        {
            "executor.cpus": float(os.cpu_count() or 1),
            "host.calibration_s": statistics.mean(calibration),
            "process.threads": float(threads),
            "shm.segments_left": float(segments_left),
            "shm.tracker_errors": float(tracker_errors),
        }
    )
    notes = list(outcome["notes"])
    if tracer.enabled:
        coverage = tracer.coverage()
        layer_values["trace.coverage_min"] = min(coverage) if coverage else 0.0
        layer_values["tracing.overhead_share"] = (
            len(tracer.spans) * span_cost_seconds() / run_wall
        )
        trace_path = os.path.join(OUT_DIR, f"trace-{args.workload}-{args.seed}.json")
        tracer.write(trace_path)
        notes.append(
            f"trace: {len(tracer.spans)} spans, {len(coverage)} operations -> "
            f"{os.path.relpath(trace_path, ROOT)}"
        )
        if not coverage or min(coverage) < 1.0 - COVERAGE_TOLERANCE:
            print(
                f"GATE FAILED: spans cover {min(coverage or [0.0]):.3f} of an operation's "
                f"wall time, below 1 - {COVERAGE_TOLERANCE}",
                file=sys.stderr,
            )
            return EXIT_GATE

    names = catalog.PER_LAYER_NAMES if tracer.enabled else catalog.END_TO_END_NAMES
    values = layer_values if tracer.enabled else end_to_end
    unknown = set(values) - set(catalog.END_TO_END_NAMES + catalog.PER_LAYER_NAMES)
    if unknown:
        raise KeyError(f"metrics missing from the catalogue: {sorted(unknown)}")
    bounded = {
        "journal.records", "journal.bytes", "wrapper.cached_cores", "session.entries",
        "supervisor.dedup_entries", "process.threads", "shm.segments_left",
        "shm.tracker_errors",
    }
    notes.append(
        "host calibration loop: "
        + " -> ".join(f"{seconds:.3f}s" for seconds in calibration)
        + " (start -> end of run; a slower host shows here, not in the program)"
    )
    for note in notes:
        print(f"# {note}")
    if not tracer.enabled:
        print("# bounded state: " + ", ".join(
            f"{name}={layer_values[name]:g}" for name in sorted(bounded)))
    metrics = {}
    for name in names:
        value = float(values[name])
        unit = catalog.UNITS[name]
        print(f"{name} = {value:.6g} {unit}")
        metrics[name] = {"value": value, "unit": unit}
    print(json.dumps({
        "correct": True,
        "attempted": int(outcome["attempted"]),
        "failed": int(outcome["failed"]),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
