"""Command-line interface: ``repro-soc-test`` (or ``python -m repro``).

Subcommands
-----------
``benchmarks``
    List the built-in benchmark SOCs and their headline statistics.
``solvers``
    List every registered solver with its capability metadata.
``solve``
    Solve one SOC at one TAM width with any registered solver (the
    ``solve(ScheduleRequest)`` front door of :mod:`repro.solvers`);
    ``--json`` prints the full result as JSON.
``pareto``
    Print the testing-time staircase and Pareto-optimal widths of one core
    (Figure 1 of the paper).
``schedule``
    Schedule one SOC at one TAM width and print the resulting Gantt chart;
    ``--solver`` picks any schedule-producing registry solver.
``table1``
    Regenerate Table 1 (lower bound / non-preemptive / preemptive /
    power-constrained testing times).
``table2``
    Regenerate Table 2 (effective TAM widths for tester data volume
    reduction).
``sweep``
    Run a parameter sweep on the parallel sweep engine: the ``T(W)`` /
    ``D(W)`` curves of Figure 9 (default), or the full Table 1 / Table 2
    experiments, optionally across ``--workers`` processes and exported to
    CSV/JSON.
``bench``
    Run one perf-trajectory suite (``curves``, ``solve``, ``sweep`` or
    ``scale``) and emit a machine-readable ``BENCH_<suite>.json`` report:
    per-phase wall times, cache statistics and schedule makespans for
    integrity.
    ``--check-golden FILE`` fails (exit 1) when makespans or schedule
    fingerprints drift from the checked-in golden values.  Refuses to
    write the report while the wire format has unreviewed drift (REP005).
``chaos``
    Prove fault tolerance deterministically: solve one SOC serially
    (fault-free reference), re-solve it on a dedicated parallel executor
    armed with a :class:`~repro.engine.faults.FaultPlan` (worker kills,
    injected exceptions, hangs, pool-creation failures), and fail
    (exit 1) unless the faulted run's schedule is byte-identical to the
    reference.  ``--journal`` exports the structured fault journal
    (failures + recovery-ladder events) as JSON; ``--check-golden``
    additionally pins the makespan/fingerprint against the checked-in
    golden file.  ``--serve`` runs the service-level scenarios instead
    (worker kill mid-request, client disconnect, server kill + journal
    replay, queue flood) against an in-process supervisor, asserting
    byte-identity against batch ``Session.solve``.
``serve``
    Run the supervised scheduling service: JSONL requests over stdio
    (default) or a TCP listener, with admission control (bounded queue,
    explicit ``overloaded`` rejections), queue-depth backpressure
    reporting, per-request deadlines with mid-solve cancellation,
    fingerprint dedup/coalescing and a write-ahead ``--journal`` that
    makes a killed-and-restarted server replay losslessly.
``lint``
    Run the determinism & fork-safety static-analysis suite
    (:mod:`repro.staticcheck`) over the source tree; ``--json`` emits the
    findings as JSON, ``--list-rules`` documents the rule set, and
    ``--write-wire-schema`` regenerates the pinned wire-format snapshot
    after a reviewed change.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.analysis.experiments import figure1_staircase, run_table1, run_table2
from repro.analysis.export import save_csv, sweep_to_csv, table1_to_csv, table2_to_csv
from repro.analysis.reporting import (
    ascii_plot,
    format_figure_series,
    table1_to_text,
    table2_to_text,
)
from repro.core.lower_bounds import lower_bound
from repro.core.scheduler import SchedulerConfig
from repro.engine.api import parallel_tam_sweep_results
from repro.schedule.gantt import render_gantt
from repro.soc.benchmarks import get_benchmark, list_benchmarks
from repro.soc.constraints import ConstraintSet
from repro.soc.itc02 import load_soc
from repro.soc.soc import Soc
from repro.solvers import (
    ScheduleRequest,
    SolverError,
    default_registry,
    get_default_session,
)


def _load(args: argparse.Namespace) -> Tuple[Soc, Optional[ConstraintSet]]:
    """Resolve the SOC named on the command line (benchmark name or file path)."""
    name = args.soc
    if name in list_benchmarks():
        return get_benchmark(name), None
    soc, constraints = load_soc(name)
    return soc, constraints


def _add_soc_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "soc",
        help="benchmark name (%s) or path to an SOC description file"
        % ", ".join(list_benchmarks()),
    )


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be non-negative, got {value}")
    return value


def _add_solver_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--solver",
        default="paper",
        help="registry solver to run (see 'repro solvers'; default: paper)",
    )


def _add_workers_argument(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--workers",
        type=_nonnegative_int,
        default=0,
        help="worker processes for the sweep engine (0 = serial; results "
        "are identical for every value)",
    )


def _cmd_benchmarks(_: argparse.Namespace) -> int:
    for name in list_benchmarks():
        soc = get_benchmark(name)
        print(
            f"{name}: {len(soc)} cores, {soc.total_scan_cells} scan cells, "
            f"{soc.total_patterns} patterns, {soc.total_test_bits} test bits"
        )
    return 0


def _cmd_pareto(args: argparse.Namespace) -> int:
    soc, _ = _load(args)
    core = soc.core(args.core)
    series = figure1_staircase(core, max_width=args.max_width)
    print(ascii_plot(series, title=f"Testing time vs TAM width for {core.name} ({soc.name})"))
    print()
    print(format_figure_series(series, x_label="TAM width", y_label="testing time"))
    return 0


def _solve_request(args: argparse.Namespace) -> "ScheduleRequest":
    """Build the ScheduleRequest described by the command-line arguments."""
    soc, constraints = _load(args)
    config = SchedulerConfig(percent=args.percent, delta=args.delta)
    options = {}
    if getattr(args, "options", None):
        try:
            options = json.loads(args.options)
        except json.JSONDecodeError as error:
            raise SolverError(f"--options is not valid JSON: {error}") from error
        if not isinstance(options, dict):
            raise SolverError("--options must be a JSON object")
    return ScheduleRequest(
        soc=soc,
        total_width=args.width,
        solver=args.solver,
        config=config,
        constraints=constraints,
        options=options,
    )


def _cmd_schedule(args: argparse.Namespace) -> int:
    try:
        request = _solve_request(args)
        result = get_default_session().solve(request)
    except SolverError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if result.schedule is None:
        print(
            f"error: solver {args.solver!r} produces no schedule; "
            "use 'repro solve' to query it",
            file=sys.stderr,
        )
        return 2
    print(render_gantt(result.schedule))
    print()
    print(f"lower bound : {lower_bound(request.soc, args.width)} cycles")
    print(f"testing time: {result.makespan} cycles")
    return 0


def _execution_metadata() -> Dict[str, Any]:
    """Payload-plane counters of the default executor's most recent run.

    Result *objects* never carry these (they would break serial/parallel
    metadata bit-identity -- see ``GridSweepOutcome.metadata``), so the
    CLI reads them off :class:`~repro.engine.results.ExecutorStats` after
    the solve and reports them alongside, ``recovery_events``-style: only
    the nonzero ones appear.
    """
    from repro.engine.executor import get_default_executor

    stats = get_default_executor().last_stats
    if stats is None:
        return {}
    counters = {
        name: getattr(stats, name)
        for name in ("board_aborts", "payload_bytes", "shm_bytes_saved")
    }
    return {name: value for name, value in counters.items() if value}


def _cmd_solve(args: argparse.Namespace) -> int:
    try:
        result = get_default_session().solve(_solve_request(args))
    except SolverError as error:  # includes solver refusals, normalised by Session
        print(f"error: {error}", file=sys.stderr)
        return 2
    execution = _execution_metadata()
    if args.json:
        payload = result.to_dict()
        payload["metadata"].update(execution)
        print(json.dumps(payload, indent=2))
        return 0
    print(f"solver      : {result.solver}")
    print(f"soc         : {result.soc_name} (TAM width {result.total_width})")
    if result.is_bound:
        print(f"lower bound : {result.makespan} cycles")
    else:
        print(f"makespan    : {result.makespan} cycles")
    print(f"data volume : {result.data_volume} bits")
    for name, value in sorted({**dict(result.metadata), **execution}.items()):
        print(f"{name:<12}: {value}")
    return 0


def _cmd_solvers(_: argparse.Namespace) -> int:
    print(default_registry().describe())
    return 0


def _cmd_table1(args: argparse.Namespace) -> int:
    soc, _ = _load(args)
    widths = args.widths or None
    rows = run_table1(soc, widths=widths, workers=args.workers)
    print(table1_to_text(rows))
    return 0


def _cmd_table2(args: argparse.Namespace) -> int:
    soc, _ = _load(args)
    widths = tuple(range(args.min_width, args.max_width + 1, args.step))
    rows, _sweep = run_table2(
        soc, widths=widths, alphas=args.alphas or None, workers=args.workers
    )
    print(table2_to_text(rows))
    return 0


def _export(args: argparse.Namespace, csv_text: str, records: List[dict]) -> None:
    """Write the sweep result to the CSV/JSON paths given on the command line."""
    if args.csv:
        save_csv(csv_text, args.csv)
        print(f"wrote {args.csv}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as handle:
            json.dump(records, handle, indent=2)
        print(f"wrote {args.json}")


def _sweep_widths(
    args: argparse.Namespace, min_width: int, max_width: int
) -> Tuple[int, ...]:
    """Resolve the width range, falling back to per-experiment defaults."""
    low = args.min_width if args.min_width is not None else min_width
    high = args.max_width if args.max_width is not None else max_width
    step = args.step if args.step is not None else 2
    return tuple(range(low, high + 1, step))


def _cmd_sweep(args: argparse.Namespace) -> int:
    soc, _ = _load(args)

    if args.experiment == "table1":
        rows = run_table1(soc, widths=args.widths or None, workers=args.workers)
        print(table1_to_text(rows))
        _export(args, table1_to_csv(rows), [dataclasses.asdict(row) for row in rows])
        return 0

    if args.experiment == "table2":
        # Same width defaults as the ``table2`` subcommand, so both entry
        # points report identical effective widths.
        widths = _sweep_widths(args, 8, 64)
        rows, _sweep = run_table2(
            soc,
            widths=widths,
            alphas=args.alphas or None,
            workers=args.workers,
            solver=args.solver,
        )
        print(table2_to_text(rows))
        _export(args, table2_to_csv(rows), [dataclasses.asdict(row) for row in rows])
        return 0

    widths = _sweep_widths(args, 4, 80)
    sweep, results = parallel_tam_sweep_results(
        soc, widths, workers=args.workers, solver=args.solver
    )
    time_series = list(zip(sweep.widths, sweep.testing_times))
    volume_series = list(zip(sweep.widths, sweep.data_volumes))
    print(ascii_plot(time_series, title=f"{soc.name}: testing time T(W)"))
    print()
    print(ascii_plot(volume_series, title=f"{soc.name}: tester data volume D(W)"))
    print()
    print(
        format_figure_series(
            [(w, f"{t} / {d}") for (w, t), (_, d) in zip(time_series, volume_series)],
            x_label="TAM width",
            y_label="testing time / data volume",
        )
    )
    # Per-width records; solver metadata (e.g. the best sweep's winning
    # grid point) rides along as extra columns when present.  A row whose
    # testing_time was replaced by the monotone staircase clamp (a
    # narrower width did better) gets no metadata -- that width's own run
    # did not produce the reported value.
    raw_by_width = {result.job.width: result for result in results}
    extra_names: List[str] = []
    for result in results:
        for name, value in result.metadata:
            if name not in extra_names and isinstance(value, (str, int, float, bool)):
                extra_names.append(name)
    records = []
    for (w, t), (_, d) in zip(time_series, volume_series):
        record = {"tam_width": w, "testing_time": t, "data_volume": d}
        raw = raw_by_width.get(w)
        metadata = dict(raw.metadata) if raw is not None and raw.makespan == t else {}
        for name in extra_names:
            record[name] = metadata.get(name, "")
        records.append(record)
    if extra_names:
        buffer = io.StringIO()
        writer = csv.DictWriter(
            buffer, fieldnames=list(records[0].keys()), lineterminator="\n"
        )
        writer.writeheader()
        writer.writerows(records)
        csv_text = buffer.getvalue()
    else:
        csv_text = sweep_to_csv(sweep)
    _export(args, csv_text, records)
    return 0


def _cmd_bench(args: argparse.Namespace) -> int:
    from repro.analysis import perf

    kwargs = {}
    if args.repeats is not None:
        if args.suite == "serve":
            print("error: --repeats does not apply to --suite serve", file=sys.stderr)
            return 2
        kwargs["repeats"] = args.repeats
    if getattr(args, "workers", None):
        if args.suite != "scale":
            print("error: --workers applies to --suite scale only", file=sys.stderr)
            return 2
        try:
            kwargs["workers"] = tuple(
                int(part) for part in str(args.workers).split(",") if part.strip()
            )
        except ValueError:
            print(f"error: bad --workers list {args.workers!r}", file=sys.stderr)
            return 2
    report = perf.run_suite(args.suite, soc_names=args.soc or None, **kwargs)
    print(perf.summarize(report))
    json_path = args.json
    if json_path is not None:
        # Freeze gate: a BENCH_*.json written while the wire format has
        # unreviewed drift would pin numbers nobody can reproduce from the
        # frozen schema.  Refuse until the snapshot is regenerated.
        from repro.staticcheck import default_wire_drifts

        wire_drifts = default_wire_drifts()
        if wire_drifts:
            for drift in wire_drifts:
                print(f"WIRE DRIFT (REP005): {drift}", file=sys.stderr)
            print(
                "error: refusing to write the bench report while the wire "
                "format has unreviewed drift; run 'repro lint', review, then "
                "'repro lint --write-wire-schema'",
                file=sys.stderr,
            )
            return 1
        if json_path == "":
            json_path = f"BENCH_{args.suite}.json"
        perf.write_report(report, json_path)
        print(f"wrote {json_path}")
    if args.check_golden:
        golden = perf.load_report(args.check_golden)
        drifts = perf.check_golden(report, golden)
        if drifts:
            for drift in drifts:
                print(f"GOLDEN DRIFT: {drift}", file=sys.stderr)
            return 1
        print(f"golden check against {args.check_golden}: OK")
    return 0


def _chaos_plan(args: argparse.Namespace) -> "object":
    """Resolve the fault plan: --plan (inline JSON or file), else the env hook."""
    from repro.engine.faults import FaultPlan

    if args.plan:
        text = args.plan.strip()
        if text.startswith("{"):
            return FaultPlan.from_json(text)
        return FaultPlan.from_file(args.plan)
    plan = FaultPlan.from_env()
    return plan if plan is not None else FaultPlan()


def _cmd_chaos_serve(args: argparse.Namespace) -> int:
    """``repro chaos --serve``: the service-level fault scenarios."""
    from repro.service.chaos import SERVE_FAULT_KINDS, run_serve_chaos

    soc, _ = _load(args)
    kinds = SERVE_FAULT_KINDS
    if args.serve_kinds:
        kinds = tuple(
            kind.strip() for kind in args.serve_kinds.split(",") if kind.strip()
        )
    try:
        report = run_serve_chaos(soc, args.width, kinds=kinds)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(f"soc          : {soc.name} (TAM width {args.width})")
    for outcome in report.outcomes:
        verdict = "OK  " if outcome.passed else "FAIL"
        print(f"  {verdict} {outcome.kind:<12}: {outcome.detail}")
    if args.journal:
        with open(args.journal, "w", encoding="utf-8") as handle:
            json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"wrote {args.journal}")
    if not report.ok:
        print(
            "SERVE CHAOS FAILED: a service fault scenario broke the "
            "byte-identity contract",
            file=sys.stderr,
        )
        return 1
    print("serve chaos check: OK (every scenario byte-identical to batch solve)")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    """``repro serve``: the supervised scheduling service."""
    from repro.service import ServiceConfig, Supervisor, serve_stream, serve_tcp
    from repro.service.supervisor import SupervisorError

    try:
        config = ServiceConfig(
            max_inflight=args.max_inflight,
            queue_limit=args.queue_limit,
            default_deadline=args.default_deadline,
            workers=args.workers,
            journal_path=Path(args.journal) if args.journal else None,
            fsync=args.fsync,
        )
    except SupervisorError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    supervisor = Supervisor(config=config)
    try:
        if args.transport == "tcp":
            print(
                f"serving on tcp://{args.host}:{args.port} "
                f"(max_inflight={config.max_inflight}, "
                f"queue_limit={config.queue_limit})",
                file=sys.stderr,
            )
            supervisor.start()
            serve_tcp(
                supervisor,
                host=args.host,
                port=args.port,
                drain_timeout=args.drain_timeout,
            )
        else:
            # serve_stream starts the supervisor itself so journal-replay
            # traffic reaches the client after the hello banner.
            serve_stream(
                supervisor,
                sys.stdin,
                sys.stdout,
                drain_timeout=args.drain_timeout,
                install_signal_handlers=True,
            )
    finally:
        supervisor.close()
    return 0


def _cmd_chaos(args: argparse.Namespace) -> int:
    import warnings

    if args.serve:
        return _cmd_chaos_serve(args)

    from repro.analysis.perf import SOLVE_OPTIONS, check_golden, load_report
    from repro.analysis.perf import schedule_fingerprint as fingerprint
    from repro.engine.executor import FlatExecutor, use_executor
    from repro.engine.faults import FaultPlanError, journal_to_json, ladder_stage

    try:
        plan = _chaos_plan(args)
    except (FaultPlanError, OSError) as error:
        print(f"error: bad fault plan: {error}", file=sys.stderr)
        return 2
    if not plan:
        print(
            "warning: empty fault plan (no --plan and no REPRO_FAULT_PLAN); "
            "running the harness fault-free",
            file=sys.stderr,
        )

    soc, constraints = _load(args)
    options = dict(SOLVE_OPTIONS.get(args.solver, {}))
    if args.full_grid:
        options = {}
    if getattr(args, "options", None):
        try:
            extra = json.loads(args.options)
        except json.JSONDecodeError as error:
            print(f"error: --options is not valid JSON: {error}", file=sys.stderr)
            return 2
        if not isinstance(extra, dict):
            print("error: --options must be a JSON object", file=sys.stderr)
            return 2
        options.update(extra)
    grid_trimmed = any(key in options for key in ("percents", "deltas", "slacks"))

    def solve(workers: int):
        request = ScheduleRequest(
            soc=soc,
            total_width=args.width,
            solver=args.solver,
            constraints=constraints,
            options={**options, "workers": workers},
        )
        return get_default_session().solve(request)

    try:
        reference = solve(workers=0)
    except SolverError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    chaos_executor = FlatExecutor(
        fault_plan=plan if plan else None, task_deadline=args.deadline
    )
    with use_executor(chaos_executor):
        with warnings.catch_warnings():
            # Recovery is the point here: the pool-degrade RuntimeWarning
            # is recorded in the journal instead of spamming stderr.
            warnings.simplefilter("ignore", RuntimeWarning)
            try:
                faulted = solve(workers=args.workers)
            except SolverError as error:
                print(f"error: faulted solve failed: {error}", file=sys.stderr)
                return 2
            except Exception as error:
                # The ladder deliberately re-raises when a fault plan
                # exceeds the retry budget; report the journal it left
                # behind instead of a raw traceback.
                failures = chaos_executor.last_failures
                events = chaos_executor.last_recovery_events
                print(
                    "CHAOS UNRECOVERED: the faulted run did not survive the "
                    f"fault plan: {error!r}",
                    file=sys.stderr,
                )
                for event in events:
                    print(f"  event  : {event.encode()}", file=sys.stderr)
                for record in failures:
                    print(f"  fault  : {record.render()}", file=sys.stderr)
                if args.journal:
                    payload = journal_to_json(
                        failures,
                        events,
                        extra={
                            "soc": soc.name,
                            "width": args.width,
                            "solver": args.solver,
                            "workers": args.workers,
                            "plan": plan.to_dict(),
                            "unrecovered_error": repr(error),
                        },
                    )
                    with open(args.journal, "w", encoding="utf-8") as handle:
                        handle.write(payload)
                        handle.write("\n")
                    print(f"wrote {args.journal}", file=sys.stderr)
                return 1
        failures = chaos_executor.last_failures
        events = chaos_executor.last_recovery_events

    reference_print = fingerprint(reference.schedule)
    faulted_print = fingerprint(faulted.schedule)
    identical = (
        reference.makespan == faulted.makespan and reference_print == faulted_print
    )
    stage = ladder_stage(events)

    # Golden keys follow the perf suites: the full default grid of the
    # ``best`` solver is the ``best-full`` measurement, anything else the
    # solve-matrix cell.
    label = args.solver
    if args.solver == "best" and not grid_trimmed:
        label = "best-full"
    key = f"{soc.name}/{label}/{args.width}"

    print(f"soc          : {soc.name} (TAM width {args.width}, solver {args.solver})")
    print(f"fault plan   : {len(plan.actions)} action(s)")
    print(f"reference    : makespan {reference.makespan} ({reference_print})")
    print(f"faulted      : makespan {faulted.makespan} ({faulted_print})")
    print(f"recovery     : stage {stage}, {len(events)} event(s), "
          f"{len(failures)} failure record(s)")
    for event in events:
        print(f"  event  : {event.encode()}")
    for record in failures:
        print(f"  fault  : {record.render()}")

    if args.journal:
        payload = journal_to_json(
            failures,
            events,
            extra={
                "soc": soc.name,
                "width": args.width,
                "solver": args.solver,
                "workers": args.workers,
                "plan": plan.to_dict(),
                "makespans": {key: faulted.makespan},
                "fingerprints": {key: faulted_print},
                "reference_makespan": reference.makespan,
                "identical": identical,
                "stage": stage,
            },
        )
        with open(args.journal, "w", encoding="utf-8") as handle:
            handle.write(payload)
            handle.write("\n")
        print(f"wrote {args.journal}")

    status = 0
    if not identical:
        print(
            "CHAOS DRIFT: faulted run diverged from the fault-free serial "
            "reference",
            file=sys.stderr,
        )
        status = 1
    if args.check_golden:
        report = {
            "makespans": {key: faulted.makespan},
            "fingerprints": {key: faulted_print},
        }
        drifts = check_golden(report, load_report(args.check_golden))
        if drifts:
            for drift in drifts:
                print(f"GOLDEN DRIFT: {drift}", file=sys.stderr)
            status = 1
        else:
            print(f"golden check against {args.check_golden}: OK")
    if status == 0:
        print("chaos check: OK (faulted run byte-identical to reference)")
    return status


def _lint_defaults() -> Tuple[Optional[Path], List[Path], Tuple[Path, ...]]:
    """Checkout-aware lint defaults: (repo root, default paths, source roots).

    Inside a checkout (or an install that ships ``benchmarks/wire_schema.json``
    above the package) the suite lints ``src/repro`` against the pinned
    schema; outside one, paths must be given explicitly and only the
    project-independent rules are meaningful.
    """
    from repro import staticcheck

    import repro

    root = staticcheck.schema.repo_root_for(Path(repro.__file__))
    if root is None:
        package_dir = Path(repro.__file__).resolve().parent
        return None, [package_dir], (package_dir.parent,)
    return root, [root / "src" / "repro"], (root / "src", root)


def _cmd_lint(args: argparse.Namespace) -> int:
    from repro import staticcheck

    registry = staticcheck.default_rule_registry()
    if args.list_rules:
        print(registry.describe())
        return 0

    root, default_paths, source_roots = _lint_defaults()
    schema_path = (
        Path(args.schema)
        if args.schema
        else (root / staticcheck.DEFAULT_SCHEMA_RELPATH if root is not None else None)
    )

    if args.write_wire_schema:
        if schema_path is None:
            print(
                "error: no checkout found and no --schema given; cannot tell "
                "where to write the wire schema",
                file=sys.stderr,
            )
            return 2
        staticcheck.write_schema(schema_path, source_roots)
        print(f"wrote {schema_path}")
        return 0

    paths = [Path(p) for p in args.paths] if args.paths else default_paths
    select = args.rule if args.rule else None
    try:
        report = staticcheck.run_lint(
            paths,
            select=select,
            ignore=args.ignore or (),
            registry=registry,
            schema_path=schema_path,
            source_roots=source_roots,
            display_root=root,
        )
    except staticcheck.LintError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    if args.call_graph is not None or args.effects is not None:
        from repro.staticcheck.analysis import analyze_paths

        analysis = analyze_paths(
            staticcheck.discover_files(paths), source_roots, display_root=root
        )
        exports = []
        if args.call_graph is not None:
            exports.append((args.call_graph, analysis.call_graph_json()))
        if args.effects is not None:
            exports.append((args.effects, analysis.effects_json()))
        for target, payload in exports:
            with open(target, "w", encoding="utf-8") as handle:
                handle.write(payload)
                handle.write("\n")
            print(f"wrote {target}")

    if args.json is not None:
        payload_text = staticcheck.findings_to_json(report.findings)
        if args.json == "":
            print(payload_text)
        else:
            with open(args.json, "w", encoding="utf-8") as handle:
                handle.write(payload_text)
                handle.write("\n")
            print(f"wrote {args.json}")
    elif args.output_format == "github":
        for finding in report.findings:
            print(finding.render_github())
    else:
        for finding in report.findings:
            print(finding.render())
    summary = (
        f"checked {report.checked_files} file(s) with "
        f"{len(report.rules)} rule(s): {len(report.findings)} finding(s)"
    )
    if report.suppressed:
        summary += f", {report.suppressed} suppressed"
    print(summary, file=sys.stderr)
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    """Construct the CLI argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-soc-test",
        description="Wrapper/TAM co-optimization, test scheduling and data volume reduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_bench = sub.add_parser("benchmarks", help="list built-in benchmark SOCs")
    p_bench.set_defaults(func=_cmd_benchmarks)

    p_solvers = sub.add_parser(
        "solvers", help="list registered solvers and their capabilities"
    )
    p_solvers.set_defaults(func=_cmd_solvers)

    p_solve = sub.add_parser(
        "solve", help="solve one SOC at one TAM width with any registered solver"
    )
    _add_soc_argument(p_solve)
    p_solve.add_argument("width", type=int, help="total SOC TAM width")
    _add_solver_argument(p_solve)
    p_solve.add_argument("--percent", type=float, default=5.0)
    p_solve.add_argument("--delta", type=int, default=0)
    p_solve.add_argument(
        "--options",
        help="solver-specific options as a JSON object, "
        "e.g. '{\"max_buses\": 2}' for fixed-width",
    )
    p_solve.add_argument(
        "--json",
        action="store_true",
        help="print the full ScheduleResult as JSON instead of a summary",
    )
    p_solve.set_defaults(func=_cmd_solve)

    p_pareto = sub.add_parser("pareto", help="testing-time staircase for one core")
    _add_soc_argument(p_pareto)
    p_pareto.add_argument("core", help="core name, e.g. 'Core 6' or 's38417'")
    p_pareto.add_argument("--max-width", type=int, default=64)
    p_pareto.set_defaults(func=_cmd_pareto)

    p_sched = sub.add_parser("schedule", help="schedule an SOC at one TAM width")
    _add_soc_argument(p_sched)
    p_sched.add_argument("width", type=int, help="total SOC TAM width")
    _add_solver_argument(p_sched)
    p_sched.add_argument("--percent", type=float, default=5.0)
    p_sched.add_argument("--delta", type=int, default=0)
    p_sched.set_defaults(func=_cmd_schedule)

    p_t1 = sub.add_parser("table1", help="regenerate Table 1 for one SOC")
    _add_soc_argument(p_t1)
    p_t1.add_argument("--widths", type=int, nargs="*", help="TAM widths to evaluate")
    _add_workers_argument(p_t1)
    p_t1.set_defaults(func=_cmd_table1)

    p_t2 = sub.add_parser("table2", help="regenerate Table 2 for one SOC")
    _add_soc_argument(p_t2)
    p_t2.add_argument("--alphas", type=float, nargs="*")
    p_t2.add_argument("--min-width", type=int, default=8)
    p_t2.add_argument("--max-width", type=int, default=64)
    p_t2.add_argument("--step", type=int, default=2)
    _add_workers_argument(p_t2)
    p_t2.set_defaults(func=_cmd_table2)

    p_sweep = sub.add_parser(
        "sweep", help="parameter sweeps on the parallel sweep engine"
    )
    _add_soc_argument(p_sweep)
    p_sweep.add_argument(
        "--experiment",
        choices=("curves", "table1", "table2"),
        default="curves",
        help="what to sweep: the T(W)/D(W) curves of Figure 9 (default), "
        "the full Table 1 grid, or the Table 2 effective-width study",
    )
    p_sweep.add_argument(
        "--min-width",
        type=int,
        default=None,
        help="smallest TAM width (default: 4 for curves, 8 for table2)",
    )
    p_sweep.add_argument(
        "--max-width",
        type=int,
        default=None,
        help="largest TAM width (default: 80 for curves, 64 for table2)",
    )
    p_sweep.add_argument("--step", type=int, default=None, help="width step (default 2)")
    p_sweep.add_argument(
        "--solver",
        default="paper",
        help="solver for the curves and table2 experiments (any "
        "schedule-producing registry solver, e.g. 'best' for the full "
        "best-over-grid protocol per width; default: paper)",
    )
    p_sweep.add_argument(
        "--widths", type=int, nargs="*", help="TAM widths (table1 experiment)"
    )
    p_sweep.add_argument("--alphas", type=float, nargs="*", help="table2 alphas")
    p_sweep.add_argument("--csv", help="also write the result table to this CSV file")
    p_sweep.add_argument("--json", help="also write the result records to this JSON file")
    _add_workers_argument(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_bench = sub.add_parser(
        "bench", help="run a perf-trajectory suite and emit BENCH_<suite>.json"
    )
    p_bench.add_argument(
        "--suite",
        choices=("curves", "solve", "sweep", "scale", "serve"),
        default="curves",
        help="what to measure: per-core curve construction (default), the "
        "cold full-solver pass, the Figure 9 sweep, the worker-count "
        "scaling curve of the shared-memory payload plane, or the "
        "scheduling service under a duplicate-heavy request burst",
    )
    p_bench.add_argument(
        "--workers",
        metavar="N[,N...]",
        default=None,
        help="comma-separated worker counts for --suite scale "
        "(default 1,2,4; the serial reference is always measured)",
    )
    p_bench.add_argument(
        "--soc",
        action="append",
        help="benchmark SOC to measure (repeatable; suite-specific default)",
    )
    p_bench.add_argument(
        "--json",
        nargs="?",
        const="",
        default=None,
        help="write the JSON report here (bare --json writes "
        "BENCH_<suite>.json in the current directory)",
    )
    p_bench.add_argument(
        "--repeats",
        type=int,
        default=None,
        help="timing repetitions per measurement (report keeps the minimum; not serve)",
    )
    p_bench.add_argument(
        "--check-golden",
        metavar="FILE",
        help="compare makespans/fingerprints against this golden JSON and "
        "exit 1 on drift",
    )
    p_bench.set_defaults(func=_cmd_bench)

    p_chaos = sub.add_parser(
        "chaos",
        help="prove fault tolerance: solve under an injected fault plan and "
        "compare against the fault-free serial reference",
    )
    _add_soc_argument(p_chaos)
    p_chaos.add_argument("width", type=int, help="total SOC TAM width")
    p_chaos.add_argument(
        "--solver",
        default="best",
        help="registry solver to harden (default: best, whose grid fan-out "
        "exercises the parallel path)",
    )
    p_chaos.add_argument(
        "--plan",
        help="fault plan: inline JSON (starts with '{') or a path to a plan "
        "file; default: the REPRO_FAULT_PLAN environment hook",
    )
    p_chaos.add_argument(
        "--workers",
        type=_nonnegative_int,
        default=2,
        help="worker processes for the faulted run (default 2)",
    )
    p_chaos.add_argument(
        "--deadline",
        type=float,
        default=None,
        help="per-task watchdog deadline in seconds for the faulted run "
        "(default: REPRO_TASK_DEADLINE or 300)",
    )
    p_chaos.add_argument(
        "--options",
        help="extra solver options as a JSON object (merged over the perf "
        "suite's trimmed grid for 'best')",
    )
    p_chaos.add_argument(
        "--full-grid",
        action="store_true",
        help="drop the trimmed grid and sweep the solver's full default "
        "grid (golden key '<soc>/best-full/<width>' for 'best')",
    )
    p_chaos.add_argument(
        "--journal",
        metavar="FILE",
        help="write the structured fault journal (failures + recovery "
        "events) as JSON to FILE",
    )
    p_chaos.add_argument(
        "--check-golden",
        metavar="FILE",
        help="also compare the faulted run's makespan/fingerprint against "
        "this golden JSON and exit 1 on drift",
    )
    p_chaos.add_argument(
        "--serve",
        action="store_true",
        help="run the service-level fault scenarios instead (worker kill, "
        "client disconnect, server kill + journal replay, queue flood), "
        "asserting byte-identity against batch Session.solve",
    )
    p_chaos.add_argument(
        "--serve-kinds",
        metavar="KIND[,KIND...]",
        default=None,
        help="comma-separated subset of the service fault kinds to run "
        "with --serve (default: all)",
    )
    p_chaos.set_defaults(func=_cmd_chaos)

    p_serve = sub.add_parser(
        "serve",
        help="run the supervised scheduling service (JSONL over stdio or TCP)",
    )
    p_serve.add_argument(
        "--transport",
        choices=("stdio", "tcp"),
        default="stdio",
        help="stdio serves one JSONL client on stdin/stdout (default); "
        "tcp runs the asyncio listener",
    )
    p_serve.add_argument("--host", default="127.0.0.1", help="TCP bind host")
    p_serve.add_argument("--port", type=int, default=7533, help="TCP bind port")
    p_serve.add_argument(
        "--max-inflight",
        type=int,
        default=2,
        help="requests solved concurrently (worker threads; default 2)",
    )
    p_serve.add_argument(
        "--queue-limit",
        type=int,
        default=8,
        help="bounded accept queue depth; further solves are rejected "
        "'overloaded' (default 8)",
    )
    p_serve.add_argument(
        "--workers",
        type=_nonnegative_int,
        default=0,
        help="process fan-out per solve (default 0: in-thread serial "
        "solves, fully cancellable)",
    )
    p_serve.add_argument(
        "--default-deadline",
        type=float,
        default=None,
        help="deadline in seconds applied to requests that name none "
        "(default: unbounded)",
    )
    p_serve.add_argument(
        "--journal",
        metavar="FILE",
        help="write-ahead event journal path; an existing journal is "
        "replayed on startup (completed-unacked results re-served, "
        "unsettled requests re-run)",
    )
    p_serve.add_argument(
        "--fsync",
        action="store_true",
        help="fsync every journal record (survive power loss, pay a sync "
        "per record)",
    )
    p_serve.add_argument(
        "--drain-timeout",
        type=float,
        default=30.0,
        help="seconds to wait for in-flight work on EOF/shutdown/SIGTERM "
        "(default 30)",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_lint = sub.add_parser(
        "lint",
        help="run the determinism & fork-safety static-analysis suite",
    )
    p_lint.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the checkout's src/repro)",
    )
    p_lint.add_argument(
        "--rule",
        action="append",
        metavar="CODE",
        help="run only this rule (repeatable), e.g. --rule REP001",
    )
    p_lint.add_argument(
        "--select",
        dest="rule",
        action="append",
        metavar="CODE",
        help="alias for --rule",
    )
    p_lint.add_argument(
        "--ignore",
        action="append",
        metavar="CODE",
        help="drop this rule from the selection (repeatable)",
    )
    p_lint.add_argument(
        "--json",
        nargs="?",
        const="",
        default=None,
        metavar="FILE",
        help="emit findings as JSON (bare --json prints to stdout)",
    )
    p_lint.add_argument(
        "--schema",
        metavar="FILE",
        help="wire-format snapshot to check against "
        "(default: the checkout's benchmarks/wire_schema.json)",
    )
    p_lint.add_argument(
        "--write-wire-schema",
        action="store_true",
        help="regenerate the pinned wire-format snapshot from the current "
        "tree (after reviewing the wire change) and exit",
    )
    p_lint.add_argument(
        "--output-format",
        choices=("text", "github"),
        default="text",
        help="finding output format: human-readable text (default) or "
        "GitHub Actions '::error file=...' annotations",
    )
    p_lint.add_argument(
        "--call-graph",
        metavar="FILE",
        default=None,
        help="export the interprocedural call graph (edges, entry points) "
        "as JSON to FILE",
    )
    p_lint.add_argument(
        "--effects",
        metavar="FILE",
        default=None,
        help="export the per-function side-effect summaries (local and "
        "call-graph-propagated) as JSON to FILE",
    )
    p_lint.add_argument(
        "--list-rules",
        action="store_true",
        help="list the registered rules and exit",
    )
    p_lint.set_defaults(func=_cmd_lint)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point."""
    parser = build_parser()
    args = parser.parse_args(list(argv) if argv is not None else None)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
