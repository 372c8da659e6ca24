"""``serve-mix``: independent clients of ``repro serve``, open loop.

Requests arrive on a Poisson schedule at a fixed offered rate.  Each one
is a wire line fed through ``protocol.parse_client_line`` into
``Supervisor.process`` on the generator thread, with the ``repro serve``
defaults (two worker threads, queue limit 8, in-thread solves) and the
write-ahead journal on a file.  Every reply goes through
``protocol.encode_message``, every result is acked, and a ``stats`` op is
sent about once per second.

The mix:

* ``duplicate`` -- the exact line of a recent generated request (dedup cache or
  coalescing serves it);
* ``near`` -- an earlier generated SOC with one core changed (only that
  core's wrapper curve misses);
* ``fresh`` -- a newly generated SOC under the ``paper`` or ``best`` solver;
* ``itc02`` -- one of the four ITC'02 SOCs.

Known defect: ``format_soc`` writes ITC'02 core names that contain spaces
(p22810, p34392, p93791) in a form ``parse_soc`` cannot read back, so the
service refuses those requests ``bad-request``.  They stay in the mix
unrenamed; such a refusal is the expected outcome for them today and is
counted in ``served_share`` and ``supervisor.rejected_bad_request``.  If a
later change fixes the format, these requests must come back as results
that match a batch solve.
"""

from __future__ import annotations

import collections
import itertools
import json
import os
import random
import threading
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any, Deque, Dict, List, Optional

from perfbench import layers
from perfbench.common import (
    GateFailure,
    Tracer,
    freeze_inputs,
    median,
    peak_rss_mb,
    share,
    tail,
)
from repro.core.rectangles import RectangleSet
from repro.service import protocol
from repro.service.supervisor import ServiceConfig, Supervisor
from repro.soc.benchmarks import get_benchmark
from repro.soc.generator import GeneratorProfile, generate_soc
from repro.soc.soc import Soc
from repro.solvers import ScheduleRequest, ScheduleResult, Session
from repro.wrapper.curve import curve_cache_info

NAME = "serve-mix"

#: Offered load in requests per second: a fifth of the knee (see README.md).
RATE_RPS = 20.0

#: A result within this many seconds of its due time counts toward goodput.
LATENCY_LIMIT_S = 0.5

#: Share of each request kind in the mix.  Apart from the ITC'02 share these
#: are unverified assumptions, not taken from any record of real traffic;
#: README.md reports how latency and goodput move when they change.
MIX = (("duplicate", 0.25), ("near", 0.45), ("fresh", 0.20), ("itc02", 0.10))

#: Fresh SOCs: small enough that a fresh solve takes tens of milliseconds
#: (an assumption, like ``MIX`` and ``WIDTHS``).
FRESH_PROFILE = GeneratorProfile(min_cores=8, max_cores=8)

WIDTHS = (16, 24, 32)
ITC02_SOCS = ("d695", "p22810", "p34392", "p93791")
BEST_OPTIONS = {"percents": (1, 25), "deltas": (0,), "slacks": (3, 6)}

#: Duplicates repeat one of this many most recent generated requests.
DUPLICATE_WINDOW = 64

#: ``repro serve`` defaults.
SERVICE = dict(max_inflight=2, queue_limit=8, workers=0)

STATS_INTERVAL_S = 1.0
DRAIN_TIMEOUT_S = 60.0


@dataclass
class WireRequest:
    request_id: str
    kind: str
    due: float
    line: str
    request: ScheduleRequest
    cores: int
    #: An ITC'02 SOC with spaces in its core names (the known format defect).
    defect: bool


@dataclass
class Inputs:
    seed: int
    seconds: float
    requests: List[WireRequest]


def _one_core_changed(soc: Soc, rng: random.Random) -> Soc:
    index = rng.randrange(len(soc.cores))
    core = soc.cores[index]
    changed = replace(core, patterns=core.patterns + rng.randint(1, 50))
    cores = soc.cores[:index] + (changed,) + soc.cores[index + 1 :]
    return Soc(name=soc.name, cores=cores)


def _has_format_defect(soc: Soc) -> bool:
    return any(any(ch.isspace() for ch in core.name) for core in soc.cores)


def setup(seed: int, seconds: float) -> Inputs:
    """Generate the request schedule and encode every wire line."""
    rng = random.Random(seed)
    count = max(1, round(RATE_RPS * seconds))
    # ``count`` arrivals of a Poisson process conditioned on landing in
    # [0, seconds): normalised exponential gaps.
    gaps = [rng.expovariate(1.0) for _ in range(count + 1)]
    scale = seconds / sum(gaps)
    due = []
    clock = 0.0
    for gap in gaps[:-1]:
        clock += gap * scale
        due.append(clock)
    # Exact kind counts, shuffled: every seed gets the same mix.
    kinds = [kind for kind, weight in MIX for _ in range(round(weight * count))]
    kinds = (kinds + ["fresh"] * count)[:count]
    rng.shuffle(kinds)
    itc02_order = [get_benchmark(name) for name in ITC02_SOCS]
    rng.shuffle(itc02_order)
    itc02 = itertools.cycle(itc02_order)
    solvers = itertools.cycle(("paper", "best"))
    generated: List[WireRequest] = []
    requests: List[WireRequest] = []
    for index, (offset, kind) in enumerate(zip(due, kinds)):
        if kind in ("duplicate", "near") and not generated:
            kind = "fresh"
        request_id = f"s{seed}-r{index}"
        if kind == "duplicate":
            base = rng.choice(generated[-DUPLICATE_WINDOW:])
            message = json.loads(base.line)
            message["id"] = request_id
            line = json.dumps(message, separators=(",", ":"))
            requests.append(replace(base, request_id=request_id, kind=kind, due=offset, line=line))
            continue
        if kind == "fresh":
            soc = generate_soc(
                rng.randrange(2**31), name=f"g{seed}-{index}", profile=FRESH_PROFILE
            )
            solver = next(solvers)
            request = ScheduleRequest(
                soc=soc,
                total_width=rng.choice(WIDTHS),
                solver=solver,
                options=BEST_OPTIONS if solver == "best" else {},
            )
        elif kind == "near":
            base_request = rng.choice(generated).request
            request = replace(base_request, soc=_one_core_changed(base_request.soc, rng))
        else:
            request = ScheduleRequest(soc=next(itc02), total_width=rng.choice(WIDTHS))
        line = json.dumps(
            {"op": protocol.OP_SOLVE, "id": request_id, "request": request.to_dict()},
            separators=(",", ":"),
        )
        wire = WireRequest(
            request_id,
            kind,
            offset,
            line,
            request,
            len(request.soc.cores),
            kind == "itc02" and _has_format_defect(request.soc),
        )
        requests.append(wire)
        if kind != "itc02":
            generated.append(wire)
    freeze_inputs()
    return Inputs(seed=seed, seconds=seconds, requests=requests)


def input_signature(inputs: Inputs) -> List[str]:
    return [wire.line for wire in inputs.requests]


class _CurveTimedSession(Session):
    """A session that times the ``rectangle_sets`` miss path per request.

    Used only by the traced run; ``Supervisor`` accepts any session.
    """

    def __init__(self) -> None:
        super().__init__(workers=SERVICE["workers"])
        self.current = threading.local()
        self.curve_seconds: Dict[str, float] = {}
        self.curve_spans: Dict[str, List[tuple]] = collections.defaultdict(list)
        self._lock = threading.Lock()

    def rectangle_sets(self, soc: Soc, max_width: int) -> Dict[str, RectangleSet]:
        misses = self.cache_info().misses
        started = time.perf_counter()
        sets = super().rectangle_sets(soc, max_width)
        ended = time.perf_counter()
        request_id = getattr(self.current, "request_id", "")
        if self.cache_info().misses > misses and request_id:
            with self._lock:
                self.curve_seconds[request_id] = (
                    self.curve_seconds.get(request_id, 0.0) + ended - started
                )
                self.curve_spans[request_id].append((started, ended))
        return sets


@dataclass
class _Record:
    """What the client observed, keyed by request id."""

    send: Dict[str, float] = field(default_factory=dict)
    parsed: Dict[str, float] = field(default_factory=dict)
    returned: Dict[str, float] = field(default_factory=dict)
    accepted: Dict[str, float] = field(default_factory=dict)
    started: Dict[str, float] = field(default_factory=dict)
    reply_at: Dict[str, float] = field(default_factory=dict)
    done: Dict[str, float] = field(default_factory=dict)
    terminal: Dict[str, List[str]] = field(
        default_factory=lambda: collections.defaultdict(list)
    )
    encode_seconds: List[float] = field(default_factory=list)
    result_bytes: List[int] = field(default_factory=list)
    stats_seconds: List[float] = field(default_factory=list)


def run(inputs: Inputs, tracer: Tracer, out_dir: str) -> Dict[str, Any]:
    """Drive the open loop, check every outcome, return the metrics."""
    journal_path = Path(out_dir) / f"serve-mix-{os.getpid()}.jsonl"
    if journal_path.exists():
        journal_path.unlink()
    session = _CurveTimedSession() if tracer.enabled else None
    supervisor = Supervisor(
        config=ServiceConfig(journal_path=journal_path, **SERVICE), session=session
    )
    record = _Record()
    acks: Deque[str] = collections.deque()
    terminal_events = (protocol.EVENT_RESULT, protocol.EVENT_REJECTED, protocol.EVENT_FAILED)

    def reply(message: Dict[str, Any]) -> None:
        received = time.perf_counter()
        line = protocol.encode_message(message)
        encoded = time.perf_counter()
        record.encode_seconds.append(encoded - received)
        event = message["event"]
        request_id = message.get("id", "")
        if event == protocol.EVENT_ACCEPTED:
            record.accepted[request_id] = received
        elif event in terminal_events:
            # Keep the encoded line, not the dict: strings are invisible to
            # the garbage collector, so the client's bookkeeping does not
            # lengthen the server's collections.
            record.terminal[request_id].append(line)
            record.reply_at[request_id] = received
            record.done[request_id] = encoded
            if event == protocol.EVENT_RESULT:
                record.result_bytes.append(len(line))
                acks.append(request_id)

    def started_hook(request_id: str) -> None:
        record.started[request_id] = time.perf_counter()
        if session is not None:
            session.current.request_id = request_id

    def send(line: str) -> None:
        supervisor.process(protocol.parse_client_line(line), reply)

    def send_acks() -> None:
        while acks:
            send(json.dumps({"op": protocol.OP_ACK, "id": acks.popleft()}))

    def send_stats() -> None:
        started = time.perf_counter()
        send(json.dumps({"op": protocol.OP_STATS}))
        record.stats_seconds.append(time.perf_counter() - started)

    curve_before = curve_cache_info()
    supervisor.started_hook = started_hook
    supervisor.start()
    try:
        t0 = time.perf_counter() + 0.05
        next_stats = t0 + STATS_INTERVAL_S
        for wire in inputs.requests:
            due = t0 + wire.due
            send_acks()
            if due >= next_stats:
                send_stats()
                next_stats += STATS_INTERVAL_S
            pause = due - time.perf_counter()
            if pause > 0:
                time.sleep(pause)
            sent = time.perf_counter()
            record.send[wire.request_id] = sent
            message = protocol.parse_client_line(wire.line)
            record.parsed[wire.request_id] = time.perf_counter()
            supervisor.process(message, reply)
            record.returned[wire.request_id] = time.perf_counter()
        deadline = time.perf_counter() + DRAIN_TIMEOUT_S
        while len(record.terminal) < len(inputs.requests):
            if time.perf_counter() > deadline:
                raise GateFailure(
                    f"serve-mix: {len(inputs.requests) - len(record.terminal)} "
                    f"requests got no terminal event within {DRAIN_TIMEOUT_S}s"
                )
            send_acks()
            time.sleep(0.002)
        send_acks()
        send_stats()
        if not supervisor.drain(timeout=DRAIN_TIMEOUT_S):
            raise GateFailure("serve-mix: the supervisor did not drain")
        final_stats = supervisor.stats()
        # Before the gate below re-solves every request in a batch session.
        peak_rss = peak_rss_mb()
    finally:
        supervisor.close()
    curve_after = curve_cache_info()
    journal_bytes = journal_path.stat().st_size
    journal_path.unlink()
    session_info = supervisor.session.cache_info()

    outcome = _check(inputs, record)
    return _metrics(
        inputs,
        record,
        tracer,
        session,
        t0,
        outcome,
        final_stats,
        journal_bytes,
        curve_before,
        curve_after,
        session_info,
        peak_rss,
    )


def _check(inputs: Inputs, record: _Record) -> Dict[str, Any]:
    """The output gate: one terminal event each, every result batch-identical."""
    batch = Session()
    expected: Dict[str, str] = {}
    served: Dict[str, ScheduleResult] = {}
    refused_defect = 0
    events: Dict[str, Dict[str, Any]] = {}
    for wire in inputs.requests:
        lines = record.terminal.get(wire.request_id, [])
        if len(lines) != 1:
            raise GateFailure(
                f"serve-mix: request {wire.request_id} got {len(lines)} terminal events"
            )
        event = events[wire.request_id] = json.loads(lines[0])
        if event["event"] == protocol.EVENT_RESULT:
            fingerprint = wire.request.fingerprint()
            want = expected.get(fingerprint)
            if want is None:
                want = protocol.result_fingerprint(batch.solve(wire.request).to_dict())
                expected[fingerprint] = want
            if protocol.result_fingerprint(event["result"]) != want:
                raise GateFailure(
                    f"serve-mix: result of {wire.request_id} ({wire.kind}) differs "
                    "from a batch Session.solve of the same request"
                )
            served[wire.request_id] = ScheduleResult.from_dict(event["result"])
        elif (
            event["event"] == protocol.EVENT_REJECTED
            and event.get("reason") == protocol.REJECT_BAD_REQUEST
            and wire.defect
        ):
            refused_defect += 1
        elif event["event"] == protocol.EVENT_REJECTED and event.get("reason") == (
            protocol.REJECT_OVERLOADED
        ):
            # Admission control doing its job: a miss, not a wrong output.
            pass
        else:
            raise GateFailure(
                f"serve-mix: request {wire.request_id} ({wire.kind}) ended "
                f"{event['event']} {event.get('reason', '')}: {event.get('error', '')}"
            )
    return {
        "served": served,
        "refused_defect": refused_defect,
        "batch": batch,
        "events": events,
    }


def _metrics(
    inputs: Inputs,
    record: _Record,
    tracer: Tracer,
    session: Optional[_CurveTimedSession],
    t0: float,
    outcome: Dict[str, Any],
    final_stats: Dict[str, Any],
    journal_bytes: int,
    curve_before: Any,
    curve_after: Any,
    session_info: Any,
    peak_rss: float,
) -> Dict[str, Any]:
    requests = inputs.requests
    attempted = len(requests)
    served: Dict[str, ScheduleResult] = outcome["served"]
    by_id = {wire.request_id: wire for wire in requests}
    latencies = [record.done[rid] - (t0 + by_id[rid].due) for rid in served]
    events: Dict[str, Dict[str, Any]] = outcome["events"]
    dedup = collections.Counter(events[rid].get("dedup", "") for rid in served)
    reasons = collections.Counter(
        event.get("reason", "")
        for event in events.values()
        if event["event"] == protocol.EVENT_REJECTED
    )
    started_ids = [rid for rid in served if rid in record.started]
    service = [record.reply_at[rid] - record.started[rid] for rid in started_ids]
    queue_wait = [
        max(0.0, record.started[rid] - record.accepted.get(rid, record.started[rid]))
        for rid in started_ids
    ]
    lag = [record.send[wire.request_id] - (t0 + wire.due) for wire in requests]
    latency_tail, latency_q, latency_n = tail(latencies)
    # Rates are per second of the measured run: first due time to last reply.
    span = max(record.done.values()) - (t0 + requests[0].due)
    unexpected = attempted - len(served) - outcome["refused_defect"]
    kinds = collections.Counter(wire.kind for wire in requests)
    end_to_end = {
        "solve_p50_s": median(service) if service else 0.0,
        "cores_per_s": sum(by_id[rid].cores for rid in served) / span,
        "cells_per_s": len(served) / span,
        "latency_p50_s": median(latencies),
        "latency_p99_s": latency_tail,
        "goodput_rps": sum(1 for value in latencies if value <= LATENCY_LIMIT_S)
        / span,
        "served_share": share(len(served), attempted),
        "peak_rss_mb": peak_rss,
    }
    curve_lookups = (curve_after.hits - curve_before.hits) + (
        curve_after.misses - curve_before.misses
    )
    rect_lookups = session_info.hits + session_info.misses
    layer_values: Dict[str, float] = {
        "wrapper.curve_hit_share": share(curve_after.hits - curve_before.hits, curve_lookups),
        "wrapper.widths_computed": share(
            curve_after.widths_computed - curve_before.widths_computed, attempted
        ),
        "wrapper.cached_cores": float(curve_after.cores),
        "solvers.rect_hit_share": share(session_info.hits, rect_lookups),
        "session.entries": float(session_info.entries),
        "protocol.request_bytes": sum(len(wire.line) for wire in requests) / attempted,
        "protocol.result_bytes": share(sum(record.result_bytes), len(record.result_bytes)),
        "protocol.encode_s": share(sum(record.encode_seconds), len(record.encode_seconds)),
        "supervisor.admit_s": share(
            sum(record.returned[w.request_id] - record.parsed[w.request_id] for w in requests),
            attempted,
        ),
        "supervisor.queue_wait_p50_s": median(queue_wait) if queue_wait else 0.0,
        "supervisor.queue_wait_p99_s": tail(queue_wait)[0] if queue_wait else 0.0,
        "supervisor.service_p50_s": median(service) if service else 0.0,
        "supervisor.service_p99_s": tail(service)[0] if service else 0.0,
        "supervisor.stats_s": share(sum(record.stats_seconds), len(record.stats_seconds)),
        "supervisor.dedup_cached_share": share(dedup[protocol.DEDUP_CACHED], len(served)),
        "supervisor.dedup_coalesced_share": share(
            dedup[protocol.DEDUP_COALESCED], len(served)
        ),
        "supervisor.max_queue_depth": float(final_stats.get("max_queue_depth", 0)),
        "supervisor.rejected_overloaded": float(reasons[protocol.REJECT_OVERLOADED]),
        "supervisor.rejected_bad_request": float(reasons[protocol.REJECT_BAD_REQUEST]),
        "supervisor.dedup_entries": float(final_stats.get("dedup_cache_entries", 0)),
        "journal.records": float(final_stats.get("journal_records", 0)),
        "journal.bytes": float(journal_bytes),
        "journal.bytes_per_request": journal_bytes / attempted,
        "loadgen.lag_p99_s": tail(lag)[0],
        "ops.fail_share": share(attempted - len(served), attempted),
        "input.duplicate_share": share(kinds["duplicate"], attempted),
        "input.near_duplicate_share": share(kinds["near"], attempted),
        "input.itc02_share": share(kinds["itc02"], attempted),
        "input.defect_share": share(sum(1 for wire in requests if wire.defect), attempted),
    }
    notes = [
        f"requests={attempted} rate={RATE_RPS}rps schedule={inputs.seconds}s "
        f"measured={span:.3f}s",
        f"latency_p99_s is the p{latency_q * 100:.1f} of {latency_n} results",
        "fail_share="
        f"{layer_values['ops.fail_share']:.4f} (expected ITC'02 bad-request share "
        f"{layer_values['input.defect_share']:.4f}; overloaded="
        f"{reasons[protocol.REJECT_OVERLOADED]})",
    ]
    if tracer.enabled:
        layer_values.update(_trace(inputs, record, tracer, session, t0, outcome))
    return {
        "attempted": attempted,
        "failed": unexpected,
        "end_to_end": end_to_end,
        "layers": layer_values,
        "notes": notes,
    }


def _trace(
    inputs: Inputs,
    record: _Record,
    tracer: Tracer,
    session: Optional[_CurveTimedSession],
    t0: float,
    outcome: Dict[str, Any],
) -> Dict[str, float]:
    """Build each request's span tree and time the per-request layers."""
    assert session is not None
    for wire in inputs.requests:
        rid = wire.request_id
        due = t0 + wire.due
        root = tracer.add("request", due, record.done[rid], request=rid, kind=wire.kind)
        tracer.add("loadgen.lag", due, record.send[rid], root, rid)
        tracer.add("protocol.parse_client_line", record.send[rid], record.parsed[rid], root, rid)
        tracer.add("supervisor.process", record.parsed[rid], record.returned[rid], root, rid)
        accepted = record.accepted.get(rid)
        started = record.started.get(rid)
        if accepted is not None:
            queued_until = started if started is not None else record.reply_at[rid]
            tracer.add("supervisor.queue", accepted, max(accepted, queued_until), root, rid)
        if started is not None:
            service = tracer.add("supervisor.service", started, record.reply_at[rid], root, rid)
            for begin, end in session.curve_spans.get(rid, ()):
                tracer.add("wrapper.rectangle_sets", begin, end, service, rid)
        tracer.add("protocol.encode_message", record.reply_at[rid], record.done[rid], root, rid)

    # Codec costs the live run cannot separate from ``process``: replayed
    # here on the same lines, outside the timed region.
    decode = fingerprint = 0.0
    for wire in inputs.requests:
        started = time.perf_counter()
        message = protocol.parse_client_line(wire.line)
        try:
            request = ScheduleRequest.from_dict(message["request"])
        except ValueError:
            decode += time.perf_counter() - started
            continue
        middle = time.perf_counter()
        request.fingerprint()
        fingerprint += time.perf_counter() - middle
        decode += middle - started

    # Layer probe on every distinct served request, on warm sets.
    batch: Session = outcome["batch"]
    by_id = {wire.request_id: wire for wire in inputs.requests}
    plan = run = validate = 0.0
    probed = early = unique_runs = grid_points = 0
    seen = set()
    for rid, result in outcome["served"].items():
        wire = by_id[rid]
        key = wire.request.fingerprint()
        if key in seen:
            continue
        seen.add(key)
        request = wire.request
        sets = batch.rectangle_sets(request.soc, request.config.max_core_width)
        if request.solver == "best":
            planned = layers.time_plan(request.soc, request.total_width, sets, request.options)
            plan += planned["plan_s"]
            unique_runs += planned["unique_runs"]
            grid_points += planned["grid_points"]
        probe = layers.time_scheduler(
            request.soc, request.total_width, request.solver, sets, request.options
        )
        run += probe["run_s"]
        early += int(probe["early_exit"])
        assert result.schedule is not None
        validate += layers.time_validate(result.schedule, request.soc)
        probed += 1
    return {
        "protocol.decode_s": decode / len(inputs.requests),
        "protocol.fingerprint_s": fingerprint / len(inputs.requests),
        "wrapper.curve_s": share(sum(session.curve_seconds.values()), len(inputs.requests)),
        "grid.plan_s": share(plan, probed),
        "grid.unique_run_share": share(unique_runs, grid_points),
        "grid.early_exit_share": share(early, probed),
        "scheduler.run_s": share(run, probed),
        "schedule.validate_s": share(validate, probed),
    }
