"""Schedule data structures and validation.

The paper represents a test schedule as a packed bin of rectangles
(Figure 2): the bin height is the total SOC TAM width, the bin width is the
SOC testing time, and each rectangle (or rectangle piece, when a test is
preempted) is a contiguous run of one core's test at a fixed TAM width.

:class:`TestSchedule` stores exactly that, as a list of
:class:`ScheduleSegment` objects, and can check every constraint the paper's
``Conflict`` subroutine enforces:

* total TAM width never exceeded,
* every core tested to completion (total scheduled time matches the wrapper
  testing time plus preemption overhead),
* precedence, concurrency and power constraints respected,
* per-core preemption limits respected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.soc.constraints import ConstraintSet
from repro.soc.soc import Soc


class ScheduleError(ValueError):
    """Raised when a test schedule violates a structural or user constraint."""


@dataclass(frozen=True)
class ScheduleSegment:
    """A contiguous run of one core's test at a fixed TAM width."""

    core: str
    start: int
    end: int
    width: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ScheduleError(f"segment for {self.core!r} starts before time 0")
        if self.end <= self.start:
            raise ScheduleError(
                f"segment for {self.core!r} has non-positive duration "
                f"({self.start}..{self.end})"
            )
        if self.width <= 0:
            raise ScheduleError(f"segment for {self.core!r} has non-positive width")

    @property
    def duration(self) -> int:
        """Length of this segment in cycles."""
        return self.end - self.start

    @property
    def area(self) -> int:
        """TAM wire-cycles occupied by this segment."""
        return self.duration * self.width

    def overlaps(self, other: "ScheduleSegment") -> bool:
        """True if the two segments overlap in time (boundaries may touch)."""
        return self.start < other.end and other.start < self.end


#: Each core's segments in time order, keyed in first-appearance order.
_Groups = Dict[str, List[ScheduleSegment]]


@dataclass(frozen=True)
class CoreScheduleSummary:
    """Per-core view of a schedule: begin/end times, width(s), preemptions."""

    core: str
    first_begin: int
    last_end: int
    total_time: int
    widths: Tuple[int, ...]
    preemptions: int


@dataclass(frozen=True)
class TestSchedule:
    """A complete SOC test schedule (the packed bin of Figure 2)."""

    # Not a test case, despite the ``Test`` prefix.
    __test__ = False

    soc_name: str
    total_width: int
    segments: Tuple[ScheduleSegment, ...] = field(default_factory=tuple)

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "segments",
            tuple(sorted(self.segments, key=lambda s: (s.start, s.core, s.end))),
        )
        if self.total_width <= 0:
            raise ScheduleError("total TAM width must be positive")

    # ------------------------------------------------------------------
    # Aggregate quantities
    # ------------------------------------------------------------------
    @property
    def makespan(self) -> int:
        """SOC testing time: the width to which the bin is filled."""
        return max((segment.end for segment in self.segments), default=0)

    @property
    def scheduled_cores(self) -> Tuple[str, ...]:
        """Names of all cores that appear in the schedule."""
        return tuple(dict.fromkeys(segment.core for segment in self.segments))

    @property
    def occupied_area(self) -> int:
        """TAM wire-cycles carrying test data."""
        return sum(segment.area for segment in self.segments)

    @property
    def idle_area(self) -> int:
        """TAM wire-cycles that carry no test data (unfilled bin area)."""
        return self.total_width * self.makespan - self.occupied_area

    @property
    def tam_utilization(self) -> float:
        """Fraction of TAM wire-cycles that carry test data (0..1)."""
        total = self.total_width * self.makespan
        if total == 0:
            return 0.0
        return self.occupied_area / total

    def segments_for(self, core: str) -> Tuple[ScheduleSegment, ...]:
        """All segments of the named core, in time order."""
        return tuple(segment for segment in self.segments if segment.core == core)

    def _segments_by_core(self) -> _Groups:
        """Group the segments by core in one pass (see :data:`_Groups`)."""
        groups: _Groups = {}
        for segment in self.segments:
            groups.setdefault(segment.core, []).append(segment)
        return groups

    def preemptions_of(self, core: str) -> int:
        """Number of times the named core's test was preempted."""
        return max(len(self.segments_for(core)) - 1, 0)

    def core_summary(self, core: str) -> CoreScheduleSummary:
        """Begin/end/width/preemption summary for one core."""
        segments = self.segments_for(core)
        if not segments:
            raise KeyError(f"core {core!r} does not appear in the schedule")
        return CoreScheduleSummary(
            core=core,
            first_begin=segments[0].start,
            last_end=segments[-1].end,
            total_time=sum(segment.duration for segment in segments),
            widths=tuple(segment.width for segment in segments),
            preemptions=len(segments) - 1,
        )

    def summaries(self) -> Tuple[CoreScheduleSummary, ...]:
        """Per-core summaries for every scheduled core."""
        return tuple(self.core_summary(core) for core in self.scheduled_cores)

    def width_profile(self) -> List[Tuple[int, int]]:
        """Piecewise-constant TAM usage: list of (time, wires in use) breakpoints."""
        events: Dict[int, int] = {}
        for segment in self.segments:
            events[segment.start] = events.get(segment.start, 0) + segment.width
            events[segment.end] = events.get(segment.end, 0) - segment.width
        profile = []
        in_use = 0
        for time in sorted(events):
            in_use += events[time]
            profile.append((time, in_use))
        return profile

    def peak_width(self) -> int:
        """Largest number of TAM wires in use at any moment."""
        return max((usage for _, usage in self.width_profile()), default=0)

    def power_profile(self, soc: Soc) -> List[Tuple[int, float]]:
        """Piecewise-constant total test power: (time, power) breakpoints."""
        events: Dict[int, float] = {}
        for segment in self.segments:
            power = soc.core(segment.core).test_power
            events[segment.start] = events.get(segment.start, 0.0) + power
            events[segment.end] = events.get(segment.end, 0.0) - power
        profile = []
        current = 0.0
        for time in sorted(events):
            current += events[time]
            profile.append((time, current))
        return profile

    def peak_power(self, soc: Soc) -> float:
        """Largest total test power dissipated at any moment."""
        return max((power for _, power in self.power_profile(soc)), default=0.0)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(
        self,
        soc: Optional[Soc] = None,
        constraints: Optional[ConstraintSet] = None,
        expected_times: Optional[Dict[str, Dict[int, int]]] = None,
    ) -> None:
        """Check the schedule for structural and constraint violations.

        Called with no arguments it performs the purely structural checks:
        the total TAM width is never exceeded at any instant (so no two
        segments can overlap on a wire) and no core's own segments overlap
        in time.  Every solver output goes through at least this form.

        Parameters
        ----------
        soc:
            The SOC the schedule was built for.  When given, every scheduled
            core must exist and every core of the SOC must be fully
            scheduled (its test appears in the schedule).
        constraints:
            Optional constraint set; when given (requires ``soc``),
            precedence, concurrency, power and preemption-limit violations
            raise :class:`ScheduleError`.
        expected_times:
            Optional mapping ``core -> {width -> testing time}``.  When given,
            each core's total scheduled time must equal the testing time of
            its assigned width plus its accumulated preemption overhead.
            (The scheduler passes this; external callers usually omit it.)
        """
        groups = self._segments_by_core()
        if soc is not None:
            core_names = set(soc.core_names)
            scheduled = set(groups)
            unknown = sorted(scheduled - core_names)
            if unknown:
                raise ScheduleError(f"schedule references unknown cores: {unknown}")
            missing = sorted(core_names - scheduled)
            if missing:
                raise ScheduleError(f"schedule does not test cores: {missing}")

        self._check_width_capacity()
        self._check_no_core_self_overlap(groups)

        if constraints is not None:
            if soc is None:
                raise ScheduleError(
                    "constraint validation needs the SOC the schedule was built for"
                )
            constraints.validate_for(soc)
            self._check_precedence(groups, constraints)
            self._check_concurrency(groups, constraints)
            self._check_power(soc, constraints)
            self._check_preemption_limits(groups, constraints)

        if expected_times is not None:
            self._check_durations(groups, expected_times)

    def _check_width_capacity(self) -> None:
        if self.peak_width() > self.total_width:
            raise ScheduleError(
                f"TAM width exceeded: {self.peak_width()} wires in use, "
                f"only {self.total_width} available"
            )

    def _check_no_core_self_overlap(self, groups: _Groups) -> None:
        for core, segments in groups.items():
            for first, second in zip(segments, segments[1:]):
                if first.overlaps(second):
                    raise ScheduleError(
                        f"core {core!r} has overlapping segments "
                        f"({first.start}..{first.end} and {second.start}..{second.end})"
                    )

    def _check_precedence(self, groups: _Groups, constraints: ConstraintSet) -> None:
        for before, after in constraints.precedence:
            before_segments = groups.get(before)
            after_segments = groups.get(after)
            if not before_segments or not after_segments:
                continue
            before_end = max(segment.end for segment in before_segments)
            after_start = min(segment.start for segment in after_segments)
            if after_start < before_end:
                raise ScheduleError(
                    f"precedence violated: {after!r} begins at {after_start} "
                    f"before {before!r} completes at {before_end}"
                )

    def _check_concurrency(self, groups: _Groups, constraints: ConstraintSet) -> None:
        for pair in constraints.concurrency:
            first, second = sorted(pair)
            for seg_a in groups.get(first, ()):
                for seg_b in groups.get(second, ()):
                    if seg_a.overlaps(seg_b):
                        raise ScheduleError(
                            f"concurrency violated: {first!r} and {second!r} overlap "
                            f"during [{max(seg_a.start, seg_b.start)}, "
                            f"{min(seg_a.end, seg_b.end)})"
                        )

    def _check_power(self, soc: Soc, constraints: ConstraintSet) -> None:
        if constraints.power_max is None:
            return
        peak = self.peak_power(soc)
        if peak > constraints.power_max + 1e-9:
            raise ScheduleError(
                f"power constraint violated: peak power {peak} exceeds "
                f"limit {constraints.power_max}"
            )

    def _check_preemption_limits(self, groups: _Groups, constraints: ConstraintSet) -> None:
        for core, segments in groups.items():
            limit = constraints.preemption_limit(core)
            actual = len(segments) - 1
            if actual > limit:
                raise ScheduleError(
                    f"core {core!r} preempted {actual} times, limit is {limit}"
                )

    def _check_durations(self, groups: _Groups, expected_times: Dict[str, Dict[int, int]]) -> None:
        for core, segments in groups.items():
            widths = {segment.width for segment in segments}
            if len(widths) != 1:
                raise ScheduleError(
                    f"core {core!r} is scheduled at multiple widths {sorted(widths)}; "
                    "the paper fixes a core's width once packed"
                )
            expected_for_core = expected_times.get(core)
            if not expected_for_core:
                continue
            width = widths.pop()
            if width not in expected_for_core:
                raise ScheduleError(
                    f"core {core!r} scheduled at width {width}, which has no "
                    "recorded testing time"
                )
            total = sum(segment.duration for segment in segments)
            if total < expected_for_core[width]:
                raise ScheduleError(
                    f"core {core!r} is under-tested: scheduled {total} cycles, "
                    f"needs at least {expected_for_core[width]}"
                )

    # ------------------------------------------------------------------
    # Serialization (the payload of a :class:`repro.solvers.ScheduleResult`)
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-serializable dict form (round-trips through :meth:`from_dict`)."""
        return {
            "soc_name": self.soc_name,
            "total_width": self.total_width,
            "segments": [
                {
                    "core": segment.core,
                    "start": segment.start,
                    "end": segment.end,
                    "width": segment.width,
                }
                for segment in self.segments
            ],
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "TestSchedule":
        """Rebuild a schedule from :meth:`to_dict` output."""
        segments = tuple(
            ScheduleSegment(
                core=str(item["core"]),
                start=int(item["start"]),
                end=int(item["end"]),
                width=int(item["width"]),
            )
            for item in data.get("segments") or ()
        )
        return cls(
            soc_name=str(data["soc_name"]),
            total_width=int(data["total_width"]),
            segments=segments,
        )

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------
    def describe(self) -> str:
        """Multi-line textual description of the schedule."""
        lines = [
            f"Schedule for {self.soc_name} (TAM width {self.total_width}): "
            f"makespan {self.makespan} cycles, "
            f"utilisation {self.tam_utilization:.1%}"
        ]
        for summary in self.summaries():
            widths = "/".join(str(w) for w in summary.widths)
            lines.append(
                f"  {summary.core}: [{summary.first_begin}, {summary.last_end}) "
                f"width {widths}, {summary.preemptions} preemptions"
            )
        return "\n".join(lines)
