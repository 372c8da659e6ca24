"""Direct timings of single layers, taken outside an operation's timed region.

The traced runs call these on the inputs an operation just solved (with
its rectangle sets already warm) to split the operation's time into the
grid-planning, scheduler and validation layers.
"""

from __future__ import annotations

import time
from typing import Any, Dict, Mapping

from repro.core.grid_sweep import (
    DEFAULT_DELTAS,
    DEFAULT_PERCENTS,
    DEFAULT_SLACKS,
    dedupe_grid,
    order_runs_by_estimate,
    run_grid_sweep,
)
from repro.core.lower_bounds import lower_bound
from repro.core.rectangles import RectangleSet
from repro.core.scheduler import SchedulerConfig, run_paper_scheduler
from repro.schedule.schedule import TestSchedule
from repro.soc.soc import Soc


def grid_options(options: Mapping[str, Any]) -> Dict[str, tuple]:
    """The ``best`` solver's grid axes, defaulted like the solver does."""
    return {
        "percents": tuple(options.get("percents", DEFAULT_PERCENTS)),
        "deltas": tuple(options.get("deltas", DEFAULT_DELTAS)),
        "slacks": tuple(options.get("slacks", DEFAULT_SLACKS)),
    }


def time_plan(
    soc: Soc,
    width: int,
    sets: Dict[str, RectangleSet],
    options: Mapping[str, Any],
) -> Dict[str, float]:
    """Grid planning: ``dedupe_grid`` + ``lower_bound`` + ``order_runs_by_estimate``."""
    base = SchedulerConfig()
    axes = grid_options(options)
    started = time.perf_counter()
    runs = dedupe_grid(soc, width, base, sets, **axes)
    lower_bound(soc, width, base.max_core_width, rectangle_sets=sets)
    order_runs_by_estimate(soc, sets, width, runs)
    seconds = time.perf_counter() - started
    points = len(axes["percents"]) * len(axes["deltas"]) * len(axes["slacks"])
    return {"plan_s": seconds, "unique_runs": len(runs), "grid_points": points}


def time_scheduler(
    soc: Soc,
    width: int,
    solver: str,
    sets: Dict[str, RectangleSet],
    options: Mapping[str, Any],
) -> Dict[str, Any]:
    """One serial scheduler pass on warm sets: ``run_grid_sweep`` or ``run_paper_scheduler``."""
    started = time.perf_counter()
    early_exit = False
    if solver == "best":
        outcome = run_grid_sweep(
            soc,
            width,
            rectangle_sets=sets,
            workers=0,
            **grid_options(options),
        )
        early_exit = outcome.early_exit
    else:
        run_paper_scheduler(soc, width, rectangle_sets=sets)
    return {"run_s": time.perf_counter() - started, "early_exit": early_exit}


def time_validate(schedule: TestSchedule, soc: Soc) -> float:
    """A repeated structural ``TestSchedule.validate`` of a served schedule."""
    started = time.perf_counter()
    schedule.validate(soc)
    return time.perf_counter() - started
