"""REP012: shared-memory segments only through the shm lifecycle helpers.

The zero-copy payload plane (:mod:`repro.engine.shm`) owns every
``multiprocessing.shared_memory.SharedMemory`` segment the process
creates or attaches: the parent wraps creations in a finalizer-backed
:class:`~repro.engine.shm.ShmSegment` (close + unlink exactly once, even
on abandonment) and workers leave the shared ``resource_tracker`` entry
to the parent and cap their attach cache.  A ``SharedMemory(...)``
call anywhere else re-creates exactly the leak classes that lifecycle
exists to rule out: segments that survive the run in ``/dev/shm``,
double-unlinks at worker exit, and mappings pinned by forgotten views.

The rule is interprocedural: a ``SharedMemory`` constructor call is
allowed only when its enclosing function is reachable (per the project
call graph) from one of the :data:`SHM_LIFECYCLE_ENTRIES` helper
functions -- matched by *name*, so fixture trees exercise the rule
without importing the real module.  Module-level constructor calls have
no enclosing function and are always reported.  Findings carry the
witness call chain from the nearest lifecycle entry when one exists.
"""

from __future__ import annotations

import ast
from typing import TYPE_CHECKING, Iterator, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.staticcheck.analysis import ProjectAnalysis

from repro.staticcheck.engine import (
    Finding,
    LintRule,
    ModuleContext,
    ProjectContext,
    register_rule,
)
from repro.staticcheck.rules._astutil import call_name

#: Function names that constitute the shm lifecycle boundary.  Every
#: ``SharedMemory`` construction must be reachable from one of these
#: (``repro.engine.shm`` is their canonical home; matching by name keeps
#: the rule testable on fixture trees).
SHM_LIFECYCLE_ENTRIES = (
    "publish_universe",
    "publish_plan",
    "adopt_universe",
    "load_plan",
    "release_worker_segments",
)

#: The constructor the rule guards (trailing name; both the plain
#: ``SharedMemory(...)`` and the dotted ``shared_memory.SharedMemory(...)``
#: spellings resolve to it).
_CONSTRUCTOR = "SharedMemory"


def _is_shm_constructor(node: ast.Call) -> bool:
    """True when ``node`` calls ``SharedMemory`` (plain or dotted)."""
    return call_name(node.func).rsplit(".", 1)[-1] == _CONSTRUCTOR


@register_rule
class ShmLifecycleRule(LintRule):
    """SharedMemory constructions outside the shm lifecycle helpers."""

    code = "REP012"
    name = "shm-lifecycle"
    description = (
        "multiprocessing SharedMemory segments must be created/attached "
        "only on paths reachable from the engine/shm lifecycle helpers "
        "(publish_plan, publish_universe, adopt_universe, load_plan, "
        "release_worker_segments) -- ad-hoc segments leak past the "
        "finalizer and resource-tracker guards"
    )

    def check_project(self, context: ProjectContext) -> Iterator[Finding]:
        analysis = context.analysis()
        entries = tuple(
            sorted(
                ident
                for ident, symbol in analysis.table.functions.items()
                if symbol.name in SHM_LIFECYCLE_ENTRIES
            )
        )
        sanctioned = (
            analysis.call_graph.reachable(entries=entries) if entries else {}
        )
        for module in context.modules:
            if not self.applies_to(module.module):
                continue
            for node in ast.walk(module.tree):
                if not isinstance(node, ast.Call) or not _is_shm_constructor(node):
                    continue
                ident = self._enclosing_function(analysis, module, node)
                if ident is not None and ident in sanctioned:
                    continue
                chain: Tuple[str, ...] = ()
                if ident is not None:
                    # No lifecycle chain exists (that is the finding); the
                    # worker-path chain still localises the call site.
                    chain = analysis.worker_reachable().get(ident, ())
                where = (
                    f"function {ident!r}" if ident is not None else "module level"
                )
                yield Finding(
                    path=module.display_path,
                    line=node.lineno,
                    column=node.col_offset,
                    rule=self.code,
                    severity=self.severity,
                    message=(
                        f"SharedMemory constructed at {where}, unreachable "
                        "from the shm lifecycle helpers "
                        f"({', '.join(SHM_LIFECYCLE_ENTRIES)}); route segment "
                        "creation/attachment through repro.engine.shm so the "
                        "finalizer and resource-tracker guards apply"
                    ),
                    chain=chain,
                )

    @staticmethod
    def _enclosing_function(
        analysis: "ProjectAnalysis", module: ModuleContext, node: ast.Call
    ) -> Optional[str]:
        """The innermost project function containing ``node``, if any."""
        best: Optional[Tuple[int, str]] = None
        for ident, symbol in analysis.table.functions.items():
            if symbol.path != module.display_path:
                continue
            end = int(
                getattr(symbol.node, "end_lineno", symbol.lineno) or symbol.lineno
            )
            if symbol.lineno <= node.lineno <= end:
                candidate = (symbol.lineno, ident)
                if best is None or candidate > best:
                    best = candidate  # innermost = latest-starting enclosing def
        return best[1] if best is not None else None
