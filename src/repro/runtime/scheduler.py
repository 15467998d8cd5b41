"""The site scheduler: rounds of independent per-site tasks between sync points.

Detectors partition each phase of their work into :class:`SiteTask`
units (local violation checks, equivalence-class maintenance, MD
candidate matching, ...) and submit one *round* at a time.  A round is a
synchronisation barrier: the scheduler runs every task of the round
inline, in order, the coordinator merges the results in task order, and
only then does the next phase start.  Network shipments are charged by
the coordinator during the merge, never from inside a task, so the
shipment counters depend only on the tasks' results.

The scheduler also keeps the timing ledger: per-site busy seconds, and
per-round critical-path seconds (the wall-clock a round would need if
its sites worked in parallel).  Sessions surface this breakdown through
``DetectionReport``.

When a round runs inside an active trace span (see
:mod:`repro.obs.trace`), each task runs under its own ``site.task[i]``
span, parented at that span and tagged with the task's ``site`` and
``label``.
"""

from __future__ import annotations

import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

from repro.obs import trace as _trace


@dataclass(frozen=True)
class SiteTask:
    """One independent unit of per-site work: ``fn(*args)``.

    ``site`` attributes the task's wall-clock to a site in the timing
    breakdown (use the coordinator's id, or any stable key, for work not
    owned by one site).
    """

    site: int
    fn: Callable[..., Any]
    args: tuple = ()
    label: str = ""


@dataclass(frozen=True)
class TaskResult:
    """The outcome of one :class:`SiteTask` (in submission order)."""

    site: int
    value: Any
    seconds: float
    label: str = ""


@dataclass(frozen=True)
class SchedulerTimings:
    """A snapshot of the scheduler's timing ledger."""

    rounds: int = 0
    tasks: int = 0
    #: Sum of all task durations (total CPU-side work submitted).
    busy_seconds: float = 0.0
    #: Sum over rounds of the slowest task — the ideal parallel wall-clock.
    critical_seconds: float = 0.0
    #: Busy seconds attributed to each site id.
    seconds_by_site: dict[int, float] = field(default_factory=dict)
    #: Bytes that crossed a process boundary: always 0, tasks run in-process.
    bytes_pickled: int = 0

    @property
    def parallelism(self) -> float:
        """How much faster than one core an ideal backend could run the rounds."""
        if self.critical_seconds <= 0.0:
            return 1.0
        return self.busy_seconds / self.critical_seconds


class SiteScheduler:
    """Runs rounds of site tasks inline and keeps the timing ledger."""

    def __init__(self) -> None:
        self.reset_timings()

    def run(self, tasks: Sequence[SiteTask]) -> list[TaskResult]:
        """Run one round of tasks; results come back in submission order."""
        if not tasks:
            return []
        context = _trace.active()
        traced = context is not None and context[0].enabled
        clock = time.perf_counter
        results = []
        for index, task in enumerate(tasks):
            span = (
                context[0].span(
                    f"site.task[{index}]", parent=context[1], site=task.site, label=task.label
                )
                if traced
                else nullcontext()
            )
            with span:
                start = clock()
                value = task.fn(*task.args)
                seconds = clock() - start
            results.append(TaskResult(task.site, value, seconds, task.label))
        # The ledger counts only rounds that finished.
        by_site = self._by_site
        slowest = 0.0
        for result in results:
            self._busy += result.seconds
            slowest = max(slowest, result.seconds)
            by_site[result.site] = by_site.get(result.site, 0.0) + result.seconds
        self._rounds += 1
        self._tasks += len(results)
        self._critical += slowest
        return results

    # -- timing ledger --------------------------------------------------------------------

    def timings(self) -> SchedulerTimings:
        """An immutable snapshot of the counters accumulated so far."""
        return SchedulerTimings(
            rounds=self._rounds,
            tasks=self._tasks,
            busy_seconds=self._busy,
            critical_seconds=self._critical,
            seconds_by_site=dict(self._by_site),
        )

    def reset_timings(self) -> None:
        """Zero the ledger (e.g. between measured batches)."""
        self._rounds = 0
        self._tasks = 0
        self._busy = 0.0
        self._critical = 0.0
        self._by_site: dict[int, float] = {}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SiteScheduler({self._rounds} rounds)"
