"""The site scheduler: rounds of independent per-site tasks between sync points.

Detectors partition each phase of their work into :class:`~repro.runtime.
executor.SiteTask` units (local violation checks, equivalence-class
maintenance, MD candidate matching, ...) and submit one *round* at a
time.  A round is a synchronisation barrier: the scheduler returns when
every task of the round has finished, the coordinator merges the results
in task order, and only then does the next phase start.  Network
shipments are charged by the coordinator during the merge, never from
inside a task — tasks stay pure and the shipment counters stay identical
across backends.

The scheduler also keeps the timing ledger: per-site busy seconds, and
per-round critical-path seconds (the wall-clock a perfectly parallel
backend would need).  Sessions surface this breakdown through
``DetectionReport``.

When a round runs inside an active trace span (see
:mod:`repro.obs.trace`), the scheduler rewraps each task so its span
context — trace id and parent span id — rides the existing picklable
task closure across the serial and shm executors.  Each task
comes back with a ``site.task[i]`` span record (and, on worker
processes, a profiling delta) that the coordinator folds back into the
tracer; results are unwrapped before the timing ledger sees them, so the
ledger is identical traced or not.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Sequence

from repro.obs import profile as _prof
from repro.obs import trace as _trace
from repro.runtime.executor import Executor, SerialExecutor, SiteTask, TaskResult


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
    #: Bytes that actually crossed a process boundary (0 for in-process
    #: backends) — tasks, fragment publishes, deltas and results alike.
    bytes_pickled: int = 0

    @property
    def parallelism(self) -> float:
        """How much faster than one core an ideal backend could run the rounds."""
        if self.critical_seconds <= 0.0:
            return 1.0
        return self.busy_seconds / self.critical_seconds


class SiteScheduler:
    """Runs rounds of site tasks on an executor and keeps the timing ledger."""

    def __init__(self, executor: Executor | None = None):
        self._executor = executor or SerialExecutor()
        self._rounds = 0
        self._tasks = 0
        self._busy = 0.0
        self._critical = 0.0
        self._by_site: dict[int, float] = {}
        self._bytes_pickled = 0
        # The executor's IPC counter is cumulative (and may be shared
        # across sessions): the ledger charges only the delta seen here.
        self._pickled_seen = self._executor.bytes_pickled

    @property
    def executor(self) -> Executor:
        return self._executor

    @property
    def backend(self) -> str:
        """The executor backend name ("serial", "shm")."""
        return self._executor.name

    # -- execution ----------------------------------------------------------------------

    def run(self, tasks: Sequence[SiteTask]) -> list[TaskResult]:
        """Run one round of tasks; results come back in submission order."""
        if not tasks:
            return []
        context = _trace.active()
        if context is not None and context[0].enabled:
            results = self._run_traced(tasks, context)
        else:
            results = self._executor.run(tasks)
        self._rounds += 1
        self._tasks += len(results)
        pickled = self._executor.bytes_pickled
        if pickled >= self._pickled_seen:
            self._bytes_pickled += pickled - self._pickled_seen
        self._pickled_seen = pickled
        slowest = 0.0
        for result in results:
            self._busy += result.seconds
            slowest = max(slowest, result.seconds)
            self._by_site[result.site] = self._by_site.get(result.site, 0.0) + result.seconds
        self._critical += slowest
        return results

    def _run_traced(
        self,
        tasks: Sequence[SiteTask],
        context: tuple["_trace.Tracer", "_trace.Span"],
    ) -> list[TaskResult]:
        """Run a round with span ids riding the picklable task closures."""
        tracer, parent = context
        profile_on = _prof.enabled
        wrapped = [
            SiteTask(
                site=task.site,
                fn=_trace.run_traced_task,
                args=(
                    parent.trace_id,
                    parent.span_id,
                    f"site.task[{index}]",
                    task.site,
                    task.label,
                    profile_on,
                    task.fn,
                    task.args,
                ),
                label=task.label,
            )
            for index, task in enumerate(tasks)
        ]
        results = self._executor.run(wrapped)
        unwrapped: list[TaskResult] = []
        for result in results:
            payload = result.value
            if isinstance(payload, _trace.TracedResult):
                tracer.ingest(payload.span)
                # Same-process tasks note straight into the shared
                # accumulator; merging their delta would double-count.
                if payload.profile and payload.span["attrs"]["pid"] != os.getpid():
                    _prof.merge(payload.profile)
                result = TaskResult(
                    site=result.site,
                    value=payload.value,
                    seconds=result.seconds,
                    label=result.label,
                )
            unwrapped.append(result)
        return unwrapped

    # -- timing ledger --------------------------------------------------------------------

    def timings(self) -> SchedulerTimings:
        """An immutable snapshot of the counters accumulated so far."""
        return SchedulerTimings(
            rounds=self._rounds,
            tasks=self._tasks,
            busy_seconds=self._busy,
            critical_seconds=self._critical,
            seconds_by_site=dict(self._by_site),
            bytes_pickled=self._bytes_pickled,
        )

    def reset_timings(self) -> None:
        """Zero the ledger (e.g. between measured batches)."""
        self._rounds = 0
        self._tasks = 0
        self._busy = 0.0
        self._critical = 0.0
        self._by_site.clear()
        self._bytes_pickled = 0
        self._pickled_seen = self._executor.bytes_pickled

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SiteScheduler({self._executor!r}, {self._rounds} rounds)"
