"""The site runtime under the engine: one in-process scheduler.

``engine → scheduler → sites``: the :class:`SiteScheduler` runs each
detector phase as a round of independent per-site :class:`SiteTask`
units, inline and in order, and keeps the timing ledger
(:class:`SchedulerTimings`).  Shipments are charged by the coordinator,
so violations and network counters do not depend on how tasks run.
"""

from repro.runtime.scheduler import SchedulerTimings, SiteScheduler, SiteTask, TaskResult

__all__ = [
    "SchedulerTimings",
    "SiteScheduler",
    "SiteTask",
    "TaskResult",
]
