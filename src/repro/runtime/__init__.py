"""The parallel execution runtime: pluggable site executors under the engine.

``engine → scheduler → executor → sites``: the session builder picks a
backend (``repro.session(...).executor("shm", workers=8)``), the
:class:`SiteScheduler` partitions each detector phase into independent
per-site tasks, and the chosen :class:`Executor` runs every round
serially or on warm worker processes, one task in flight per worker.
Both backends yield the identical violation set and identical shipment
counts — the test-suite's parity matrix asserts it for all registered
strategies.
"""

from repro.runtime.executor import (
    EXECUTOR_BACKENDS,
    Executor,
    ExecutorError,
    SerialExecutor,
    SiteTask,
    TaskResult,
    make_executor,
)
from repro.runtime.scheduler import SchedulerTimings, SiteScheduler

__all__ = [
    "EXECUTOR_BACKENDS",
    "Executor",
    "ExecutorError",
    "SchedulerTimings",
    "SerialExecutor",
    "SiteScheduler",
    "SiteTask",
    "TaskResult",
    "make_executor",
]
