"""Pluggable site executors: serial and shm.

The detectors express their per-site local phases as *pure tasks* — a
top-level function plus picklable arguments, no shared state — and hand
them to an :class:`Executor`.  Both backends return results **in task
submission order**, so a coordinator that merges results in order sees
exactly the serial outcome regardless of how the tasks were interleaved;
this is what makes the parity guarantee (identical violations, identical
shipment counts on every backend) checkable.

Backends:

* :class:`SerialExecutor` — runs tasks inline, in order.  The default.
* :class:`~repro.runtime.shm.SharedMemoryExecutor` (``"shm"``) — a
  persistent pool of warm worker processes with one task in flight per
  worker.  Tasks and their results cross an explicitly metered pickle
  boundary, except columnar relation arguments: those are published
  once into shared memory and kept warm in the workers, so later rounds
  ship only update deltas and results.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Any, Callable, Sequence


class ExecutorError(RuntimeError):
    """Raised on unknown backend names or invalid executor configurations."""


@dataclass(frozen=True)
class SiteTask:
    """One independent unit of per-site work.

    ``fn`` must be a module-level callable and ``args`` picklable when
    the task may run on the ``shm`` backend.  ``site`` attributes the
    task's wall-clock to a site in the timing breakdown (use the
    coordinator's id, or any stable key, for work not owned by one
    site).
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


class Executor(ABC):
    """Runs a round of independent site tasks; results keep task order."""

    #: Registry name of the backend ("serial", "shm").
    name: str = "serial"

    @abstractmethod
    def run(self, tasks: Sequence[SiteTask]) -> list[TaskResult]:
        """Execute every task and return results in submission order."""

    def close(self) -> None:
        """Release pooled workers (no-op for poolless backends)."""

    @property
    def bytes_pickled(self) -> int:
        """Bytes that crossed a process boundary so far (0 in-process)."""
        return 0

    def __enter__(self) -> "Executor":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()


class SerialExecutor(Executor):
    """Run tasks inline on the calling thread — the default backend."""

    name = "serial"
    workers = 1

    def run(self, tasks: Sequence[SiteTask]) -> list[TaskResult]:
        results = []
        for task in tasks:
            start = time.perf_counter()
            value = task.fn(*task.args)
            seconds = time.perf_counter() - start
            results.append(TaskResult(task.site, value, seconds, task.label))
        return results

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return "SerialExecutor()"


def _make_serial() -> SerialExecutor:
    """The serial backend takes no options (a kwarg raises TypeError)."""
    return SerialExecutor()


def _make_shm(**options: Any) -> Executor:
    """Lazy factory for the shared-memory backend (avoids an import cycle)."""
    from repro.runtime.shm import SharedMemoryExecutor

    return SharedMemoryExecutor(**options)


#: Built-in backend factories, addressable by name from sessions and benchmarks.
EXECUTOR_BACKENDS: dict[str, Callable[..., Executor]] = {
    "serial": _make_serial,
    "shm": _make_shm,
}


def make_executor(backend: "str | Executor" = "serial", **options: Any) -> Executor:
    """Build an executor from a backend name, or pass an instance through.

    ``make_executor("shm", workers=8)`` builds a fresh pool;
    ``make_executor(my_executor)`` returns ``my_executor`` unchanged
    (options are rejected in that case — configure the instance
    directly).
    """
    if isinstance(backend, Executor):
        if options:
            raise ExecutorError(
                "options are only accepted with a backend name, not an "
                "executor instance"
            )
        return backend
    if not isinstance(backend, str):
        raise ExecutorError(
            f"backend must be a name or an Executor instance, not {type(backend).__name__}"
        )
    try:
        factory = EXECUTOR_BACKENDS[backend]
    except KeyError:
        known = ", ".join(sorted(EXECUTOR_BACKENDS))
        raise ExecutorError(f"unknown executor backend {backend!r}; known: {known}") from None
    try:
        return factory(**options)
    except TypeError as exc:
        raise ExecutorError(f"backend {backend!r} rejected options: {exc}") from None
