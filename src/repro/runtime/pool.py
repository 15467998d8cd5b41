"""A persistent pool of warm worker processes with metered pipes.

Unlike ``concurrent.futures.ProcessPoolExecutor``, the
:class:`WorkerPool` keeps its daemon workers alive for the life of the
executor and speaks a self-pickled protocol over plain pipes.  Pickling
explicitly (``pickle.dumps`` + ``send_bytes``) is what makes the IPC
cost *measurable*: every message in either direction is counted in an
:class:`~repro.distributed.serialization.IpcLedger`.

Sites stick to workers (round-robin on first sight), which is what lets
the shm backend keep per-site fragments resident across rounds.  A dead
worker is detected on the next send/recv, reported as
:class:`WorkerCrashed`, and replaced lazily with a bumped *generation*
so callers can invalidate whatever state the lost worker held.

The start method is explicit: ``fork`` where available (cheap, shares
the parent image), ``spawn`` otherwise — callers can force either.  The
worker entrypoint lives in the spawn-safe :mod:`repro.runtime.ipc`.
"""

from __future__ import annotations

import multiprocessing
import os
import pickle
from typing import Any, Callable

from repro.distributed.serialization import IpcLedger
from repro.runtime.ipc import worker_main


class WorkerCrashed(RuntimeError):
    """A worker process died mid-protocol (detected on send/recv)."""

    def __init__(self, worker: int, detail: str = ""):
        super().__init__(
            f"worker {worker} died unexpectedly" + (f": {detail}" if detail else "")
        )
        self.worker = worker


class _Worker:
    __slots__ = ("process", "connection", "generation")

    def __init__(self, process, connection, generation: int):
        self.process = process
        self.connection = connection
        self.generation = generation


class WorkerPool:
    """Long-lived worker processes, explicit pickling, sticky site affinity."""

    def __init__(
        self,
        workers: int | None = None,
        context: str | None = None,
        ledger: IpcLedger | None = None,
        on_spawn: Callable[[int, int, int], None] | None = None,
        on_exit: Callable[[int, int], None] | None = None,
    ):
        self._size = workers if workers is not None else (os.cpu_count() or 1)
        if context is None:
            methods = multiprocessing.get_all_start_methods()
            context = "fork" if "fork" in methods else "spawn"
        self._context = multiprocessing.get_context(context)
        self._context_name = context
        self.ledger = ledger if ledger is not None else IpcLedger()
        self._on_spawn = on_spawn
        self._on_exit = on_exit
        self._workers: dict[int, _Worker] = {}
        self._generations: dict[int, int] = {}
        self._affinity: dict[Any, int] = {}
        self._next_slot = 0

    # -- placement ------------------------------------------------------------------

    def worker_for(self, site: Any) -> int:
        """The sticky worker slot for ``site`` (round-robin on first sight)."""
        slot = self._affinity.get(site)
        if slot is None:
            slot = self._next_slot % self._size
            self._next_slot += 1
            self._affinity[site] = slot
        return slot

    def generation(self, slot: int) -> int:
        """How many times slot ``slot`` has been (re)spawned so far."""
        return self._generations.get(slot, 0)

    def is_alive(self, slot: int) -> bool:
        worker = self._workers.get(slot)
        return worker is not None and worker.process.is_alive()

    def ensure_worker(self, slot: int) -> int:
        """Spawn slot ``slot`` if needed and return its live generation."""
        return self._ensure(slot).generation

    def connection(self, slot: int) -> Any:
        """The coordinator end of live worker ``slot``'s pipe (to ``wait`` on)."""
        return self._workers[slot].connection

    # -- lifecycle ------------------------------------------------------------------

    def _ensure(self, slot: int) -> _Worker:
        worker = self._workers.get(slot)
        if worker is not None:
            if worker.process.is_alive():
                return worker
            self._discard(slot, worker)
        generation = self._generations.get(slot, 0) + 1
        self._generations[slot] = generation
        parent_conn, child_conn = self._context.Pipe(duplex=True)
        process = self._context.Process(
            target=worker_main,
            args=(child_conn,),
            name=f"repro-worker-{slot}",
            daemon=True,
        )
        process.start()
        child_conn.close()
        worker = _Worker(process, parent_conn, generation)
        self._workers[slot] = worker
        if self._on_spawn is not None:
            self._on_spawn(slot, generation, process.pid)
        return worker

    def _discard(self, slot: int, worker: _Worker) -> None:
        try:
            worker.connection.close()
        except OSError:  # pragma: no cover - already gone
            pass
        worker.process.join(timeout=0.2)
        del self._workers[slot]
        if self._on_exit is not None:
            self._on_exit(slot, worker.generation)

    # -- metered protocol --------------------------------------------------------------

    def send(self, slot: int, message: Any, kind: str) -> None:
        """Pickle, count and send one message to worker ``slot``."""
        worker = self._ensure(slot)
        blob = pickle.dumps(message, protocol=pickle.HIGHEST_PROTOCOL)
        try:
            worker.connection.send_bytes(blob)
        except (BrokenPipeError, OSError) as exc:
            self._discard(slot, worker)
            raise WorkerCrashed(slot, str(exc)) from exc
        self.ledger.count(kind, len(blob))

    def recv(self, slot: int) -> Any:
        """Receive, count and unpickle one reply from worker ``slot``."""
        worker = self._workers.get(slot)
        if worker is None:
            raise WorkerCrashed(slot, "no live worker to receive from")
        try:
            blob = worker.connection.recv_bytes()
        except (EOFError, OSError) as exc:
            self._discard(slot, worker)
            raise WorkerCrashed(slot, str(exc)) from exc
        self.ledger.count("result", len(blob))
        return pickle.loads(blob)

    def close(self) -> None:
        """Stop every worker (graceful stop, then terminate stragglers)."""
        for slot, worker in list(self._workers.items()):
            try:
                worker.connection.send_bytes(
                    pickle.dumps(("stop",), protocol=pickle.HIGHEST_PROTOCOL)
                )
            except (BrokenPipeError, OSError):
                pass
            try:
                worker.connection.close()
            except OSError:  # pragma: no cover - already gone
                pass
            worker.process.join(timeout=2.0)
            if worker.process.is_alive():  # pragma: no cover - stuck worker
                worker.process.terminate()
                worker.process.join(timeout=1.0)
            if self._on_exit is not None:
                self._on_exit(slot, worker.generation)
        self._workers.clear()
        self._affinity.clear()
        self._next_slot = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"WorkerPool(size={self._size}, context={self._context_name!r}, "
            f"live={len(self._workers)})"
        )
