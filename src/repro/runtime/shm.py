"""The process backend: warm workers, zero-copy fragment fan-out.

:class:`SharedMemoryExecutor` runs each round of site tasks on a
persistent :class:`~repro.runtime.pool.WorkerPool` of warm worker
processes.  Sites stick to workers, and every message is explicitly
pickled and counted.  A round keeps **one task in flight per worker**:
a worker is sent its next task (with any publish or delta that task
needs) only after its previous reply has been read.  A worker is thus
always either reading or idle when the coordinator writes to it, so a
round completes whatever the sizes of tasks and replies.

On top of the pool the executor keeps *fragment residency*.  Columnar
relations found in task arguments are not pickled into the task
message; instead the executor

1. **publishes** the fragment once — packed code buffers into one
   ``multiprocessing.shared_memory`` segment (attached zero-copy in the
   worker, see :mod:`repro.columnar.shmcol`) plus a small pickled meta
   payload — and replaces the argument with a
   :class:`~repro.runtime.ipc.ResidentRef` marker;
2. **catches the replica up by delta** on later rounds: the store's
   mutation journal (decoded values, never codes) crosses the pipe
   instead of the fragment;
3. **republishes** only when it must — the store object changed
   identity (e.g. a re-partitioning rebuilt the fragment), the journal
   overflowed, or the worker was respawned after a crash.

Elasticity integrates through exactly these rules: an in-place
migration (``scale()``/``rebalance()`` moving buckets between sites)
appears as journal deltas on the touched fragments only, while a
rebuilt fragment (new store identity) triggers a republish of just that
site — untouched resident fragments keep their warm state.

The coordinator owns every segment: it creates, tracks and unlinks them
(on invalidation and at :meth:`close`), so segments cannot leak even
when a worker dies without cleaning up.  Workers merely attach and
detach.  Equal fragments published to several workers share one segment
per ``(store uid, version)`` with refcounting.

A vertical fragment views one resident relation
(:class:`~repro.core.storage.ProjectionView`): the resident columns are
published once per worker, and every fragment over them crosses the
pipe as a reference plus its attribute list.

Anything that is not a columnar relation — plain row lists, CFDs,
indexes — falls back to ordinary pickling, so the backend accepts every
picklable task.
"""

from __future__ import annotations

import weakref
from collections import deque
from multiprocessing.connection import wait
from multiprocessing.shared_memory import SharedMemory
from typing import Any, Sequence

from repro.columnar.shmcol import export_payload
from repro.columnar.store import column_store_of
from repro.core.storage import ProjectionView
from repro.distributed.serialization import IpcLedger
from repro.runtime.executor import Executor, ExecutorError, SiteTask, TaskResult
from repro.runtime.ipc import ResidentRef
from repro.runtime.pool import WorkerCrashed, WorkerPool


class _Segment:
    __slots__ = ("shm", "refs")

    def __init__(self, shm: SharedMemory):
        self.shm = shm
        self.refs = 0


class _Resident:
    __slots__ = ("version", "store_ref", "seg_key", "generation")

    def __init__(self, version, store_ref, seg_key, generation):
        self.version = version
        self.store_ref = store_ref
        self.seg_key = seg_key
        self.generation = generation


class SharedMemoryExecutor(Executor):
    """Warm worker processes with shared-memory-resident columnar fragments.

    The pool is created lazily and re-created lazily after :meth:`close`,
    so repeated ``run()`` calls stop paying process startup per wave.
    The fork/spawn start method is an explicit choice (``context=``).  A
    worker that dies mid-round fails that round with
    :class:`~repro.runtime.executor.ExecutorError` once the tasks still
    in flight on the other workers are drained, and is respawned on the
    next round.
    """

    name = "shm"

    def __init__(self, workers: int | None = None, context: str | None = None):
        if workers is not None and workers < 1:
            raise ExecutorError(f"workers must be >= 1, got {workers}")
        self.workers = workers
        self.context = context
        self._ledger = IpcLedger()
        self._pool: WorkerPool | None = None
        self._tracer: Any = None
        self._trace_parent: Any = None
        self._spans: dict[tuple[int, int], Any] = {}
        #: (worker slot, store uid) -> residency record.
        self._resident: dict[tuple[int, int], _Resident] = {}
        #: (store uid, store version) -> refcounted parent-owned segment.
        self._segments: dict[tuple[int, int], _Segment] = {}
        #: Residency keys whose store was garbage collected (flushed lazily:
        #: weakref callbacks must not talk to pipes).
        self._dead_keys: list[tuple[int, int]] = []
        self._segments_created = 0
        self._shm_bytes = 0

    # -- pool lifecycle -----------------------------------------------------------------

    def _ensure_pool(self) -> WorkerPool:
        if self._pool is None:
            self._pool = WorkerPool(
                self.workers,
                context=self.context,
                ledger=self._ledger,
                on_spawn=self._worker_started,
                on_exit=self._worker_stopped,
            )
        return self._pool

    def close(self) -> None:
        if self._pool is not None:
            self._pool.close()
            self._pool = None
        self._resident.clear()
        self._dead_keys.clear()
        for segment in self._segments.values():
            self._unlink(segment)
        self._segments.clear()

    # -- metering / observability -------------------------------------------------------

    @property
    def bytes_pickled(self) -> int:
        """Total bytes pickled across the pipe, cumulative over pools."""
        return self._ledger.bytes_pickled

    def ipc_stats(self) -> dict:
        """The IPC ledger snapshot (messages and bytes per message kind)
        plus the shared-memory segment counters."""
        stats = self._ledger.snapshot()
        stats["shm_segments_created"] = self._segments_created
        stats["shm_segments_active"] = len(self._segments)
        stats["shm_bytes"] = self._shm_bytes
        return stats

    def active_segments(self) -> list[str]:
        """Names of the currently linked shared-memory segments."""
        return [segment.shm.name for segment in self._segments.values()]

    def attach_observability(self, tracer: Any, parent: Any = None) -> None:
        """Emit ``worker.lifetime`` spans under ``parent`` on ``tracer``."""
        self._tracer = tracer
        self._trace_parent = parent

    def _worker_started(self, slot: int, generation: int, pid: int) -> None:
        if self._tracer is None:
            return
        span = self._tracer.start_span(
            "worker.lifetime",
            parent=self._trace_parent,
            backend=self.name,
            worker=slot,
            generation=generation,
            pid=pid,
        )
        if span is not None:
            self._spans[(slot, generation)] = span

    def _worker_stopped(self, slot: int, generation: int) -> None:
        span = self._spans.pop((slot, generation), None)
        if span is not None and self._tracer is not None:
            self._tracer.end_span(span)

    # -- the round protocol -------------------------------------------------------------

    def run(self, tasks: Sequence[SiteTask]) -> list[TaskResult]:
        if not tasks:
            return []
        pool = self._ensure_pool()
        self._flush_dead(pool)
        queued: dict[int, deque[int]] = {}
        for index, task in enumerate(tasks):
            queued.setdefault(pool.worker_for(task.site), deque()).append(index)
        in_flight: dict[Any, int] = {}  # connection -> slot
        replies: dict[int, tuple] = {}
        crashes: list[WorkerCrashed] = []

        def dispatch(slot: int) -> None:
            index = queued[slot].popleft()
            task = tasks[index]
            try:
                args = self._rewrite(pool, slot, task.args)
                pool.send(slot, ("task", index, task.fn, args), kind="task")
            except WorkerCrashed as crash:
                self._worker_lost(slot)
                crashes.append(crash)
            except Exception as exc:
                # Arguments that cannot be rewritten or pickled fail their
                # task, not the round: what is in flight is still drained.
                replies[index] = ("err", index, exc, None)
            else:
                in_flight[pool.connection(slot)] = slot

        for slot in queued:
            if not crashes:
                dispatch(slot)
        while in_flight:
            for connection in wait(list(in_flight)):
                slot = in_flight.pop(connection)
                try:
                    reply = pool.recv(slot)
                except WorkerCrashed as crash:
                    self._worker_lost(slot)
                    crashes.append(crash)
                    continue
                replies[reply[1]] = reply
                if queued[slot] and not crashes:
                    dispatch(slot)
        if crashes:
            raise ExecutorError(
                "; ".join(str(crash) for crash in crashes)
            ) from crashes[0]
        for index in sorted(replies):
            reply = replies[index]
            if reply[0] == "err":
                exc = reply[2]
                if reply[3] is not None and hasattr(exc, "add_note"):
                    exc.add_note(f"(raised in worker process)\n{reply[3]}")
                raise exc
        return [
            TaskResult(task.site, replies[index][3], replies[index][2], task.label)
            for index, task in enumerate(tasks)
        ]

    def _worker_lost(self, slot: int) -> None:
        """Forget everything resident in a dead worker (segments survive
        parent-side and are unlinked once no worker references them)."""
        for key in [k for k in self._resident if k[0] == slot]:
            record = self._resident.pop(key)
            self._unref_segment(record.seg_key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SharedMemoryExecutor(workers={self.workers})"

    # -- argument rewriting -------------------------------------------------------------

    def _rewrite(self, pool: WorkerPool, slot: int, obj: Any) -> Any:
        store = getattr(obj, "store", None)
        if isinstance(store, ProjectionView):
            # A vertical fragment: attach the resident columns once per
            # worker, shared by every fragment (and the whole relation).
            resident = store.resident
            columns = column_store_of(resident)
            if columns is not None:
                ref = self._ensure_resident(pool, slot, resident, columns)
                return ResidentRef(ref.key, (obj.schema, store.attributes))
        store = column_store_of(obj)
        if store is not None:
            return self._ensure_resident(pool, slot, obj, store)
        if type(obj) is tuple:
            return tuple(self._rewrite(pool, slot, item) for item in obj)
        if type(obj) is list:
            return [self._rewrite(pool, slot, item) for item in obj]
        if type(obj) is dict:
            return {k: self._rewrite(pool, slot, v) for k, v in obj.items()}
        return obj

    # -- residency protocol -------------------------------------------------------------

    def _ensure_resident(
        self, pool: WorkerPool, slot: int, relation: Any, store: Any
    ) -> ResidentRef:
        uid = store.uid
        key = (slot, uid)
        record = self._resident.get(key)
        generation = pool.ensure_worker(slot)
        if record is not None and (
            record.generation != generation or record.store_ref() is not store
        ):
            # Respawned worker, or a different (GC'd + uid-reused) store:
            # either way the worker-side resident is gone or wrong.
            self._resident.pop(key)
            self._unref_segment(record.seg_key)
            record = None
        if record is not None:
            if store.version != record.version:
                ops = store.journal_since(record.version)
                if ops is None:
                    # Journal unavailable (overflow): republish below.
                    self._resident.pop(key)
                    self._unref_segment(record.seg_key)
                    record = None
                else:
                    pool.send(slot, ("delta", uid, list(ops)), kind="delta")
                    record.version = store.version
                    self._trim_journal(uid, store)
            if record is not None:
                return ResidentRef(uid)
        store.enable_journal()
        version = store.version
        meta, buffers, total = export_payload(store, relation.schema)
        seg_key = (uid, version)
        segment = self._segments.get(seg_key)
        if segment is None and total > 0:
            try:
                shm = SharedMemory(create=True, size=total)
            except OSError:  # pragma: no cover - no /dev/shm: inline fallback
                segment = None
            else:
                offset = 0
                for buf in buffers:
                    shm.buf[offset : offset + len(buf)] = buf
                    offset += len(buf)
                segment = _Segment(shm)
                self._segments[seg_key] = segment
                self._segments_created += 1
                self._shm_bytes += total
        if segment is not None:
            meta["shm"] = segment.shm.name
            payload = None
            segment.refs += 1
        else:
            payload = buffers
            seg_key = None
        pool.send(slot, ("publish", uid, meta, payload), kind="publish")
        self._resident[key] = _Resident(
            version,
            weakref.ref(store, self._invalidator(key)),
            seg_key,
            generation,
        )
        self._trim_journal(uid, store)
        return ResidentRef(uid)

    def _invalidator(self, key: tuple[int, int]):
        dead = self._dead_keys
        return lambda _ref: dead.append(key)

    def _flush_dead(self, pool: WorkerPool) -> None:
        while self._dead_keys:
            key = self._dead_keys.pop()
            record = self._resident.pop(key, None)
            if record is None:
                continue
            slot, uid = key
            if record.generation == pool.generation(slot) and pool.is_alive(slot):
                try:
                    pool.send(slot, ("drop", uid), kind="drop")
                except WorkerCrashed:
                    self._worker_lost(slot)
            self._unref_segment(record.seg_key)

    def _trim_journal(self, uid: int, store: Any) -> None:
        """Drop journal entries every replica of ``store`` has seen."""
        versions = [
            record.version for (_, u), record in self._resident.items() if u == uid
        ]
        if versions:
            store.trim_journal(min(versions))

    # -- segment ownership --------------------------------------------------------------

    def _unref_segment(self, seg_key: tuple[int, int] | None) -> None:
        if seg_key is None:
            return
        segment = self._segments.get(seg_key)
        if segment is None:
            return
        segment.refs -= 1
        if segment.refs <= 0:
            del self._segments[seg_key]
            self._unlink(segment)

    @staticmethod
    def _unlink(segment: _Segment) -> None:
        try:
            segment.shm.close()
        except BufferError:  # pragma: no cover - defensive
            pass
        try:
            segment.shm.unlink()
        except FileNotFoundError:  # pragma: no cover - already unlinked
            # CPython < 3.12 calls shm_unlink *before* the tracker
            # unregister, so an already-gone file would strand a stale
            # tracker entry (warned about and re-unlinked at shutdown).
            from multiprocessing import resource_tracker

            try:
                resource_tracker.unregister(segment.shm._name, "shared_memory")
            except Exception:
                pass
