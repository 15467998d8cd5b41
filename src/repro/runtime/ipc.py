"""The worker half of the shm process backend (spawn-safe module).

A worker is a long-lived child process running :func:`worker_main` over
one duplex pipe.  The protocol is deliberately tiny — five message
kinds, every payload explicitly pickled by the sender so both ends can
meter exactly what crosses the boundary:

``("publish", key, meta, buffers)``
    Make a columnar fragment resident: attach the shm segment named in
    ``meta`` (zero-copy) or rebuild from the inline ``buffers`` fallback.
    Replaces any previous resident under ``key``.
``("delta", key, ops)``
    Catch the resident replica up by replaying a journal slice.
``("drop", key)``
    Release a resident (views, segment attachment).
``("task", index, fn, args)``
    Run one task; :class:`ResidentRef` markers inside ``args`` resolve
    to resident relations, or to vertical fragments viewing them.
    Replies ``("ok", index, seconds, value)`` or
    ``("err", index, exc, traceback_text)``.
``("stop",)``
    Release everything and exit.

Publish/delta failures are *deferred*: the error is parked on the
resident entry and raised by the first task that dereferences it, so
every task gets exactly one reply and only tasks are ever replied to.

Attached segments are never registered with ``multiprocessing``'s
resource tracker — the coordinator owns every segment and unlinks it.
Attach-side registration would be worse than redundant: a worker's
REGISTER can reach the tracker pipe *after* the coordinator's
UNREGISTER (the tracker cache is a plain set of names), leaving a stale
entry the tracker then warns about and re-unlinks at shutdown.
"""

from __future__ import annotations

import pickle
import traceback
from time import perf_counter
from typing import Any


class ResidentRef:
    """A picklable placeholder for a fragment resident in the worker.

    ``view`` is None for the resident relation itself, or the
    ``(schema, attributes)`` of a vertical fragment viewing it.
    """

    __slots__ = ("key", "view")

    def __init__(self, key: Any, view: tuple | None = None):
        self.key = key
        self.view = view

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ResidentRef({self.key!r})"


class _Resident:
    __slots__ = ("relation", "shm", "views", "error")

    def __init__(self, relation=None, shm=None, views=(), error=None):
        self.relation = relation
        self.shm = shm
        self.views = views
        self.error = error


def _attach_segment(name: str):
    """Attach a coordinator-owned segment without tracker registration.

    Python 3.13+ exposes ``track=False``; earlier versions register
    unconditionally on attach, so suppress the registration around the
    call (safe: the worker loop is single-threaded).
    """
    from multiprocessing.shared_memory import SharedMemory

    try:
        return SharedMemory(name=name, track=False)  # pragma: no cover - 3.13+
    except TypeError:
        pass
    from multiprocessing import resource_tracker

    registered = resource_tracker.register

    def _skip_shm(rname, rtype):
        if rtype != "shared_memory":
            registered(rname, rtype)

    resource_tracker.register = _skip_shm
    try:
        return SharedMemory(name=name)
    finally:
        resource_tracker.register = registered


def _attach(meta: dict, buffers) -> _Resident:
    from repro.columnar.shmcol import attach_relation

    shm = None
    if meta["shm"] is not None:
        shm = _attach_segment(meta["shm"])
        relation, views = attach_relation(meta, shm.buf)
    else:
        relation, views = attach_relation(meta, None, buffers)
    return _Resident(relation, shm, views)


def _release(resident: _Resident) -> None:
    for view in resident.views:
        view.release()
    resident.views = ()
    resident.relation = None
    if resident.shm is not None:
        try:
            resident.shm.close()
        except BufferError:  # pragma: no cover - a task kept a view alive
            pass
        resident.shm = None


def _resolve(obj: Any, residents: dict) -> Any:
    """Swap :class:`ResidentRef` markers for resident relations, recursively."""
    if isinstance(obj, ResidentRef):
        entry = residents.get(obj.key)
        if entry is None:
            raise RuntimeError(f"no resident fragment under key {obj.key!r}")
        if entry.error is not None:
            raise entry.error
        if obj.view is None:
            return entry.relation
        from repro.core.relation import Relation
        from repro.core.storage import ProjectionView

        schema, attributes = obj.view
        return Relation(schema, storage=ProjectionView(entry.relation, attributes))
    if type(obj) is tuple:
        return tuple(_resolve(item, residents) for item in obj)
    if type(obj) is list:
        return [_resolve(item, residents) for item in obj]
    if type(obj) is dict:
        return {k: _resolve(v, residents) for k, v in obj.items()}
    return obj


def _error_reply(index: int, exc: BaseException) -> tuple:
    text = traceback.format_exc()
    try:
        pickle.dumps(exc, protocol=pickle.HIGHEST_PROTOCOL)
        payload: BaseException = exc
    except Exception:
        payload = RuntimeError(f"{type(exc).__name__}: {exc}")
    return ("err", index, payload, text)


def worker_main(conn) -> None:
    """The worker loop: receive commands on ``conn`` until stop/EOF."""
    residents: dict[Any, _Resident] = {}
    try:
        while True:
            try:
                blob = conn.recv_bytes()
            except (EOFError, OSError):
                break
            message = pickle.loads(blob)
            kind = message[0]
            if kind == "stop":
                break
            if kind == "task":
                _, index, fn, args = message
                try:
                    args = _resolve(args, residents)
                    start = perf_counter()
                    value = fn(*args)
                    reply = ("ok", index, perf_counter() - start, value)
                except BaseException as exc:
                    reply = _error_reply(index, exc)
                try:
                    out = pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL)
                except Exception as exc:  # unpicklable result
                    out = pickle.dumps(
                        _error_reply(index, exc), protocol=pickle.HIGHEST_PROTOCOL
                    )
                conn.send_bytes(out)
            elif kind == "publish":
                _, key, meta, buffers = message
                stale = residents.pop(key, None)
                if stale is not None:
                    _release(stale)
                try:
                    residents[key] = _attach(meta, buffers)
                except BaseException as exc:
                    residents[key] = _Resident(error=exc)
            elif kind == "delta":
                _, key, ops = message
                entry = residents.get(key)
                if entry is None:
                    residents[key] = _Resident(
                        error=RuntimeError(f"delta for absent resident {key!r}")
                    )
                elif entry.error is None:
                    try:
                        from repro.columnar.shmcol import apply_delta

                        apply_delta(entry.relation, ops)
                    except BaseException as exc:
                        entry.error = exc
            elif kind == "drop":
                stale = residents.pop(message[1], None)
                if stale is not None:
                    _release(stale)
    finally:
        for resident in residents.values():
            _release(resident)
        residents.clear()
        conn.close()
