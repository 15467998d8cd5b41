"""Near-zero-cost profiling hooks for detector hot paths.

Hot loops (columnar kernel sweeps, IDX/HEV maintenance, batch shipment
scans) call :func:`note` guarded by the module-level :data:`enabled`
flag, so the *disabled* path costs a single module-attribute check::

    from repro.obs import profile as _prof
    ...
    if _prof.enabled:
        _t0 = time.perf_counter()
    ... hot loop ...
    if _prof.enabled:
        _prof.note("columnar.variable_sweep", time.perf_counter() - _t0)

The accumulator is process-local.  When a traced session runs tasks on
the ``shm`` executor, the task wrapper in
:mod:`repro.obs.trace` enables profiling inside the worker for the
task's duration and ships the resulting delta back with the task result
(see :func:`snapshot` / :func:`merge`), so coordinator-side totals stay
complete across pickle boundaries.

While profiling is on, a ``gc.callbacks`` hook also times every cyclic
garbage collection and reports it as hook ``gc.gen<N>`` (calls = pauses,
items = objects collected).  Full collections over a large resident
database are a visible share of a long run; the hook is installed by
:func:`enable` and removed by :func:`disable`, so it costs nothing when
profiling is off.
"""

from __future__ import annotations

import gc
import threading
from time import perf_counter
from typing import Any, Dict, Mapping, Tuple

#: Master switch.  Hot paths read this attribute directly; everything
#: else in this module is only reached when it is True.
enabled: bool = False

_lock = threading.Lock()
#: hook name -> (calls, items, seconds)
_acc: Dict[str, Tuple[int, int, float]] = {}

#: Cyclic-GC pauses while enabled: generation -> (collections, objects
#: collected, seconds), reported as hooks ``gc.gen<N>``.  Only
#: :func:`_gc_hook` adds to it, and it must not take ``_lock``: a
#: collection can start on any allocation, including one made while this
#: thread holds the lock.  The keys are fixed up front, so a collection
#: that interrupts a reader only rebinds a value, never resizes the dict.
_NO_PAUSES = (0, 0, 0.0)
_gc_acc: Dict[int, Tuple[int, int, float]] = dict.fromkeys(
    range(len(gc.get_count())), _NO_PAUSES
)
_gc_started = 0.0


def _gc_hook(phase: str, info: Dict[str, Any]) -> None:
    global _gc_started
    if phase == "start":
        _gc_started = perf_counter()
        return
    generation = info["generation"]
    calls, items, seconds = _gc_acc[generation]
    _gc_acc[generation] = (
        calls + 1,
        items + info["collected"],
        seconds + perf_counter() - _gc_started,
    )


def enable() -> None:
    """Turn the profiling hooks on (process-local), GC pauses included."""
    global enabled
    enabled = True
    if _gc_hook not in gc.callbacks:
        gc.callbacks.append(_gc_hook)


def disable() -> None:
    """Turn the profiling hooks off.  Accumulated totals are kept."""
    global enabled
    enabled = False
    if _gc_hook in gc.callbacks:
        gc.callbacks.remove(_gc_hook)


def note(hook: str, seconds: float, items: int = 1) -> None:
    """Record one timed pass through ``hook`` (``items`` units processed)."""
    with _lock:
        calls, total_items, total_seconds = _acc.get(hook, (0, 0, 0.0))
        _acc[hook] = (calls + 1, total_items + items, total_seconds + seconds)


def _totals() -> Dict[str, Dict[str, float]]:
    """The per-hook totals, GC pauses folded in (call with ``_lock`` held)."""
    totals = dict(_acc)
    for generation, (calls, items, seconds) in list(_gc_acc.items()):
        if not calls:
            continue
        hook = f"gc.gen{generation}"
        c, i, s = totals.get(hook, (0, 0, 0.0))
        totals[hook] = (c + calls, i + items, s + seconds)
    return {
        hook: {"calls": calls, "items": items, "seconds": seconds}
        for hook, (calls, items, seconds) in sorted(totals.items())
    }


def snapshot() -> Dict[str, Dict[str, float]]:
    """A consistent copy of the accumulated per-hook totals."""
    with _lock:
        return _totals()


def reset() -> Dict[str, Dict[str, float]]:
    """Atomically snapshot and zero the accumulator; returns the snapshot."""
    with _lock:
        snap = _totals()
        _acc.clear()
        for generation in _gc_acc:
            _gc_acc[generation] = _NO_PAUSES
    return snap


def merge(delta: Mapping[str, Mapping[str, float]]) -> None:
    """Fold a remote :func:`snapshot` delta (e.g. from a worker process) in."""
    with _lock:
        for hook, entry in delta.items():
            calls, items, seconds = _acc.get(hook, (0, 0, 0.0))
            _acc[hook] = (
                calls + int(entry.get("calls", 0)),
                items + int(entry.get("items", 0)),
                seconds + float(entry.get("seconds", 0.0)),
            )


def diff(
    after: Mapping[str, Mapping[str, float]],
    before: Mapping[str, Mapping[str, float]],
) -> Dict[str, Dict[str, float]]:
    """Per-hook ``after - before`` over two :func:`snapshot` values."""
    out: Dict[str, Dict[str, float]] = {}
    for hook, entry in after.items():
        base = before.get(hook, {})
        delta = {
            key: entry.get(key, 0) - base.get(key, 0)
            for key in ("calls", "items", "seconds")
        }
        if delta["calls"] or delta["items"] or delta["seconds"]:
            out[hook] = delta
    return out
