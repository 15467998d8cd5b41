"""Hierarchical tracing: thread-safe tracer, nested spans, JSONL export.

A :class:`Tracer` records :class:`Span` values forming trees::

    session
      session.build
        site.task[0] ... site.task[n]
      wave.apply
        plan.decide          (strategy "auto" only)
        site.task[i]
        shipment
        migration.rebalance  (when a policy fires mid-wave)

and, through :class:`~repro.service.DetectionService`::

    service.dispatch
      coalesce.window
      tenant.apply
        wave.apply
          ...

Context propagation uses a :data:`contextvars.ContextVar` holding the
*active* ``(tracer, span)`` pair.  ``Tracer.span(...)`` sets it for the
body's duration, so nested instrumentation points pick up their parent
without plumbing.  Crossing into worker processes is
handled by :func:`run_traced_task`: the scheduler rewraps each
:class:`~repro.runtime.executor.SiteTask` so the parent span id rides
the existing picklable task closure; the worker times the call, builds a
plain span record (plus a profiling delta when profiling is on), and the
coordinator ingests it back into the tracer.

Spans that carry exact network accounting set ``attrs["ledger"] = True``
together with ``net_bytes`` / ``net_messages``; summing those over a
trace (skipping spans nested under another ledger span — see
:meth:`Tracer.ledger_totals`) reproduces the
:class:`~repro.distributed.network.NetworkStats` totals exactly.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Mapping, Optional, Tuple

from repro.obs import profile as _prof

_counter = itertools.count(1)
_counter_lock = threading.Lock()


def new_id() -> str:
    """A process-unique span/trace id (pid-prefixed so worker ids never clash)."""
    with _counter_lock:
        n = next(_counter)
    return f"{os.getpid():x}-{n:x}"


@dataclass
class Span:
    """One timed operation; ``parent_id`` links spans into a tree."""

    name: str
    trace_id: str
    span_id: str
    parent_id: Optional[str] = None
    #: Wall-clock start (epoch seconds, ``time.time``) — comparable across
    #: processes; ``duration`` is measured with ``perf_counter`` locally.
    start: float = 0.0
    duration: float = 0.0
    attrs: Dict[str, Any] = field(default_factory=dict)
    status: str = "ok"

    @property
    def end(self) -> float:
        return self.start + self.duration

    def as_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "trace_id": self.trace_id,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "start": self.start,
            "duration": self.duration,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, record: Mapping[str, Any]) -> "Span":
        return cls(
            name=record["name"],
            trace_id=record["trace_id"],
            span_id=record["span_id"],
            parent_id=record.get("parent_id"),
            start=float(record.get("start", 0.0)),
            duration=float(record.get("duration", 0.0)),
            attrs=dict(record.get("attrs") or {}),
            status=record.get("status", "ok"),
        )


#: The ambient (tracer, active span) pair for the current context.
_ACTIVE: ContextVar[Optional[Tuple["Tracer", Span]]] = ContextVar(
    "repro_obs_active_span", default=None
)


def active() -> Optional[Tuple["Tracer", Span]]:
    """The ambient ``(tracer, span)`` pair, or None outside any span."""
    return _ACTIVE.get()


class Tracer:
    """Thread-safe collector of hierarchical spans.

    ``enabled=False`` turns every entry point into a no-op that yields
    ``None``, so instrumented code needs no separate guard.
    """

    def __init__(self, enabled: bool = True, max_spans: int = 200_000):
        self.enabled = enabled
        self._max_spans = max_spans
        self._lock = threading.Lock()
        self._finished: List[Span] = []
        self._open: Dict[str, Tuple[Span, float]] = {}
        self._dropped = 0

    # -- explicit span lifecycle (for spans crossing call frames) ------------------

    def start_span(
        self, name: str, parent: Optional[Span] = None, **attrs: Any
    ) -> Optional[Span]:
        """Open a span that :meth:`end_span` will close later.

        Unlike :meth:`span` this does not touch the ambient context; use
        it for spans whose extent crosses call frames (the session root).
        """
        if not self.enabled:
            return None
        span = self._open_span(name, parent, attrs)
        return span

    def end_span(self, span: Optional[Span]) -> None:
        if span is None:
            return
        with self._lock:
            opened = self._open.pop(span.span_id, None)
            if opened is None:
                return
            _, t0 = opened
            span.duration = time.perf_counter() - t0
            self._store_locked(span)

    def _open_span(
        self, name: str, parent: Optional[Span], attrs: Dict[str, Any]
    ) -> Span:
        if parent is None:
            ctx = _ACTIVE.get()
            if ctx is not None and ctx[0] is self:
                parent = ctx[1]
        trace_id = parent.trace_id if parent is not None else new_id()
        span = Span(
            name=name,
            trace_id=trace_id,
            span_id=new_id(),
            parent_id=parent.span_id if parent is not None else None,
            start=time.time(),
            attrs=dict(attrs),
        )
        with self._lock:
            self._open[span.span_id] = (span, time.perf_counter())
        return span

    def _store_locked(self, span: Span) -> None:
        if len(self._finished) >= self._max_spans:
            self._dropped += 1
            return
        self._finished.append(span)

    # -- context-manager spans -----------------------------------------------------

    @contextmanager
    def span(
        self, name: str, parent: Optional[Span] = None, **attrs: Any
    ) -> Iterator[Optional[Span]]:
        """Record a span around the body and make it the ambient parent.

        ``parent`` defaults to the ambient span (when it belongs to this
        tracer); pass one explicitly to attach elsewhere.
        """
        if not self.enabled:
            yield None
            return
        span = self._open_span(name, parent, attrs)
        token = _ACTIVE.set((self, span))
        try:
            yield span
        except BaseException:
            span.status = "error"
            raise
        finally:
            _ACTIVE.reset(token)
            self.end_span(span)

    def ambient_parent(self) -> Optional[Span]:
        """The ambient span if it belongs to this tracer, else None."""
        ctx = _ACTIVE.get()
        if ctx is not None and ctx[0] is self:
            return ctx[1]
        return None

    # -- remote records ------------------------------------------------------------

    def ingest(self, record: Mapping[str, Any]) -> Optional[Span]:
        """Adopt a finished span record produced elsewhere (worker/task)."""
        if not self.enabled:
            return None
        span = Span.from_dict(record)
        with self._lock:
            self._store_locked(span)
        return span

    # -- introspection ---------------------------------------------------------------

    def spans(self, include_open: bool = True) -> List[Span]:
        """Finished spans (plus snapshots of still-open ones by default)."""
        now_wall = time.time()
        with self._lock:
            out = list(self._finished)
            if include_open:
                for span, _t0 in self._open.values():
                    snap = Span(
                        name=span.name,
                        trace_id=span.trace_id,
                        span_id=span.span_id,
                        parent_id=span.parent_id,
                        start=span.start,
                        duration=max(0.0, now_wall - span.start),
                        attrs=dict(span.attrs),
                        status="open",
                    )
                    out.append(snap)
        return out

    @property
    def dropped(self) -> int:
        with self._lock:
            return self._dropped

    def clear(self) -> None:
        with self._lock:
            self._finished.clear()
            self._open.clear()
            self._dropped = 0

    def find(self, name: str) -> List[Span]:
        return [span for span in self.spans() if span.name == name]

    def roots(self) -> List[Span]:
        spans = self.spans()
        ids = {span.span_id for span in spans}
        return [
            span
            for span in spans
            if span.parent_id is None or span.parent_id not in ids
        ]

    def children_of(self, span: Span) -> List[Span]:
        return [s for s in self.spans() if s.parent_id == span.span_id]

    def tree(self) -> str:
        """A small indented rendering of the span forest (debugging aid)."""
        spans = self.spans()
        by_parent: Dict[Optional[str], List[Span]] = {}
        ids = {span.span_id for span in spans}
        for span in sorted(spans, key=lambda s: s.start):
            key = span.parent_id if span.parent_id in ids else None
            by_parent.setdefault(key, []).append(span)
        lines: List[str] = []

        def render(parent: Optional[str], depth: int) -> None:
            for span in by_parent.get(parent, []):
                lines.append(
                    f"{'  ' * depth}{span.name}  {span.duration * 1e3:.3f}ms"
                )
                render(span.span_id, depth + 1)

        render(None, 0)
        return "\n".join(lines)

    def ledger_totals(self) -> Tuple[int, int]:
        """Sum ``(net_bytes, net_messages)`` over top-level ledger spans.

        A span participates when ``attrs["ledger"]`` is true and no
        ancestor is also ledger-marked (a policy-triggered migration
        nests inside its wave, and the wave's delta already covers it).
        """
        spans = self.spans()
        by_id = {span.span_id: span for span in spans}

        def has_ledger_ancestor(span: Span) -> bool:
            parent_id = span.parent_id
            while parent_id is not None:
                parent = by_id.get(parent_id)
                if parent is None:
                    return False
                if parent.attrs.get("ledger"):
                    return True
                parent_id = parent.parent_id
            return False

        total_bytes = 0
        total_messages = 0
        for span in spans:
            if not span.attrs.get("ledger"):
                continue
            if has_ledger_ancestor(span):
                continue
            total_bytes += int(span.attrs.get("net_bytes", 0))
            total_messages += int(span.attrs.get("net_messages", 0))
        return total_bytes, total_messages

    # -- JSONL export ----------------------------------------------------------------

    def export_jsonl(self, path: str | os.PathLike[str]) -> int:
        """Write one JSON record per span; returns the number written."""
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                handle.write(json.dumps(span.as_dict(), sort_keys=True))
                handle.write("\n")
        return len(spans)

    @staticmethod
    def import_jsonl(path: str | os.PathLike[str]) -> List[Span]:
        """Read spans back from a JSONL export."""
        spans: List[Span] = []
        with open(path, "r", encoding="utf-8") as handle:
            for line in handle:
                line = line.strip()
                if line:
                    spans.append(Span.from_dict(json.loads(line)))
        return spans


@contextmanager
def span_if(
    tracer: Optional[Tracer],
    name: str,
    parent: Optional[Span] = None,
    **attrs: Any,
) -> Iterator[Optional[Span]]:
    """``tracer.span(...)`` when a tracer is given and enabled, else no-op."""
    if tracer is None or not tracer.enabled:
        yield None
        return
    with tracer.span(name, parent=parent, **attrs) as span:
        yield span


@contextmanager
def maybe_span(name: str, **attrs: Any) -> Iterator[Optional[Span]]:
    """A span under the ambient tracer, or a no-op outside any trace.

    Lets leaf modules (planner, scheduler) instrument themselves without
    holding a tracer reference.
    """
    ctx = _ACTIVE.get()
    if ctx is None or not ctx[0].enabled:
        yield None
        return
    tracer, parent = ctx
    with tracer.span(name, parent=parent, **attrs) as span:
        yield span


# -- cross-executor task propagation ----------------------------------------------


class TracedResult:
    """Wrapper a traced task returns: payload value + span/profile records.

    Deliberately a plain picklable class (not a namedtuple) so the
    scheduler can recognise it unambiguously when unwrapping.
    """

    __slots__ = ("value", "span", "profile")

    def __init__(
        self,
        value: Any,
        span: Dict[str, Any],
        profile: Optional[Dict[str, Dict[str, float]]],
    ):
        self.value = value
        self.span = span
        self.profile = profile


def run_traced_task(
    trace_id: str,
    parent_id: str,
    name: str,
    site: int,
    label: str,
    profile_on: bool,
    fn: Any,
    args: Tuple[Any, ...],
) -> TracedResult:
    """Execute a site task under a remote span (module-level, picklable).

    Runs ``fn(*args)`` and returns a :class:`TracedResult` carrying the
    original value, a finished span record parented at ``parent_id`` and
    the profiling delta the task accumulated (when profiling was
    requested).  The delta is computed unconditionally — forked workers
    inherit ``profile.enabled`` from the coordinator, so "was it already
    on" cannot distinguish worker from coordinator; the scheduler keeps
    the delta only for results arriving from another pid (same-process
    tasks note straight into the shared accumulator).
    """
    toggled = False
    before = None
    if profile_on:
        if not _prof.enabled:
            _prof.enable()
            toggled = True
        before = _prof.snapshot()
    start_wall = time.time()
    t0 = time.perf_counter()
    status = "ok"
    try:
        value = fn(*args)
    except BaseException:
        status = "error"
        raise
    finally:
        duration = time.perf_counter() - t0
        delta = None
        if profile_on:
            delta = _prof.diff(_prof.snapshot(), before or {})
            if toggled:
                _prof.disable()
        record = {
            "name": name,
            "trace_id": trace_id,
            "span_id": new_id(),
            "parent_id": parent_id,
            "start": start_wall,
            "duration": duration,
            "status": status,
            "attrs": {"site": site, "label": label, "pid": os.getpid()},
        }
    return TracedResult(value, record, delta)
