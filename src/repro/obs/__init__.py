"""Unified observability: tracing, metrics, and profiling hooks.

:class:`Observability` bundles one :class:`~repro.obs.trace.Tracer` and
one :class:`~repro.obs.metrics.MetricsRegistry` so a single object can
be handed to :meth:`repro.SessionBuilder.observability` and/or a
:class:`~repro.service.DetectionService`::

    obs = Observability()
    session = repro.session(rel).rules(cfds).observability(obs).build()
    session.apply(batch)
    obs.tracer.export_jsonl("trace.jsonl")
    print(obs.metrics.render_prometheus())

Profiling hooks (:mod:`repro.obs.profile`) are process-global by design
— hot paths check a single module attribute — and are toggled here via
:meth:`Observability.enable_profiling`.
"""

from __future__ import annotations

from typing import Any, Dict

from repro.obs import profile
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.trace import Span, Tracer, maybe_span, span_if

__all__ = [
    "Observability",
    "Tracer",
    "Span",
    "MetricsRegistry",
    "MetricFamily",
    "Counter",
    "Gauge",
    "Histogram",
    "maybe_span",
    "span_if",
    "profile",
]


class Observability:
    """One tracer + one metrics registry, shareable across sessions/services."""

    def __init__(
        self,
        tracer: Tracer | None = None,
        metrics: MetricsRegistry | None = None,
        trace: bool = True,
        profiling: bool = False,
    ):
        self.tracer = tracer if tracer is not None else Tracer(enabled=trace)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self.metrics.register_collector("obs.profile", _publish_profile)
        if profiling:
            profile.enable()

    # -- switches --------------------------------------------------------------------

    @property
    def tracing(self) -> bool:
        return self.tracer.enabled

    def enable_tracing(self) -> None:
        self.tracer.enabled = True

    def disable_tracing(self) -> None:
        self.tracer.enabled = False

    def enable_profiling(self) -> None:
        profile.enable()

    def disable_profiling(self) -> None:
        profile.disable()

    @property
    def profiling(self) -> bool:
        return profile.enabled

    # -- snapshots -------------------------------------------------------------------

    def profile_snapshot(self) -> Dict[str, Dict[str, float]]:
        return profile.snapshot()

    def as_dict(self) -> Dict[str, Any]:
        """One JSON-ready view over traces, metrics and profile totals."""
        return {
            "tracing": self.tracing,
            "profiling": self.profiling,
            "spans": [span.as_dict() for span in self.tracer.spans()],
            "metrics": self.metrics.snapshot(),
            "profile": self.profile_snapshot(),
        }


def _publish_profile(registry: MetricsRegistry) -> None:
    """Collector: mirror the profiling accumulator into gauge families."""
    snap = profile.snapshot()
    if not snap:
        return
    calls = registry.gauge(
        "repro_profile_calls", "Instrumented hot-path passes", ("hook",)
    )
    items = registry.gauge(
        "repro_profile_items", "Units processed by instrumented hot paths", ("hook",)
    )
    seconds = registry.gauge(
        "repro_profile_seconds", "Seconds spent in instrumented hot paths", ("hook",)
    )
    for hook, entry in snap.items():
        calls.labels(hook=hook).set(entry["calls"])
        items.labels(hook=hook).set(entry["items"])
        seconds.labels(hook=hook).set(entry["seconds"])
