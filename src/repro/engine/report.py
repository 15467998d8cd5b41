"""Structured detection reports.

``DetectionSession.report()`` returns a :class:`DetectionReport` so
callers get violations and communication costs as one typed value
instead of poking ``cluster.network.stats()`` and the detector in
parallel.  Per-site traffic is derived from the network's per-pair
message counters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.core.violations import ViolationSet
from repro.distributed.network import NetworkStats
from repro.planner.adaptive import PlanDecision
from repro.runtime.scheduler import SchedulerTimings


@dataclass(frozen=True)
class SiteCost:
    """Messages a site sent and received over the session's network."""

    site: int
    messages_sent: int = 0
    messages_received: int = 0


@dataclass(frozen=True)
class SiteTiming:
    """Busy seconds a site's local-detection tasks consumed."""

    site: int
    seconds: float = 0.0


@dataclass(frozen=True)
class TopologyEvent:
    """One elasticity event of a session: a scale or rebalance migration.

    ``batch_index`` is how many batches the session had applied when the
    event fired; ``trigger`` is ``"manual"`` for explicit
    ``session.scale()``/``session.rebalance()`` calls and ``"policy"``
    when the session's :class:`~repro.planner.rebalance.RebalancePolicy`
    fired on its own.  ``bytes_shipped``/``messages`` are the migration
    traffic charged to the session :class:`Network` ledger during the
    event — the same ledger every detection shipment lands in.
    """

    kind: str
    trigger: str
    batch_index: int
    sites_before: int
    sites_after: int
    tuples_moved: int
    bytes_shipped: int
    messages: int
    seconds: float
    hottest_share_before: float | None = None
    hottest_share_after: float | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "kind": self.kind,
            "trigger": self.trigger,
            "batch_index": self.batch_index,
            "sites_before": self.sites_before,
            "sites_after": self.sites_after,
            "tuples_moved": self.tuples_moved,
            "bytes_shipped": self.bytes_shipped,
            "messages": self.messages,
            "seconds": self.seconds,
            "hottest_share_before": self.hottest_share_before,
            "hottest_share_after": self.hottest_share_after,
        }


def site_costs_from_stats(stats: NetworkStats) -> tuple[SiteCost, ...]:
    """Aggregate the per-(sender, receiver) counters into per-site totals."""
    sent: dict[int, int] = {}
    received: dict[int, int] = {}
    for (sender, receiver), count in stats.messages_by_pair.items():
        sent[sender] = sent.get(sender, 0) + count
        received[receiver] = received.get(receiver, 0) + count
    return tuple(
        SiteCost(site, sent.get(site, 0), received.get(site, 0))
        for site in sorted(set(sent) | set(received))
    )


@dataclass(frozen=True)
class DetectionReport:
    """Violations plus cost accounting for one detection session."""

    strategy: str
    partitioning: str
    n_sites: int
    n_rules: int
    batches_applied: int
    updates_applied: int
    violations: ViolationSet
    network: NetworkStats
    site_costs: tuple[SiteCost, ...] = field(default_factory=tuple)
    #: Execution backend the session ran on ("serial" or "shm").
    executor: str = "serial"
    #: Storage backend the session's data was hosted on ("rows", "columnar", "sql").
    storage: str = "rows"
    #: Wall-clock spent in detector setup plus every apply (seconds).
    wall_seconds: float = 0.0
    setup_seconds: float = 0.0
    apply_seconds: float = 0.0
    #: The scheduler's round/task ledger (busy vs. critical-path seconds).
    timings: SchedulerTimings = field(default_factory=SchedulerTimings)
    #: Busy seconds per site, derived from the scheduler ledger.
    site_timings: tuple[SiteTiming, ...] = field(default_factory=tuple)
    #: Per-batch plan decisions of the adaptive planner (chosen strategy,
    #: estimated vs actual CostVector, estimation error); empty for fixed
    #: strategies.
    plan_trace: tuple[PlanDecision, ...] = field(default_factory=tuple)
    #: Elasticity events (scale-out/in, rebalances): per event the moved
    #: tuples/bytes, wall time and sites before/after; empty for static
    #: sessions.
    topology_trace: tuple[TopologyEvent, ...] = field(default_factory=tuple)
    #: Service-layer counters for this session's tenant (ingest latency
    #: percentiles, updates/sec, queue depth, admission counts) when the
    #: report was produced through a
    #: :class:`~repro.service.DetectionService`; None for direct sessions.
    service_metrics: dict[str, Any] | None = None
    #: Hierarchical trace of the session (JSON-ready span records from the
    #: attached :class:`~repro.obs.Tracer`); empty when the session ran
    #: without observability.
    trace: tuple[dict[str, Any], ...] = field(default_factory=tuple)

    @classmethod
    def build(
        cls,
        *,
        strategy: str,
        partitioning: str,
        n_sites: int,
        n_rules: int,
        batches_applied: int,
        updates_applied: int,
        violations: ViolationSet,
        network: NetworkStats,
        executor: str = "serial",
        storage: str = "rows",
        wall_seconds: float = 0.0,
        setup_seconds: float = 0.0,
        apply_seconds: float = 0.0,
        timings: SchedulerTimings | None = None,
        plan_trace: tuple[PlanDecision, ...] = (),
        topology_trace: tuple[TopologyEvent, ...] = (),
        trace: tuple[dict[str, Any], ...] = (),
    ) -> "DetectionReport":
        timings = timings or SchedulerTimings()
        return cls(
            strategy=strategy,
            partitioning=partitioning,
            n_sites=n_sites,
            n_rules=n_rules,
            batches_applied=batches_applied,
            updates_applied=updates_applied,
            violations=violations.copy(),
            network=network,
            site_costs=site_costs_from_stats(network),
            executor=executor,
            storage=storage,
            wall_seconds=wall_seconds,
            setup_seconds=setup_seconds,
            apply_seconds=apply_seconds,
            timings=timings,
            site_timings=tuple(
                SiteTiming(site, seconds)
                for site, seconds in sorted(timings.seconds_by_site.items())
            ),
            plan_trace=tuple(plan_trace),
            topology_trace=tuple(topology_trace),
            trace=tuple(trace),
        )

    # -- convenient cost views -----------------------------------------------------

    @property
    def messages(self) -> int:
        return self.network.messages

    @property
    def bytes_shipped(self) -> int:
        return self.network.bytes

    @property
    def eqids_shipped(self) -> int:
        return self.network.eqids_shipped

    @property
    def tuples_shipped(self) -> int:
        return self.network.tuples_shipped

    @property
    def n_violating_tuples(self) -> int:
        return len(self.violations)

    @property
    def bytes_pickled(self) -> int:
        """Real IPC bytes the executor moved (0 for in-process backends)."""
        return self.timings.bytes_pickled

    # -- serialization ---------------------------------------------------------------

    def as_dict(self) -> dict[str, Any]:
        """A plain-dict view (violation tids sorted for stable output)."""
        return {
            "strategy": self.strategy,
            "partitioning": self.partitioning,
            "n_sites": self.n_sites,
            "n_rules": self.n_rules,
            "batches_applied": self.batches_applied,
            "updates_applied": self.updates_applied,
            "n_violating_tuples": self.n_violating_tuples,
            "violations": {
                str(tid): sorted(self.violations.cfds_of(tid))
                for tid in self.violations.tids()
            },
            "messages": self.messages,
            "bytes_shipped": self.bytes_shipped,
            "eqids_shipped": self.eqids_shipped,
            "tuples_shipped": self.tuples_shipped,
            "site_costs": [
                {
                    "site": cost.site,
                    "messages_sent": cost.messages_sent,
                    "messages_received": cost.messages_received,
                }
                for cost in self.site_costs
            ],
            "executor": self.executor,
            "storage": self.storage,
            "wall_seconds": self.wall_seconds,
            "setup_seconds": self.setup_seconds,
            "apply_seconds": self.apply_seconds,
            "runtime": {
                "rounds": self.timings.rounds,
                "tasks": self.timings.tasks,
                "busy_seconds": self.timings.busy_seconds,
                "critical_seconds": self.timings.critical_seconds,
                "bytes_pickled": self.timings.bytes_pickled,
                "site_timings": [
                    {"site": timing.site, "seconds": timing.seconds}
                    for timing in self.site_timings
                ],
            },
            "plan_trace": [decision.as_dict() for decision in self.plan_trace],
            "topology_trace": [event.as_dict() for event in self.topology_trace],
            "service_metrics": self.service_metrics,
            "trace": [dict(record) for record in self.trace],
        }

    def summary(self) -> str:
        """A short human-readable rendering."""
        lines = [
            f"strategy {self.strategy} ({self.partitioning}, {self.n_sites} site(s), "
            f"{self.n_rules} rule(s))",
            f"  batches applied    : {self.batches_applied} "
            f"({self.updates_applied} updates)",
            f"  violating tuples   : {self.n_violating_tuples}",
            f"  messages shipped   : {self.messages}",
            f"  bytes shipped      : {self.bytes_shipped}",
            f"  eqids shipped      : {self.eqids_shipped}",
            f"  executor           : {self.executor} "
            f"({self.timings.tasks} task(s), {self.timings.rounds} round(s))",
            f"  bytes pickled      : {self.timings.bytes_pickled} (IPC; 0 in-process)",
            f"  storage            : {self.storage}",
            f"  wall clock         : {self.wall_seconds:.6f}s "
            f"(setup {self.setup_seconds:.6f}s + apply {self.apply_seconds:.6f}s)",
        ]
        for cost in self.site_costs:
            lines.append(
                f"  site {cost.site}: sent {cost.messages_sent}, "
                f"received {cost.messages_received} messages"
            )
        for timing in self.site_timings:
            lines.append(f"  site {timing.site}: busy {timing.seconds:.6f}s in tasks")
        if self.topology_trace:
            lines.append("  topology trace     :")
            for event in self.topology_trace:
                share_part = ""
                if (
                    event.hottest_share_before is not None
                    and event.hottest_share_after is not None
                ):
                    share_part = (
                        f", hottest share {event.hottest_share_before:.0%}"
                        f" -> {event.hottest_share_after:.0%}"
                    )
                lines.append(
                    f"    batch {event.batch_index}: {event.kind} ({event.trigger})  "
                    f"{event.sites_before} -> {event.sites_after} sites, "
                    f"{event.tuples_moved} tuple(s) / {event.bytes_shipped}B moved "
                    f"in {event.seconds:.6f}s{share_part}"
                )
        if self.plan_trace:
            lines.append("  plan trace         :")
            for decision in self.plan_trace:
                alternatives = ", ".join(
                    f"{name} {cv.bytes:.0f}B"
                    for name, cv in sorted(decision.estimates.items())
                    if name != decision.chosen
                )
                actual = decision.actual
                actual_part = (
                    f"actual {actual.bytes:.0f}B"
                    if actual is not None
                    else "actual n/a"
                )
                error_part = (
                    f", err {decision.error:.1%}" if decision.error is not None else ""
                )
                switch_part = " [switched]" if decision.switched else ""
                lines.append(
                    f"    batch {decision.batch_index}: {decision.chosen}"
                    f"{switch_part}  est {decision.estimated.bytes:.0f}B, "
                    f"{actual_part}{error_part}"
                    + (f"  (vs {alternatives})" if alternatives else "")
                )
        if self.trace:
            roots = sum(1 for record in self.trace if not record.get("parent_id"))
            lines.append(
                f"  trace              : {len(self.trace)} span(s), {roots} root(s)"
            )
        if self.service_metrics:
            sm = self.service_metrics
            latency = sm.get("latency") or {}
            lines.append(
                f"  service            : tenant {sm.get('tenant')!r}, "
                f"{sm.get('accepted', 0)}/{sm.get('submitted', 0)} accepted "
                f"({sm.get('rejected', 0)} rejected), "
                f"{sm.get('batches_applied', 0)} batch(es) applied"
            )
            lines.append(
                f"    latency p50/p95/p99: {latency.get('p50_s', 0.0):.6f}s / "
                f"{latency.get('p95_s', 0.0):.6f}s / {latency.get('p99_s', 0.0):.6f}s, "
                f"{sm.get('updates_per_second', 0.0):.1f} update(s)/s"
            )
        return "\n".join(lines)
