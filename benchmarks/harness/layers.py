"""The traced run: harness spans, the obs tracer, counters and probes -> per-layer metrics.

A ``--trace 1`` run attaches one public ``Observability(profiling=True)``
bundle to every session and service the workload builds.  The harness
opens its own spans (``harness.*``) on the same tracer around each call
into a layer, so the program's spans (``session.build``, ``wave.apply``,
``site.task[i]``, ``plan.decide``, ``service.dispatch`` ...) nest under
them.  Layer names are module names of ``src/repro``.

With tracing off every method here is a no-op, so a workload reads the
same in both modes and an end-to-end run pays nothing for it.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager, nullcontext
from typing import Any, Iterable, Iterator

from repro.core.updates import UpdateBatch
from repro.distributed.message import MessageKind
from repro.distributed.network import Network, NetworkStats
from repro.obs import Observability, Tracer, profile
from repro.rulefuse import compile_rule_set
from repro.service import percentile as service_percentile

#: Far above the spans of the longest run the contract allows (60 s), so
#: ``obs.dropped_spans`` stays 0 and self times stay complete.
MAX_SPANS = 4_000_000

#: Profile hooks -> (seconds metric, work-count metric, which counter of the hook).
HOOK_PREFIXES = (
    ("idx.build_", "indexes.idx_build_s", "indexes.idx_build_items", "items"),
    ("rulefuse.idx_build_", "indexes.idx_build_s", "indexes.idx_build_items", "items"),
    ("hev.evaluate_keys", "indexes.hev_eval_s", "indexes.hev_eval_keys", "calls"),
    ("columnar.", "columnar.sweep_s", "columnar.sweep_items", "items"),
    ("rulefuse.columnar_sweep", "columnar.sweep_s", "columnar.sweep_items", "items"),
    ("sql.", "sqlstore.query_s", "sqlstore.queries", "calls"),
    ("rulefuse.sql_query", "sqlstore.query_s", "sqlstore.queries", "calls"),
    ("rulefuse.rows_scan", "rulefuse.rows_scan_s", None, "items"),
    # The SQL batch-shipment scans are queries sqlstore runs; the other
    # shipment scans walk rows or columns to decide what ships.
    ("shipment.sql_", "sqlstore.query_s", "sqlstore.queries", "calls"),
    ("shipment.", "distributed.shipment_scan_s", None, "items"),
)


def percentile(values: Iterable[float], p: float) -> float:
    """The ``p``-th percentile (0-100) of unsorted values, as the service computes its own."""
    return service_percentile(sorted(values), p)


def _base_name(name: str) -> str:
    """``site.task[3]`` -> ``site.task``."""
    return name.split("[", 1)[0]


class Tracing:
    """The observability of one run, and the per-layer numbers read from it."""

    def __init__(self, enabled: bool, run_id: str):
        self.run_id = run_id
        self.obs: Observability | None = None
        #: Per-layer counters the workload and the probes add to directly.
        self.counters: dict[str, float] = defaultdict(float)
        #: Wall-clock bounds of the measured loop and the hook totals at each.
        self._loop = [float("inf"), float("inf")]
        self._hooks: list[dict[str, dict[str, float]]] = [{}, {}]
        if enabled:
            profile.reset()
            self.obs = Observability(tracer=Tracer(max_spans=MAX_SPANS), profiling=True)

    # -- used by the workloads -------------------------------------------------------

    @property
    def enabled(self) -> bool:
        return self.obs is not None

    def span(self, name: str, **attrs: Any):
        """A harness span (ambient parent of the program's spans inside it)."""
        if self.obs is None:
            return nullcontext()
        return self.obs.tracer.span(name, run_id=self.run_id, **attrs)

    def attach(self, builder: Any, name: str) -> Any:
        """Attach the bundle to a session builder (untouched when tracing is off)."""
        return builder if self.obs is None else builder.observability(self.obs, name=name)

    def loop_starts(self) -> None:
        """Set-up (and warm-up) ends here: spans and hook time from now on
        belong to the measured loop."""
        self._bound(0)

    def loop_ends(self) -> None:
        """The checks and probes that follow are not part of the measured loop."""
        self._bound(1)

    def _bound(self, which: int) -> None:
        if self.obs is not None:
            self._loop[which] = time.time()
            self._hooks[which] = profile.snapshot()

    def set_tracing(self, on: bool) -> None:
        """Switch spans and hooks off for the untraced blocks of a traced run
        (their wave times are the base of ``obs.trace_overhead_ratio``)."""
        if self.obs is None:
            return
        if on:
            self.obs.enable_tracing()
            self.obs.enable_profiling()
        else:
            self.obs.disable_tracing()
            self.obs.disable_profiling()

    def add(self, name: str, value: float) -> None:
        if self.enabled:
            self.counters[name] += value

    @contextmanager
    def timed(self, name: str) -> Iterator[None]:
        """Add the body's wall seconds to counter ``name`` (probes, re-hosting)."""
        start = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - start)

    def observe_session(self, session: Any, shipped: NetworkStats) -> None:
        """Counters from ``explain()`` / ``plan_trace`` and the measured ledger delta."""
        if not self.enabled:
            return
        info = session.explain()
        c = self.counters
        c["runtime.rounds"] += info["runtime"]["rounds"]
        c["runtime.bytes_pickled"] += session.timings().bytes_pickled
        c["rulefuse.groups"] = max(c["rulefuse.groups"], info["rule_fusion"].get("n_groups", 0))
        cache = info["storage"].get("stmt_cache")
        if cache and cache["hits"] + cache["misses"]:
            c["sqlstore.stmt_cache_hit_ratio"] = cache["hits"] / (cache["hits"] + cache["misses"])
        c["distributed.shipped_bytes"] += shipped.bytes
        c["distributed.messages"] += shipped.messages
        c["distributed.eqids"] += shipped.eqids_shipped
        decisions = session.plan_trace
        if decisions:
            c["planner.decisions"] += len(decisions)
            c["planner.switches"] += sum(1 for d in decisions if d.switched)
            errors = [
                abs(d.estimated.bytes - d.actual.bytes) for d in decisions if d.actual is not None
            ]
            c["planner.estimate_error_bytes_p50"] = max(
                c["planner.estimate_error_bytes_p50"], percentile(errors, 50.0)
            )

    # -- probes: replay the run's own inputs through one layer's public function -----

    def probe_normalize(self, batches: Iterable[UpdateBatch]) -> None:
        if not self.enabled:
            return
        for batch in batches:
            with self.timed("core.normalize_s"):
                batch.normalized()
            self.counters["core.normalize_updates"] += len(batch)

    def probe_fragment(self, partitioner: Any, relation: Any) -> None:
        if self.enabled:
            with self.timed("partition.fragment_s"):
                partitioner.fragment(relation)

    def probe_compile(self, cfds: list[Any]) -> None:
        if self.enabled:
            with self.timed("rulefuse.compile_s"):
                compile_rule_set(cfds)

    def probe_ledger(self) -> None:
        """As many ``Network.send`` calls as the run shipped messages, of the
        mean payload size, on a scratch ledger."""
        messages = int(self.counters["distributed.messages"])
        if not self.enabled or not messages:
            return
        size = int(self.counters["distributed.shipped_bytes"] / messages)
        scratch = Network()
        with self.timed("distributed.ledger_probe_s"):
            for _ in range(messages):
                scratch.send(0, 1, MessageKind.TUPLE, None, size)

    # -- reading the trace ------------------------------------------------------------

    def finish(self) -> tuple[dict[str, float], dict[str, float]]:
        """``(per-layer metrics, self seconds per layer in the measured loop)``."""
        if self.obs is None:
            return {}, {}
        spans = self.obs.tracer.spans()
        by_id = {span.span_id: span for span in spans}
        child_time: dict[str, float] = defaultdict(float)
        for span in spans:
            if span.parent_id in by_id:
                child_time[span.parent_id] += span.duration
        loop_from, loop_to = self._loop
        partitioning = {
            span.attrs["session"]: span.attrs["partitioning"]
            for span in spans
            if span.name == "session"
        }

        def partitioning_of(span: Any) -> str:
            """Of the session owning ``span``: the nearest ancestor naming one."""
            while span is not None:
                if "session" in span.attrs:
                    return partitioning[span.attrs["session"]]
                span = by_id.get(span.parent_id)
            return "single"

        total: dict[str, float] = defaultdict(float)  # by span name, whole run
        loop: dict[str, float] = defaultdict(float)  # by span name, measured loop
        own: dict[str, float] = defaultdict(float)  # self time by span name, measured loop
        site_task: dict[str, float] = defaultdict(float)  # by partitioning, measured loop
        windows = program = 0.0
        n_windows = window_updates = 0
        for span in spans:
            name = _base_name(span.name)
            total[name] += span.duration
            if not loop_from <= span.start < loop_to:
                continue
            loop[name] += span.duration
            own[name] += max(0.0, span.duration - child_time[span.span_id])
            parent = by_id.get(span.parent_id)
            if name == "site.task":
                site_task[partitioning_of(span)] += span.duration
            elif name == "coalesce.window":
                n_windows += 1
                window_updates += span.attrs.get("updates", 0)
            if name in ("harness.apply", "harness.phase"):
                windows += span.duration
            elif name == "service.dispatch" or (
                name == "wave.apply" and (parent is None or parent.name != "tenant.apply")
            ):
                program += span.duration

        c = self.counters
        c["workloads.generate_s"] = total["harness.generate"]
        c["core.centralized_detect_s"] = total["harness.oracle"]
        c["engine.build_s"] = total["session.build"]
        c["engine.apply_s"] = loop["wave.apply"]
        c["engine.apply_self_s"] = own["wave.apply"]
        c["horizontal.site_task_s"] = site_task["horizontal"]
        c["vertical.site_task_s"] = site_task["vertical"]
        c["planner.decide_s"] = loop["plan.decide"]
        c["service.windows"] = n_windows
        c["service.mean_window_size"] = window_updates / n_windows if n_windows else 0.0
        c["service.tenant_apply_s"] = loop["tenant.apply"]
        c["service.dispatch_self_s"] = own["service.dispatch"]
        c["obs.spans"] = len(spans)
        c["obs.dropped_spans"] = self.obs.tracer.dropped
        c["harness.unattributed_share"] = 1.0 - program / windows if windows else 0.0

        # Index builds happen at set-up, so they are counted from the start of
        # the run; every other hook is counted over the measured loop only.
        until_loop_end = self._hooks[1]
        in_loop = profile.diff(until_loop_end, self._hooks[0])
        hooks_in_loop = 0.0
        for hook, entry in until_loop_end.items():
            target = next((t for t in HOOK_PREFIXES if hook.startswith(t[0])), None)
            if target is None:
                continue
            _, seconds_metric, count_metric, count_key = target
            hooks_in_loop += in_loop.get(hook, {}).get("seconds", 0.0)
            if seconds_metric != "indexes.idx_build_s":
                entry = in_loop.get(hook)
            if entry:
                c[seconds_metric] += entry["seconds"]
                if count_metric:
                    c[count_metric] += entry[count_key]

        # The table of self seconds: span self times, with the hooks' time (they
        # fire inside site tasks) taken out of the site tasks and shown by layer.
        self_times = {
            "engine.apply_self": own["wave.apply"],
            "planner.decide": own["plan.decide"],
            "service": own["service.dispatch"] + own["coalesce.window"] + own["tenant.apply"],
            "harness.apply_self": own["harness.apply"],
        }
        for metric in (
            "indexes.hev_eval_s", "columnar.sweep_s", "sqlstore.query_s",
            "rulefuse.rows_scan_s", "distributed.shipment_scan_s",
        ):
            self_times[metric[:-2]] = c[metric]
        tasks = sum(site_task.values())
        if tasks:
            for kind, seconds in site_task.items():
                self_times[f"{kind}.site_task"] = seconds * max(0.0, 1.0 - hooks_in_loop / tasks)
        return dict(c), {name: seconds for name, seconds in self_times.items() if seconds > 0.0}

    def export(self, path: str) -> int:
        """One JSON line per span — the program's and the harness's — each
        stamped with the run id."""
        assert self.obs is not None
        spans = self.obs.tracer.spans()
        with open(path, "w", encoding="utf-8") as handle:
            for span in spans:
                record = span.as_dict()
                record["run_id"] = self.run_id
                handle.write(json.dumps(record, sort_keys=True, default=str) + "\n")
        return len(spans)
