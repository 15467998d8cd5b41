"""Fluent detection sessions: one entry point over every detector.

The builder picks the right strategy from (partitioning × mode) and
hands back a :class:`DetectionSession` that streams update batches
through whichever detector was chosen::

    sess = (
        repro.session(relation)
        .partition("vertical", n_fragments=8)
        .rules(cfds)
        .strategy("incremental")
        .build()
    )
    delta = sess.apply(updates)
    for delta in sess.stream(update_batches):
        ...
    report = sess.report()          # violations + per-site shipment costs

Leaving ``partition`` out runs single-site detection (``centralized``
for CFDs, the MD detectors for matching dependencies).
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import nullcontext
from typing import Any, Iterable, Iterator, Sequence

from repro.core.cfd import CFD
from repro.core.relation import Relation
from repro.core.storage import storage_backend_names
from repro.core.updates import Update, UpdateBatch
from repro.core.violations import ViolationDelta, ViolationSet
from repro.distributed.cluster import Cluster
from repro.distributed.network import Network, NetworkStats
from repro.engine.protocol import Detector, SingleSite
from repro.obs import Observability
from repro.obs import profile as _prof
from repro.obs.trace import Span
from repro.runtime.scheduler import SchedulerTimings, SiteScheduler
from repro.engine.registry import (
    DEFAULT_REGISTRY,
    DetectorEntry,
    RegistryError,
    StrategyRegistry,
)
from repro.engine.report import DetectionReport, TopologyEvent
from repro.partition.horizontal import HorizontalPartitioner
from repro.partition.migration import MigrationPlan
from repro.partition.vertical import PartitionError, VerticalPartitioner
from repro.planner.rebalance import RebalanceDecision, RebalancePolicy
from repro.similarity.md import MatchingDependency
from repro.stats.collector import SiteLoad, SiteLoadTracker

#: Fine buckets per site tracked for rebalancing when no policy sets one.
DEFAULT_LOAD_GRANULARITY = 8

#: Default session names for metric labels when the caller does not pick one.
_SESSION_IDS = itertools.count(1)


class SessionError(ValueError):
    """Raised on invalid session configurations."""


def session(relation: Relation, registry: StrategyRegistry | None = None) -> "SessionBuilder":
    """Start building a detection session over ``relation``."""
    return SessionBuilder(relation, registry)


class SessionBuilder:
    """Collects partitioning, rules and strategy, then builds the session."""

    def __init__(self, relation: Relation, registry: StrategyRegistry | None = None):
        if not isinstance(relation, Relation):
            raise SessionError("session(...) needs a Relation to detect over")
        self._relation = relation
        self._registry = registry or DEFAULT_REGISTRY
        self._partitioner: VerticalPartitioner | HorizontalPartitioner | None = None
        self._partition_label = "single"
        self._rules: list[Any] | None = None
        self._strategy_name: str | None = None
        self._strategy_options: dict[str, Any] = {}
        self._network: Network | None = None
        self._storage_name: str | None = None
        self._rebalance_policy: RebalancePolicy | None = None
        self._observability: Observability | None = None
        self._session_name: str | None = None

    # -- configuration ----------------------------------------------------------------

    def partition(self, scheme: Any, **options: Any) -> "SessionBuilder":
        """Choose how the relation is fragmented over sites.

        ``scheme`` is a registered partitioner name (``"vertical"``,
        ``"horizontal"``, ``"hash"``, ...) with factory options, or an
        already-built partitioner instance.
        """
        if isinstance(scheme, (VerticalPartitioner, HorizontalPartitioner)):
            if options:
                raise SessionError(
                    "options are only accepted with a named partition scheme, "
                    "not a prebuilt partitioner"
                )
            self._partitioner = scheme
            self._partition_label = type(scheme).__name__
        elif isinstance(scheme, str):
            entry = self._registry.partitioner(scheme)
            partitioner = entry.factory(self._relation.schema, **options)
            if not isinstance(partitioner, (VerticalPartitioner, HorizontalPartitioner)):
                raise SessionError(
                    f"partitioner {scheme!r} built a {type(partitioner).__name__}, "
                    "expected a vertical or horizontal partitioner"
                )
            self._partitioner = partitioner
            self._partition_label = scheme
        else:
            raise SessionError(
                "partition(...) takes a registered scheme name or a partitioner "
                f"instance, not {type(scheme).__name__}"
            )
        return self

    def rules(self, rules: Iterable[Any]) -> "SessionBuilder":
        """The CFDs (or matching dependencies) to detect violations of."""
        self._rules = list(rules)
        return self

    def strategy(self, name: str, **options: Any) -> "SessionBuilder":
        """Pick the detection strategy by registry name or generic mode.

        Generic modes (``"incremental"``, ``"batch"``,
        ``"improved-batch"``, ``"adaptive"``) are resolved against the
        chosen partitioning; registry names (``"incVer"``, ``"batHor"``,
        ...) select a strategy directly.  Options are forwarded to the
        strategy factory (e.g. ``use_md5=False``, or ``plan=...`` to
        replace the ``optVer`` HEV plan vertical incremental detection
        runs by default).
        """
        self._strategy_name = name
        self._strategy_options = dict(options)
        return self

    def network(self, network: Network) -> "SessionBuilder":
        """Use a caller-owned network (to share or pre-seed cost accounting)."""
        self._network = network
        return self

    def storage(self, backend: str) -> "SessionBuilder":
        """Pick the storage layout the session's data is hosted on.

        ``backend`` is a name registered through
        :func:`~repro.core.storage.register_storage_backend` (``"rows"``
        — the default — ``"columnar"``, ``"sql"`` or a plug-in).  The
        relation is re-hosted once at build time, *before*
        fragmentation, so every site fragment inherits the layout and
        the detectors' vectorized fast paths engage.  Every backend produces the identical violation
        set, ΔV and shipment counters; only wall-clock changes.  (One
        documented exception: columnar byte counters can drift when
        ``==``-equal values of different wire widths, e.g. ``True`` and
        ``1``, share a column — see the README's interning caveats.)
        """
        if not isinstance(backend, str):
            raise SessionError(
                f"storage(...) takes a backend name, not {type(backend).__name__}"
            )
        known = storage_backend_names()
        if backend not in known:
            raise SessionError(
                f"no storage backend named {backend!r}; registered: {', '.join(known)}"
            )
        self._storage_name = backend
        return self

    def rebalance_policy(self, policy: RebalancePolicy | None) -> "SessionBuilder":
        """Let the session trigger skew-aware rebalancing on its own.

        With a :class:`~repro.planner.rebalance.RebalancePolicy` set,
        the session evaluates observed per-site load after every batch
        and calls :meth:`DetectionSession.rebalance` itself whenever the
        policy prices migrating cheaper than keeping the skew — the
        self-managing mode ``strategy("auto")`` deployments are meant to
        run with.  Requires a hash-family horizontal partitioning; pass
        ``None`` (the default) for manual-only elasticity.
        """
        if policy is not None and not isinstance(policy, RebalancePolicy):
            raise SessionError(
                "rebalance_policy(...) takes a RebalancePolicy or None, not "
                f"{type(policy).__name__}"
            )
        self._rebalance_policy = policy
        return self

    def observability(
        self, obs: Observability, name: str | None = None
    ) -> "SessionBuilder":
        """Attach an :class:`~repro.obs.Observability` bundle to the session.

        With a bundle attached the session records a hierarchical trace
        (root ``session`` span, ``session.build``, per-batch
        ``wave.apply`` with ``site.task[i]`` children, ``plan.decide``
        for ``auto``, ``migration.*``)
        and publishes its live counters into the bundle's metrics
        registry.  ``name`` labels the session's metric series; a stable
        default is generated when omitted.  One bundle can be shared by
        many sessions and services.
        """
        if not isinstance(obs, Observability):
            raise SessionError(
                "observability(...) takes an Observability bundle, not "
                f"{type(obs).__name__}"
            )
        self._observability = obs
        self._session_name = name
        return self

    # -- resolution --------------------------------------------------------------------

    def _partitioning_kind(self) -> str:
        if self._partitioner is None:
            return "single"
        if isinstance(self._partitioner, VerticalPartitioner):
            return "vertical"
        return "horizontal"

    def _rule_kind(self) -> str:
        assert self._rules is not None
        md_flags = [isinstance(rule, MatchingDependency) for rule in self._rules]
        if all(md_flags):
            return "md"
        if any(md_flags):
            raise SessionError(
                "rules mix CFDs and matching dependencies; build one session per "
                "rule language"
            )
        return "cfd"

    def _resolve_entry(self, partitioning: str, rule_kind: str) -> DetectorEntry:
        default_mode = "incremental" if partitioning != "single" else "batch"
        name = self._strategy_name or default_mode
        if self._registry.has_detector(name):
            entry = self._registry.detector(name)
            if entry.partitioning not in (partitioning, "any"):
                raise SessionError(
                    f"strategy {name!r} requires {entry.partitioning} data but the "
                    f"session is {partitioning}"
                    + (
                        "; call .partition(...) first"
                        if partitioning == "single"
                        else ""
                    )
                )
            if entry.rules not in (rule_kind, "any"):
                raise SessionError(
                    f"strategy {name!r} checks {entry.rules} rules but the session "
                    f"rules are {rule_kind}"
                )
            return entry
        try:
            return self._registry.resolve_detector(partitioning, name, rule_kind)
        except RegistryError as exc:
            raise SessionError(str(exc)) from None

    # -- build -------------------------------------------------------------------------

    def build(self) -> "DetectionSession":
        """Resolve the strategy, deploy the data and run detector setup."""
        if not self._rules:
            raise SessionError("no rules configured; call .rules(cfds) before .build()")
        rule_kind = self._rule_kind()
        partitioning = self._partitioning_kind()
        if rule_kind == "md" and partitioning != "single":
            raise SessionError(
                "matching-dependency detection is single-site; drop .partition(...)"
            )
        entry = self._resolve_entry(partitioning, rule_kind)

        relation = self._relation
        if self._storage_name is not None:
            relation = relation.with_storage(self._storage_name)
        storage_name = getattr(relation, "storage", "rows")

        scheduler = SiteScheduler()

        network = self._network or Network()
        deployment: Cluster | SingleSite
        if isinstance(self._partitioner, VerticalPartitioner):
            deployment = Cluster.from_vertical(
                self._partitioner, relation, network=network, scheduler=scheduler
            )
        elif isinstance(self._partitioner, HorizontalPartitioner):
            deployment = Cluster.from_horizontal(
                self._partitioner, relation, network=network, scheduler=scheduler
            )
        else:
            deployment = SingleSite(relation, network=network, scheduler=scheduler)

        options = dict(self._strategy_options)
        if entry.mode == "adaptive" and "registry" not in options:
            # Adaptive strategies resolve their candidate detectors from
            # the same registry the session was configured with.
            options["registry"] = self._registry
        try:
            detector = entry.create(**options)
        except TypeError as exc:
            raise SessionError(
                f"strategy {entry.name!r} rejected options "
                f"{sorted(self._strategy_options)}: {exc}"
            ) from None
        obs = self._observability
        name = self._session_name or f"session-{next(_SESSION_IDS)}"
        tracing = obs is not None and obs.tracer.enabled
        root: Span | None = None
        build_cm: Any = nullcontext()
        net_before: NetworkStats | None = None
        if tracing:
            assert obs is not None
            root = obs.tracer.start_span(
                "session",
                session=name,
                strategy=entry.name,
                partitioning=partitioning,
                storage=storage_name,
            )
            build_cm = obs.tracer.span("session.build", parent=root)
            net_before = network.stats()
        setup_start = time.perf_counter()
        try:
            with build_cm as build_span:
                initial = detector.setup(deployment, self._rules)
        except BaseException:
            if tracing:
                assert obs is not None
                obs.tracer.end_span(root)
            raise
        setup_seconds = time.perf_counter() - setup_start
        session_obj = DetectionSession(
            entry=entry,
            detector=detector,
            deployment=deployment,
            rules=list(self._rules),
            partitioning=partitioning,
            initial_violations=initial,
            scheduler=scheduler,
            setup_seconds=setup_seconds,
            storage=storage_name,
            rebalance_policy=self._rebalance_policy,
            observability=obs,
            root_span=root,
            name=name,
        )
        if tracing and build_span is not None and net_before is not None:
            delta = network.stats().diff(net_before)
            build_span.attrs.update(
                ledger=True,
                net_bytes=delta.bytes,
                net_messages=delta.messages,
                initial_violations=len(initial),
            )
        return session_obj


class DetectionSession:
    """A built session: one detector, one deployment, a stream of batches."""

    def __init__(
        self,
        *,
        entry: DetectorEntry,
        detector: Detector,
        deployment: Any,
        rules: Sequence[Any],
        partitioning: str,
        initial_violations: ViolationSet,
        scheduler: SiteScheduler | None = None,
        setup_seconds: float = 0.0,
        storage: str = "rows",
        rebalance_policy: RebalancePolicy | None = None,
        observability: Observability | None = None,
        root_span: Span | None = None,
        name: str | None = None,
    ):
        self._entry = entry
        self._detector = detector
        self._deployment = deployment
        self._rules = list(rules)
        self._partitioning = partitioning
        self._initial = initial_violations.copy()
        self._batches_applied = 0
        self._updates_applied = 0
        self._scheduler = scheduler or SiteScheduler()
        self._setup_seconds = setup_seconds
        self._storage = storage
        self._apply_seconds = 0.0
        self._closed = False
        self._close_lock = threading.Lock()
        self._rebalance_policy = rebalance_policy
        self._topology: list[TopologyEvent] = []
        self._load_tracker: SiteLoadTracker | None = None
        self._tracker_batches = 0
        self._avg_tuple_bytes: float | None = None
        self._obs = observability
        self._root_span = root_span
        self._name = name or f"session-{next(_SESSION_IDS)}"
        if self._obs is not None:
            self._obs.metrics.register_collector(
                f"session:{self._name}", self._publish_metrics
            )
        self._make_load_tracker()

    # -- introspection ------------------------------------------------------------------

    @property
    def name(self) -> str:
        """The session's label in metric series and trace attributes."""
        return self._name

    @property
    def observability(self) -> Observability | None:
        """The attached observability bundle, or None."""
        return self._obs

    @property
    def strategy(self) -> str:
        """The registry name of the strategy in use (``incVer``, ``batHor``, ...)."""
        return self._entry.name

    @property
    def active_strategy(self) -> str:
        """The concrete strategy currently running the batches.

        Equal to :attr:`strategy` for fixed sessions; for ``auto``
        sessions it names the candidate the planner has currently
        warmed up.
        """
        return getattr(self._detector, "active", None) or self._entry.name

    @property
    def plan_trace(self) -> tuple:
        """Per-batch plan decisions (empty for non-adaptive strategies)."""
        return tuple(getattr(self._detector, "plan_trace", ()) or ())

    @property
    def partitioning(self) -> str:
        return self._partitioning

    @property
    def detector(self) -> Detector:
        """The underlying strategy adapter (for diagnostics and tests)."""
        return self._detector

    @property
    def deployment(self) -> Any:
        """The cluster (or single site) currently hosting the data."""
        return getattr(self._detector, "deployment", None) or self._deployment

    @property
    def cluster(self) -> Any:
        """Alias of :attr:`deployment` for distributed sessions."""
        return self.deployment

    @property
    def network(self) -> Network:
        """The deployment's ledger, which the strategy charges."""
        return self.deployment.network

    @property
    def rules(self) -> list[Any]:
        return list(self._rules)

    @property
    def violations(self) -> ViolationSet:
        """The violation set currently maintained by the strategy."""
        return self._detector.violations

    @property
    def initial_violations(self) -> ViolationSet:
        """``V(Sigma, D)`` as it stood when the session was built."""
        return self._initial

    @property
    def batches_applied(self) -> int:
        return self._batches_applied

    @property
    def updates_applied(self) -> int:
        return self._updates_applied

    @property
    def scheduler(self) -> SiteScheduler:
        """The scheduler running this session's per-site task rounds."""
        return self._scheduler

    @property
    def storage(self) -> str:
        """The storage backend the session's data is hosted on."""
        return self._storage

    @property
    def wall_seconds(self) -> float:
        """Wall-clock spent in detector setup plus every ``apply`` so far."""
        return self._setup_seconds + self._apply_seconds

    def timings(self) -> SchedulerTimings:
        """The per-site/per-round timing ledger of the scheduler."""
        return self._scheduler.timings()

    # -- elasticity ---------------------------------------------------------------------

    @property
    def topology_trace(self) -> tuple[TopologyEvent, ...]:
        """Every scale/rebalance event this session performed, in order."""
        return tuple(self._topology)

    def _make_load_tracker(self) -> None:
        """(Re)build the per-bucket load tracker for the current layout.

        Only hash-family horizontal deployments are trackable; the
        tracker is recreated (hits reset) whenever the bucket space
        changes, i.e. after scale events but not after rebalances.
        """
        self._load_tracker = None
        self._tracker_batches = 0
        self._policy_resume_hits = 0
        deployment = self.deployment
        if not isinstance(deployment, Cluster) or not deployment.is_horizontal():
            return
        family = deployment.horizontal_partitioner.hash_family()
        if family is None:
            return
        attribute, n_buckets, _per_site = family
        granularity = (
            self._rebalance_policy.granularity
            if self._rebalance_policy is not None
            else DEFAULT_LOAD_GRANULARITY
        )
        self._load_tracker = SiteLoadTracker(attribute, n_buckets * granularity)

    def _bucket_owner(self) -> dict[int, int] | None:
        """``fine bucket -> site`` for the current layout, at tracker granularity."""
        tracker = self._load_tracker
        deployment = self.deployment
        if tracker is None or not isinstance(deployment, Cluster):
            return None
        family = deployment.horizontal_partitioner.hash_family()
        if family is None or tracker.n_buckets % family[1]:
            return None
        refined = HorizontalPartitioner._refine_buckets(
            family[2], family[1], tracker.n_buckets // family[1]
        )
        return {b: site for site, buckets in refined.items() for b in buckets}

    def _hottest_share(self) -> float | None:
        owner = self._bucket_owner()
        if owner is None or self._load_tracker is None:
            return None
        if not self._load_tracker.total_hits:
            return None
        return self._load_tracker.hottest_share(owner)

    def site_loads(self) -> list[SiteLoad]:
        """Per-site load snapshot: stored tuples, update hits, busy seconds."""
        deployment = self.deployment
        if not isinstance(deployment, Cluster):
            return []
        owner = self._bucket_owner()
        hits = (
            self._load_tracker.site_hits(owner)
            if owner is not None and self._load_tracker is not None
            else {}
        )
        busy = self._scheduler.timings().seconds_by_site
        return [
            SiteLoad(
                site=site.site_id,
                tuples=len(site.fragment),
                update_hits=hits.get(site.site_id, 0),
                busy_seconds=busy.get(site.site_id, 0.0),
            )
            for site in deployment.sites()
        ]

    def _require_cluster(self, verb: str) -> Cluster:
        if self._closed:
            raise SessionError("session is closed; build a new session to continue")
        deployment = self.deployment
        if not isinstance(deployment, Cluster):
            raise SessionError(
                f"cannot {verb} a single-site session; partition the data first"
            )
        return deployment

    def scale(
        self, sites: int | None = None, scheme: Any = None
    ) -> TopologyEvent:
        """Live re-partitioning to ``sites`` sites (or an explicit ``scheme``).

        Computes the minimal :class:`~repro.partition.migration.MigrationPlan`
        from the current layout, ships only the moved fragments through
        the session :class:`Network` ledger, and carries the strategy's
        violations over — ``incVer`` re-derives its placement metadata,
        every other strategy rebuilds its detector over the new layout;
        detection is never re-run.  Returns the recorded
        :class:`~repro.engine.report.TopologyEvent`.
        """
        cluster = self._require_cluster("scale")
        state = self._detector.export_state()
        if state.relation is not None:
            # The strategy maintains the logical relation, not the
            # fragments; bring the sites current under the unchanged
            # scheme (free by the delta-delivery convention) so the
            # migration moves — and charges — real data.
            cluster.refresh_fragments(state.relation)
        if cluster.is_vertical():
            partitioner = cluster.vertical_partitioner
        else:
            partitioner = cluster.horizontal_partitioner
        try:
            plan = partitioner.replan(n_sites=sites, scheme=scheme)
        except PartitionError as exc:
            raise SessionError(str(exc)) from None
        # The kind is derived from what actually happened (vertical
        # replans clamp n_sites to the attribute count, so the requested
        # number is not authoritative).
        return self._apply_plan(plan, None, "manual")

    def rebalance(self, trigger: str = "manual") -> TopologyEvent:
        """Skew-aware re-partitioning: move hot buckets off loaded sites.

        Uses the session's observed per-bucket update hits (tracked
        automatically for hash-family horizontal deployments) to plan a
        bucket reassignment that evens out the load, then migrates like
        :meth:`scale` — warm state, ledger-charged, never re-detecting.
        """
        cluster = self._require_cluster("rebalance")
        if not cluster.is_horizontal():
            raise SessionError(
                "rebalance() requires a horizontal deployment; vertical layouts "
                "re-plan by attribute via scale(scheme=...)"
            )
        tracker = self._load_tracker
        if tracker is None:
            raise SessionError(
                "rebalance() requires a hash-family horizontal scheme "
                "(HashBucket/BucketMap fragments) so load can be tracked per bucket"
            )
        state = self._detector.export_state()
        if state.relation is not None:
            cluster.refresh_fragments(state.relation)
        try:
            plan = cluster.horizontal_partitioner.rebalance_plan(
                tracker.bucket_loads, n_buckets=tracker.n_buckets
            )
        except PartitionError as exc:
            raise SessionError(str(exc)) from None
        if plan.is_noop():
            # Nothing to move (e.g. one unsplittably hot bucket already
            # alone on its site): record the attempt without touching
            # the deployment or the detector.
            share = self._hottest_share()
            event = TopologyEvent(
                kind="rebalance",
                trigger=trigger,
                batch_index=self._batches_applied,
                sites_before=len(cluster),
                sites_after=len(cluster),
                tuples_moved=0,
                bytes_shipped=0,
                messages=0,
                seconds=0.0,
                hottest_share_before=share,
                hottest_share_after=share,
            )
            self._topology.append(event)
            return event
        return self._apply_plan(plan, "rebalance", trigger)

    def _apply_plan(
        self, plan: MigrationPlan, kind: str | None, trigger: str
    ) -> TopologyEvent:
        cluster = self.deployment
        share_before = self._hottest_share()
        obs = self._obs
        tracing = obs is not None and obs.tracer.enabled
        migration_cm: Any = nullcontext()
        stats_before: NetworkStats | None = None
        if tracing:
            assert obs is not None
            parent = obs.tracer.ambient_parent() or self._root_span
            migration_cm = obs.tracer.span(
                "migration.rebalance" if kind == "rebalance" else "migration.scale",
                parent=parent,
                session=self._name,
                trigger=trigger,
            )
            stats_before = self.network.stats()
        with migration_cm as migration_span:
            start = time.perf_counter()
            result = cluster.apply_migration(plan)
            self._detector.migrate(result, self._rules)
            seconds = time.perf_counter() - start
            if migration_span is not None and stats_before is not None:
                stats_delta = self.network.stats().diff(stats_before)
                migration_span.attrs.update(
                    ledger=True,
                    net_bytes=stats_delta.bytes,
                    net_messages=stats_delta.messages,
                    tuples_moved=result.tuples_moved,
                    sites_before=len(result.sites_before),
                    sites_after=len(result.sites_after),
                )
        if kind is None:
            before, after = len(result.sites_before), len(result.sites_after)
            kind = "scale-out" if after > before else "scale-in" if after < before else "scale"
        if kind == "rebalance":
            # Same bucket space: the observed loads stay meaningful.
            share_after = self._hottest_share()
        else:
            self._make_load_tracker()
            share_after = None
        event = TopologyEvent(
            kind=kind,
            trigger=trigger,
            batch_index=self._batches_applied,
            sites_before=len(result.sites_before),
            sites_after=len(result.sites_after),
            tuples_moved=result.tuples_moved,
            bytes_shipped=result.bytes_shipped,
            messages=result.messages,
            seconds=seconds,
            hottest_share_before=share_before,
            hottest_share_after=share_after,
        )
        self._topology.append(event)
        return event

    def _session_avg_tuple_bytes(self) -> float:
        """Average wire width of a stored tuple (sampled once, cached).

        Horizontal fragments hold whole tuples, so sampling streams a
        few rows per site without materializing the database; other
        deployments (where the policy never fires) reconstruct.
        """
        if self._avg_tuple_bytes is None:
            from itertools import chain, islice

            from repro.distributed.serialization import estimate_tuple_bytes

            deployment = self.deployment
            if isinstance(deployment, Cluster) and deployment.is_horizontal():
                rows = chain.from_iterable(
                    islice(iter(site.fragment), 64) for site in deployment.sites()
                )
            elif isinstance(deployment, Cluster):
                rows = iter(deployment.reconstruct())
            else:
                rows = iter(deployment.relation)
            total, count = 0.0, 0
            for t in islice(rows, 200):
                total += estimate_tuple_bytes(t)
                count += 1
            self._avg_tuple_bytes = total / count if count else 0.0
        return self._avg_tuple_bytes

    def _maybe_auto_rebalance(self) -> None:
        """Evaluate the rebalance policy after a batch; fire if it says go."""
        policy = self._rebalance_policy
        tracker = self._load_tracker
        if policy is None or tracker is None:
            return
        if tracker.total_hits < self._policy_resume_hits:
            # A previous policy firing found nothing movable (one
            # unsplittably hot bucket); hold off until the observed
            # loads have materially changed instead of re-planning a
            # no-op on every batch.
            return
        share = self._hottest_share()
        if share is None:
            return
        deployment = self.deployment
        decision: RebalanceDecision = policy.evaluate(
            n_sites=len(deployment),
            hottest_share=share,
            total_hits=tracker.total_hits,
            hits_per_batch=tracker.total_hits / max(1, self._tracker_batches),
            cardinality=deployment.total_tuples(),
            avg_tuple_bytes=self._session_avg_tuple_bytes(),
        )
        if decision.rebalance:
            event = self.rebalance(trigger="policy")
            if event.tuples_moved == 0:
                self._policy_resume_hits = max(1, tracker.total_hits) * 2

    # -- lifecycle ----------------------------------------------------------------------

    def close(self) -> None:
        """End the session's trace and freeze its metrics (idempotent, thread-safe).

        Concurrent closers (e.g. a service drain path racing the
        session's owner) are serialized on a lock, so the root span ends
        exactly once and a double-close never raises.
        """
        with self._close_lock:
            if self._closed:
                return
            self._closed = True
        if self._obs is not None:
            self._obs.tracer.end_span(self._root_span)
            # Freeze this session's gauges at their final values, then
            # stop collecting for it.
            try:
                self._publish_metrics(self._obs.metrics)
            finally:
                self._obs.metrics.unregister_collector(f"session:{self._name}")

    def __enter__(self) -> "DetectionSession":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()

    # -- detection ----------------------------------------------------------------------

    def apply(self, updates: UpdateBatch | Iterable[Update]) -> ViolationDelta:
        """Process one update batch and return the net ``delta-V``."""
        if self._closed:
            # Its root span has ended and its gauges are frozen: a later
            # batch would go unrecorded.
            raise SessionError("session is closed; build a new session to continue")
        batch = updates if isinstance(updates, UpdateBatch) else UpdateBatch(updates)
        obs = self._obs
        if obs is None or not obs.tracer.enabled:
            return self._apply_batch(batch)
        tracer = obs.tracer
        parent = tracer.ambient_parent() or self._root_span
        stats_before = self.network.stats()
        wave_start = time.perf_counter()
        with tracer.span(
            "wave.apply",
            parent=parent,
            session=self._name,
            batch_index=self._batches_applied,
            updates=len(batch),
        ) as span:
            delta = self._apply_batch(batch)
            # All shipments are charged by the coordinator on this thread,
            # so the ledger delta around the apply is exact.
            stats_delta = self.network.stats().diff(stats_before)
            assert span is not None
            span.attrs.update(
                ledger=True,
                net_bytes=stats_delta.bytes,
                net_messages=stats_delta.messages,
                strategy=self.active_strategy,
                violations=len(self._detector.violations),
            )
            if stats_delta.messages:
                with tracer.span(
                    "shipment",
                    net_bytes=stats_delta.bytes,
                    net_messages=stats_delta.messages,
                    units_by_kind={
                        str(kind): units
                        for kind, units in sorted(
                            stats_delta.units_by_kind.items(), key=lambda kv: str(kv[0])
                        )
                    },
                ):
                    pass
        obs.metrics.histogram(
            "repro_wave_apply_seconds",
            "Wall seconds spent applying one update wave",
            ("session",),
        ).labels(session=self._name).observe(time.perf_counter() - wave_start)
        return delta

    def _apply_batch(self, batch: UpdateBatch) -> ViolationDelta:
        """The untraced apply body (also the traced path's inner workhorse)."""
        start = time.perf_counter()
        delta = self._detector.apply(batch)
        self._apply_seconds += time.perf_counter() - start
        self._batches_applied += 1
        self._updates_applied += len(batch)
        if self._load_tracker is not None:
            self._load_tracker.note_batch(batch)
            self._tracker_batches += 1
            catalog = getattr(self._detector, "catalog", None)
            if catalog is not None:
                catalog.update_site_loads(self.site_loads())
            self._maybe_auto_rebalance()
        return delta

    def stream(
        self, batches: Iterable[UpdateBatch | Update | Iterable[Update]]
    ) -> Iterator[ViolationDelta]:
        """Lazily process a stream of update batches, yielding each ``delta-V``.

        Items may be :class:`UpdateBatch` instances, single
        :class:`Update` objects, or iterables of updates — the
        order-stream scenario feeds waves of either shape.
        """
        for item in batches:
            if isinstance(item, Update):
                item = UpdateBatch.of(item)
            yield self.apply(item)

    # -- reporting ----------------------------------------------------------------------

    def _stmt_cache_info(self) -> dict[str, int] | None:
        """Prepared-SQL statement cache counters summed over the session's
        distinct stores, or None when no store prepares statements."""
        deployment = self.deployment
        if isinstance(deployment, Cluster) and deployment.is_vertical():
            # Every fragment views the one resident relation.
            relations: list[Any] = [deployment.reconstruct()]
        elif isinstance(deployment, Cluster):
            relations = [site.fragment for site in deployment.sites()]
        elif deployment is not None:
            relations = [deployment.relation]
        else:
            relations = []
        stores = {id(rel.store): rel.store for rel in relations}.values()
        infos = [store.statement_cache_info() for store in stores]
        infos = [info for info in infos if info is not None]
        if not infos:
            return None
        totals = {"hits": 0, "misses": 0, "size": 0}
        for info in infos:
            for key, value in info.items():
                totals[key] = totals.get(key, 0) + value
        return totals

    def reset_costs(self) -> NetworkStats:
        """Zero the network counters and timing ledger between batches.

        Returns the final pre-reset network snapshot, so callers
        measuring per-batch costs no longer need to hand-thread
        "earlier" snapshots through :meth:`NetworkStats.diff`.
        """
        self._scheduler.reset_timings()
        self._setup_seconds = 0.0
        self._apply_seconds = 0.0
        return self.network.reset()

    def explain(self) -> dict[str, Any]:
        """A JSON-ready live view: what runs where, at what cost, right now.

        Unlike :meth:`report` this is cheap (no violation-set copy) and
        includes the observability state — use it for dashboards and
        debugging a running session.
        """
        deployment = self.deployment
        stats = self.network.stats()
        timings = self._scheduler.timings()
        info: dict[str, Any] = {
            "session": self._name,
            "closed": self._closed,
            "strategy": self.strategy,
            "active_strategy": self.active_strategy,
            "partitioning": self._partitioning,
            "n_sites": len(deployment) if deployment is not None else 1,
            "n_rules": len(self._rules),
            "storage": self._storage_info(),
            "batches_applied": self._batches_applied,
            "updates_applied": self._updates_applied,
            "violations": len(self._detector.violations),
            "network": {
                "bytes": stats.bytes,
                "messages": stats.messages,
                "eqids_shipped": stats.eqids_shipped,
                "tuples_shipped": stats.tuples_shipped,
            },
            "runtime": {
                "rounds": timings.rounds,
                "tasks": timings.tasks,
                "busy_seconds": timings.busy_seconds,
                "critical_seconds": timings.critical_seconds,
            },
            "wall_seconds": self.wall_seconds,
            "topology_events": len(self._topology),
        }
        info["rule_fusion"] = self._rule_fusion_info()
        plan_trace = self.plan_trace
        if plan_trace:
            info["last_plan"] = plan_trace[-1].as_dict()
        catalog = getattr(self._detector, "catalog", None)
        if catalog is not None:
            info["catalog"] = catalog.as_dict()
            info["strategy_feedback"] = catalog.feedback_snapshot()
        obs = self._obs
        info["observability"] = {
            "attached": obs is not None,
            "tracing": bool(obs is not None and obs.tracer.enabled),
            "profiling": _prof.enabled,
            "spans": len(obs.tracer.spans()) if obs is not None else 0,
        }
        if _prof.enabled:
            info["observability"]["profile"] = _prof.snapshot()
        return info

    def _storage_info(self) -> dict[str, Any]:
        """The ``explain()["storage"]`` section: backend plus, for
        SQL-backed sessions, the prepared-statement cache counters."""
        info: dict[str, Any] = {
            "backend": getattr(self._detector, "storage_backend", None) or self._storage,
        }
        cache = self._stmt_cache_info()
        if cache is not None:
            info["stmt_cache"] = cache
        return info

    def _rule_fusion_info(self) -> dict[str, Any]:
        """The ``explain()["rule_fusion"]`` section: the fused group
        structure of the session's rule set (CFDs only — matching
        dependencies have no fused path)."""
        info: dict[str, Any] = {}
        if self._rules and all(isinstance(rule, CFD) for rule in self._rules):
            from repro.rulefuse import compile_rule_set

            groups = compile_rule_set(self._rules)
            info["n_groups"] = len(groups)
            info["groups"] = [group.as_dict() for group in groups]
        return info

    def trace_records(self) -> tuple[dict[str, Any], ...]:
        """This session's span records (root trace only, JSON-ready)."""
        obs = self._obs
        if obs is None:
            return ()
        spans = obs.tracer.spans()
        root = self._root_span
        if root is not None:
            spans = [span for span in spans if span.trace_id == root.trace_id]
        return tuple(span.as_dict() for span in spans)

    def report(self) -> DetectionReport:
        """A structured snapshot: violations, shipment costs and timings."""
        deployment = self.deployment
        n_sites = len(deployment) if deployment is not None else 1
        return DetectionReport.build(
            strategy=self.strategy,
            partitioning=self._partitioning,
            n_sites=n_sites,
            n_rules=len(self._rules),
            batches_applied=self._batches_applied,
            updates_applied=self._updates_applied,
            violations=self._detector.violations,
            network=self._detector.cost_stats(),
            storage=self._storage,
            wall_seconds=self.wall_seconds,
            setup_seconds=self._setup_seconds,
            apply_seconds=self._apply_seconds,
            timings=self._scheduler.timings(),
            plan_trace=self.plan_trace,
            topology_trace=self.topology_trace,
            trace=self.trace_records(),
        )

    # -- metrics publishing --------------------------------------------------------------

    def _publish_metrics(self, registry: Any) -> None:
        """Collector: refresh this session's gauge series before an export."""
        labels = {"session": self._name}
        stats = self.network.stats()
        timings = self._scheduler.timings()

        def set_gauge(name: str, help_text: str, value: float) -> None:
            registry.gauge(name, help_text, ("session",)).labels(**labels).set(value)

        set_gauge(
            "repro_session_batches_applied",
            "Update batches this session has applied",
            self._batches_applied,
        )
        set_gauge(
            "repro_session_updates_applied",
            "Updates this session has applied",
            self._updates_applied,
        )
        set_gauge(
            "repro_session_violations",
            "Violating tuples currently maintained",
            len(self._detector.violations),
        )
        set_gauge(
            "repro_session_wall_seconds",
            "Wall seconds spent in setup plus applies",
            self.wall_seconds,
        )
        set_gauge(
            "repro_network_bytes", "Bytes shipped on the session ledger", stats.bytes
        )
        set_gauge(
            "repro_network_messages",
            "Messages shipped on the session ledger",
            stats.messages,
        )
        set_gauge(
            "repro_network_eqids_shipped",
            "Eqids shipped on the session ledger",
            stats.eqids_shipped,
        )
        set_gauge(
            "repro_scheduler_rounds", "Task rounds the scheduler ran", timings.rounds
        )
        set_gauge(
            "repro_scheduler_tasks", "Site tasks the scheduler ran", timings.tasks
        )
        set_gauge(
            "repro_scheduler_busy_seconds",
            "Total task seconds across sites",
            timings.busy_seconds,
        )
        set_gauge(
            "repro_scheduler_critical_seconds",
            "Ideal parallel wall seconds (sum of slowest task per round)",
            timings.critical_seconds,
        )
        cache = self._stmt_cache_info()
        if cache is not None:
            set_gauge(
                "repro_sql_stmt_cache_hits",
                "Prepared-SQL statement cache hits across the session's stores",
                cache["hits"],
            )
            set_gauge(
                "repro_sql_stmt_cache_misses",
                "Prepared-SQL statement cache misses across the session's stores",
                cache["misses"],
            )
        catalog = getattr(self._detector, "catalog", None)
        if catalog is not None:
            set_gauge(
                "repro_catalog_cardinality",
                "Relation cardinality as the planner's catalog sees it",
                catalog.relation.cardinality,
            )
            feedback = registry.gauge(
                "repro_strategy_bytes_per_unit",
                "EWMA-smoothed shipped bytes per cost-driver unit",
                ("session", "strategy"),
            )
            for strategy, entry in catalog.feedback_snapshot().items():
                feedback.labels(session=self._name, strategy=strategy).set(
                    entry["bytes_per_unit"]
                )
