"""``strategy("auto")``: cost-based adaptive detection.

The adaptive strategy re-plans on every ``apply()``/``stream()`` wave:
it prices each candidate strategy for the incoming batch through the
:class:`~repro.planner.adaptive.AdaptivePlanner` (analytic priors from
the paper's complexity analysis, calibrated by EWMA feedback from prior
batches) and runs the cheaper side — the incremental detectors while
``|delta-D|`` is small, the batch rebuilds once the update batch
approaches the database size, switching exactly at the measured
crossover of Exp-10 / Fig. 11.

Switching is a *warm-state handoff* through the strategies'
``export_state``/``import_state`` pair
(:class:`~repro.engine.protocol.StrategyState`): fragments are never
re-partitioned or re-shipped; the incremental detectors keep their
IDX/HEV indices warm while they stay active, and falling back to batch
invalidates them — they are rebuilt from the current data when the
planner switches back.  Planning consults only local statistics, so
``auto`` ships exactly what the strategy it picked ships.
"""

from __future__ import annotations

import inspect
import time
from functools import partial
from itertools import islice
from typing import Any, Iterable

from repro.core.updates import Update, UpdateBatch
from repro.core.violations import ViolationDelta, ViolationSet
from repro.distributed.cluster import Cluster
from repro.distributed.network import Network, NetworkStats
from repro.engine.protocol import SingleSite, StrategyState, rehost
from repro.obs.trace import maybe_span
from repro.planner.adaptive import AdaptivePlanner, PlanDecision
from repro.planner.cost import MESSAGE_OVERHEAD_BYTES
from repro.planner.estimators import estimate_for_mode
from repro.similarity.md import MatchingDependency
from repro.stats.collector import BatchProfile, StatsCatalog


class AdaptiveStrategyError(RuntimeError):
    """Raised on invalid adaptive configurations or use before setup."""


def accepts_fusion(factory: Any) -> bool:
    """True when a strategy factory takes a ``fusion`` option.

    The rule-fusion toggle is forwarded only to factories that declare
    it (or ``**kwargs``): MD strategies and user-registered factories
    with closed signatures keep working untouched.
    """
    try:
        params = inspect.signature(factory).parameters.values()
    except (TypeError, ValueError):  # pragma: no cover - exotic callables
        return False
    return any(
        p.name == "fusion" or p.kind is inspect.Parameter.VAR_KEYWORD
        for p in params
    )


class AdaptiveStrategy:
    """One detector that delegates each batch to the estimated-cheapest side.

    Parameters
    ----------
    registry:
        The strategy registry candidates are resolved from (the
        session's registry by default — the builder injects it).
    candidates:
        Candidate strategy names in preference order (earlier wins cost
        ties).  Defaults per deployment: ``incVer``/``ibatVer``
        (vertical), ``incHor``/``ibatHor`` (horizontal),
        ``incMD``/``md`` (single-site MDs), ``centralized`` otherwise.
    alpha:
        EWMA smoothing weight of the calibration feedback loop.
    probe:
        Run a small calibration probe per candidate at ``setup()``
        (default).  Each candidate processes a tiny net-zero
        modification batch on a *scratch* copy of the deployment with a
        scratch network, seeding its per-unit EWMA with measured
        shipment — so even the very first real decision compares
        measured constants, not just analytic priors.  Probes never
        touch the session's data or its cost ledger; they cost
        ``O(|D|)`` local setup work per candidate.
    probe_size:
        Number of tuples the calibration probe modifies (default 8).
    backends:
        Storage backends to consider, in preference order.  Defaults to
        the deployment's current backend only — no conversion, identical
        behaviour to a fixed-backend session.  With several names (e.g.
        ``["rows", "sql"]``) ``setup()`` times the calibration probe on
        every backend, re-homes the deployment onto the fastest one
        (re-fragmenting locally — nothing ships), and prices local work
        with that backend's rate.  Shipment counters are backend-
        invariant, so the cost trace stays comparable either way.
    """

    def __init__(
        self,
        registry: Any = None,
        candidates: Iterable[str] | None = None,
        alpha: float = 0.3,
        message_overhead: float = MESSAGE_OVERHEAD_BYTES,
        probe: bool = True,
        probe_size: int = 8,
        backends: Iterable[str] | None = None,
        fusion: bool = True,
    ):
        self.deployment: Any = None
        self._registry = registry
        self._candidates_spec = list(candidates) if candidates is not None else None
        self._alpha = alpha
        self._message_overhead = message_overhead
        self._probe = probe
        self._probe_size = max(1, probe_size)
        self._fusion = fusion
        self._backends_spec = list(backends) if backends is not None else None
        self._backend: str | None = None
        self._instances: dict[str, Any] = {}
        self._active: str | None = None
        self._rules: list[Any] = []
        self._planner: AdaptivePlanner | None = None
        self._batch_index = 0

    # -- candidate resolution ----------------------------------------------------------

    @staticmethod
    def default_candidates(partitioning: str, rule_kind: str) -> list[str]:
        """The incremental-vs-batch sides the paper's crossover compares."""
        if partitioning == "vertical":
            return ["incVer", "ibatVer", "batVer"]
        if partitioning == "horizontal":
            return ["incHor", "ibatHor", "batHor"]
        if rule_kind == "md":
            return ["incMD", "md"]
        return ["centralized"]

    def _resolve_registry(self) -> Any:
        if self._registry is not None:
            return self._registry
        from repro.engine.registry import DEFAULT_REGISTRY

        return DEFAULT_REGISTRY

    # -- setup --------------------------------------------------------------------------

    def setup(self, deployment: Any, rules: Iterable[Any]) -> ViolationSet:
        """Collect statistics, bind the candidates, warm up the first one."""
        self._rules = list(rules)
        if isinstance(deployment, Cluster):
            partitioning = "vertical" if deployment.is_vertical() else "horizontal"
            n_sites = len(deployment)
            vertical = deployment.vertical_partitioner if deployment.is_vertical() else None
            relation = deployment.reconstruct()
        else:
            partitioning = "single"
            n_sites = 1
            vertical = None
            relation = deployment.relation
        rule_kind = (
            "md"
            if self._rules and all(isinstance(r, MatchingDependency) for r in self._rules)
            else "cfd"
        )
        names = self._candidates_spec or self.default_candidates(partitioning, rule_kind)
        if not names:
            raise AdaptiveStrategyError("the adaptive strategy needs at least one candidate")

        registry = self._resolve_registry()
        self._instances = {}
        hooks: dict[str, Any] = {}
        for name in names:
            entry = registry.detector(name)
            if entry.partitioning not in (partitioning, "any"):
                raise AdaptiveStrategyError(
                    f"candidate {name!r} requires {entry.partitioning} data but "
                    f"the session is {partitioning}"
                )
            if entry.rules not in (rule_kind, "any"):
                raise AdaptiveStrategyError(
                    f"candidate {name!r} checks {entry.rules} rules but the "
                    f"session rules are {rule_kind}"
                )
            if accepts_fusion(entry.factory):
                strategy = entry.create(fusion=self._fusion)
            else:
                strategy = entry.create()
            self._instances[name] = strategy
            hooks[name] = partial(estimate_for_mode, entry.mode, strategy=name)

        catalog = StatsCatalog.collect(
            relation,
            self._rules,
            partitioning,
            n_sites=n_sites,
            vertical_partitioner=vertical,
            alpha=self._alpha,
            fusion=self._fusion,
        )
        self._planner = AdaptivePlanner(
            catalog, hooks, message_overhead=self._message_overhead
        )
        self.deployment = deployment

        current_backend = getattr(relation, "storage", "rows")
        backends = self._backends_spec or [current_backend]
        from repro.core.storage import storage_backend_names

        known = storage_backend_names()
        for backend in backends:
            if backend not in known:
                raise AdaptiveStrategyError(
                    f"unknown storage backend {backend!r}; known backends: {known}"
                )
        self._backend = backends[0]
        if self._probe and len(relation) > 0:
            probe_seconds = self._run_probes(
                registry, names, relation, partitioning, deployment,
                backends, current_backend,
            )
            if probe_seconds:
                self._backend = min(
                    backends, key=lambda b: probe_seconds.get(b, float("inf"))
                )
        if self._backend != current_backend:
            relation = relation.with_storage(self._backend)
            deployment = rehost(deployment, relation)
            self.deployment = deployment
        from repro.planner.cost import local_work_rate

        self._planner.local_work_rate = local_work_rate(self._backend)
        first = names[0]
        initial = self._instances[first].setup(deployment, self._rules)
        catalog.n_violations = len(initial)
        self._active = first
        self._batch_index = 0
        return initial

    def _run_probes(
        self,
        registry: Any,
        names: list[str],
        relation: Any,
        partitioning: str,
        deployment: Any,
        backends: list[str],
        current_backend: str,
    ) -> dict[str, float]:
        """Measure each (candidate, backend) per-unit shipment on scratch copies.

        A probe batch of net-zero modifications (delete + re-insert of
        existing tuples) exercises every candidate's real machinery on a
        scratch deployment with a scratch network, and seeds the
        candidate's EWMA with ``measured cost / estimator driver``.  The
        scratch state is discarded; the session ledger never sees probe
        traffic.

        With several candidate backends, every (strategy, backend) pair
        runs once: observations land under ``name`` for the current
        backend (exactly as a fixed-backend session seeds them) and
        under ``name@backend`` for every pair, so the catalog keeps a
        per-backend history.  Returns the best probe wall-clock per
        backend — the signal the backend choice minimises.
        """
        victims = list(islice(iter(relation), self._probe_size))
        probe = UpdateBatch()
        for t in victims:
            probe.append(Update.delete(t))
            probe.append(Update.insert(t))
        profile = BatchProfile.of(probe)

        planner = self._planner
        best_seconds: dict[str, float] = {}
        for backend in backends:
            scratch_relation = (
                relation if backend == current_backend else relation.with_storage(backend)
            )
            scratch_network = Network()
            if partitioning == "vertical":
                scratch = Cluster.from_vertical(
                    deployment.vertical_partitioner, scratch_relation,
                    network=scratch_network,
                )
            elif partitioning == "horizontal":
                scratch = Cluster.from_horizontal(
                    deployment.horizontal_partitioner, scratch_relation,
                    network=scratch_network,
                )
            else:
                scratch = SingleSite(scratch_relation.copy(), network=scratch_network)

            for name in names:
                entry = registry.detector(name)
                if accepts_fusion(entry.factory):
                    strategy = entry.create(fusion=self._fusion)
                else:
                    strategy = entry.create()
                try:
                    strategy.setup(scratch, self._rules)
                except Exception:
                    continue  # an unprobeable candidate keeps its analytic prior
                before = strategy.cost_stats()
                start = time.perf_counter()
                strategy.apply(probe)
                seconds = time.perf_counter() - start
                cost = strategy.cost_stats().diff(before).cost_vector()
                driver = planner.estimate(name, profile).driver
                if backend == current_backend:
                    planner.catalog.observe(name, driver, cost, seconds)
                planner.catalog.observe(f"{name}@{backend}", driver, cost, seconds)
                prev = best_seconds.get(backend)
                if prev is None or seconds < prev:
                    best_seconds[backend] = seconds
        return best_seconds

    def _require_setup(self) -> None:
        if self._active is None or self._planner is None:
            raise AdaptiveStrategyError(
                "AdaptiveStrategy has not been set up; call setup() first"
            )

    # -- introspection ------------------------------------------------------------------

    @property
    def active(self) -> str:
        """The registry name of the currently warm strategy."""
        self._require_setup()
        return self._active  # type: ignore[return-value]

    @property
    def candidates(self) -> list[str]:
        self._require_setup()
        return self._planner.candidates  # type: ignore[union-attr]

    @property
    def storage_backend(self) -> str | None:
        """The storage backend the planner settled on (None before setup)."""
        return self._backend

    @property
    def planner(self) -> AdaptivePlanner:
        self._require_setup()
        return self._planner  # type: ignore[return-value]

    @property
    def catalog(self) -> StatsCatalog:
        return self.planner.catalog

    @property
    def plan_trace(self) -> tuple[PlanDecision, ...]:
        """The per-batch planning record (chosen, estimated vs actual)."""
        if self._planner is None:
            return ()
        return tuple(self._planner.decisions)

    @property
    def violations(self) -> ViolationSet:
        self._require_setup()
        return self._instances[self._active].violations

    @property
    def network(self) -> Network:
        """The shared session ledger every candidate charges."""
        self._require_setup()
        return self.deployment.network

    def cost_stats(self) -> NetworkStats:
        return self.network.stats()

    # -- elasticity ----------------------------------------------------------------------

    def export_state(self) -> StrategyState:
        """The active candidate's warm state (for session-level migration)."""
        self._require_setup()
        return self._instances[self._active].export_state()

    def migrate(self, result: Any, rules: Iterable[Any]) -> None:
        """Re-home the *active* candidate; the others re-import on activation.

        Dormant candidates receive the post-migration deployment through
        the ordinary ``export_state``/``import_state`` handoff the next
        time the planner activates them, so only the warm side pays
        re-homing work.  The catalog's topology statistics follow the
        new site count.
        """
        self._require_setup()
        active = self._instances[self._active]
        active.migrate(result, rules)
        self.deployment = getattr(active, "deployment", None) or self.deployment
        self._planner.catalog.n_sites = len(self.deployment)

    # -- switching -----------------------------------------------------------------------

    def _activate(self, name: str) -> Any:
        current = self._instances[self._active]
        if name == self._active:
            return current
        state = current.export_state()
        target = self._instances[name]
        target.import_state(state, self._rules)
        self._active = name
        return target

    # -- detection ----------------------------------------------------------------------

    def apply(self, batch: UpdateBatch) -> ViolationDelta:
        """Re-plan, run the estimated-cheapest strategy, learn from it."""
        self._require_setup()
        if len(batch) == 0:
            return ViolationDelta()
        planner = self._planner
        profile = BatchProfile.of(batch)
        with maybe_span("plan.decide") as plan_span:
            chosen, estimates = planner.choose(profile)
            switched = chosen != self._active
            strategy = self._activate(chosen)
            if plan_span is not None:
                plan_span.attrs.update(
                    chosen=chosen,
                    switched=switched,
                    estimated_bytes={
                        name: estimate.cost.bytes
                        for name, estimate in sorted(estimates.items())
                    },
                )

        network = self.network
        before = network.stats()
        start = time.perf_counter()
        delta = strategy.apply(batch)
        seconds = time.perf_counter() - start
        actual = network.stats().diff(before).cost_vector()

        planner.record(
            self._batch_index, chosen, estimates, actual, seconds, switched,
            backend=self._backend,
        )
        self._batch_index += 1
        # Batch strategies replace their deployment when they re-fragment;
        # adopt it so later handoffs (and reports) see the current sites.
        self.deployment = getattr(strategy, "deployment", None) or self.deployment
        planner.catalog.note_batch(profile, len(strategy.violations))
        return delta
