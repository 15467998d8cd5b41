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

import time
from functools import partial
from itertools import islice
from typing import Any, Iterable

from repro.core.relation import Relation
from repro.core.updates import UpdateBatch
from repro.core.violations import ViolationDelta, ViolationSet
from repro.distributed.network import Network, NetworkStats
from repro.engine.protocol import StrategyState, rehost
from repro.obs.trace import maybe_span
from repro.planner.adaptive import AdaptivePlanner, PlanDecision
from repro.planner.cost import MESSAGE_OVERHEAD_BYTES, local_work_rate
from repro.planner.estimators import estimate_for_mode
from repro.rulefuse import compile_rule_set
from repro.similarity.md import MatchingDependency
from repro.stats.collector import BatchProfile, RuleProfile, StatsCatalog

#: Tuples in the fixture a storage backend's ``check`` is timed on.
FIXTURE_TUPLES = 512

#: ``store.check`` seconds per (backend, attribute list, rule set), timed
#: once per process by :func:`fixture_seconds`.
_FIXTURE_SECONDS: dict[tuple[Any, ...], float] = {}


class AdaptiveStrategyError(RuntimeError):
    """Raised on invalid adaptive configurations or use before setup."""


def _time_fixture(relation: Relation, cfds: list[Any], backend: str) -> float:
    """One ``store.check`` of ``cfds`` over the first :data:`FIXTURE_TUPLES`
    tuples of ``relation``, re-hosted on ``backend`` (best of three)."""
    fixture = Relation(relation.schema, islice(relation, FIXTURE_TUPLES), storage=backend)
    groups = compile_rule_set(cfds)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        fixture.store.check(groups)
        best = min(best, time.perf_counter() - start)
    return best


def fixture_seconds(relation: Relation, cfds: list[Any], backend: str) -> float:
    """How long ``backend`` takes to check ``cfds`` on the backend fixture.

    Timed once per process per (backend, attribute list, rule set) and
    cached, so rebuilding a session of the same shape times nothing.
    """
    key = (backend, relation.schema.attribute_names, tuple(cfds))
    seconds = _FIXTURE_SECONDS.get(key)
    if seconds is None:
        seconds = _FIXTURE_SECONDS[key] = _time_fixture(relation, cfds, backend)
    return seconds


class AdaptiveStrategy:
    """One detector that delegates each batch to the estimated-cheapest side.

    Every candidate is priced from what the session already holds — no
    candidate runs before the planner picks it.  Vertical incremental
    shipment is read off the HEV plan ``incVer`` builds (``Neqid`` eqids
    per update, static in D and t), horizontal incremental shipment is
    the per-site digest broadcast of Fig. 8, and the batch sides start
    from the sampled analytic prior; the first wave a candidate actually
    runs replaces its prior with a measured EWMA.  Only the first
    candidate is set up at ``setup()``; the others are bound warm on
    first activation.

    Parameters
    ----------
    registry:
        The strategy registry candidates are resolved from (the
        session's registry by default — the builder injects it).
    candidates:
        Candidate strategy names in preference order (earlier wins cost
        ties).  Defaults per deployment: ``incVer``/``ibatVer``/``batVer``
        (vertical), ``incHor``/``ibatHor``/``batHor`` (horizontal),
        ``incMD``/``md`` (single-site MDs), ``centralized`` otherwise.
    alpha:
        EWMA smoothing weight of the calibration feedback loop.
    probe:
        With several ``backends``, time each backend's ``store.check``
        on a fixture of the first :data:`FIXTURE_TUPLES` tuples (once
        per process, see :func:`fixture_seconds`) and settle on the
        fastest (default).  ``False`` picks the backend with the lowest
        :data:`~repro.planner.cost.LOCAL_WORK_RATES` prior instead.
        With one backend nothing is timed either way.
    backends:
        Storage backends to consider, in preference order.  Defaults to
        the deployment's current backend only — no conversion, identical
        behaviour to a fixed-backend session.  With several names (e.g.
        ``["rows", "sql"]``) ``setup()`` re-homes the deployment onto
        the chosen one (re-fragmenting locally — nothing ships) and
        prices local work with that backend's rate.  Shipment counters
        are backend-invariant, so the cost trace stays comparable either
        way.  Matching-dependency rule sets always choose by the priors.
    """

    def __init__(
        self,
        registry: Any = None,
        candidates: Iterable[str] | None = None,
        alpha: float = 0.3,
        message_overhead: float = MESSAGE_OVERHEAD_BYTES,
        probe: bool = True,
        backends: Iterable[str] | None = None,
    ):
        self.deployment: Any = None
        self._registry = registry
        self._candidates_spec = list(candidates) if candidates is not None else None
        self._alpha = alpha
        self._message_overhead = message_overhead
        self._probe = probe
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
        """Bind the candidates, settle the backend, set up the first candidate
        and price the rest from the deployment's statistics."""
        self._rules = list(rules)
        if deployment.is_vertical():
            partitioning, vertical = "vertical", deployment.vertical_partitioner
        else:
            partitioning = "horizontal" if deployment.is_horizontal() else "single"
            vertical = None
        relation = deployment.reconstruct()
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
            strategy = entry.create()
            self._instances[name] = strategy
            hooks[name] = partial(estimate_for_mode, entry.mode, strategy=name)

        current_backend = getattr(relation, "storage", "rows")
        self._backend = self._choose_backend(relation, rule_kind, current_backend)
        if self._backend != current_backend:
            deployment = rehost(deployment, relation.with_storage(self._backend))
        self.deployment = deployment

        first = names[0]
        initial = self._instances[first].setup(deployment, self._rules)
        catalog = StatsCatalog.collect(
            relation,
            self._rules,
            partitioning,
            n_sites=len(deployment),
            vertical_partitioner=vertical,
            n_violations=len(initial),
            alpha=self._alpha,
        )
        self._planner = AdaptivePlanner(
            catalog, hooks, message_overhead=self._message_overhead
        )
        self._planner.local_work_rate = local_work_rate(self._backend)
        self._active = first
        self._batch_index = 0
        return initial

    def _choose_backend(self, relation: Relation, rule_kind: str, current: str) -> str:
        """The storage backend to run on: the only one named, else the
        fastest on the backend fixture (``probe``), else the lowest prior."""
        backends = self._backends_spec or [current]
        from repro.core.storage import storage_backend_names

        known = storage_backend_names()
        for backend in backends:
            if backend not in known:
                raise AdaptiveStrategyError(
                    f"unknown storage backend {backend!r}; known backends: {known}"
                )
        if len(backends) == 1:
            return backends[0]
        if self._probe and rule_kind == "cfd" and len(relation) > 0:
            return min(
                backends,
                key=lambda b: fixture_seconds(relation, self._rules, b),
            )
        return min(backends, key=local_work_rate)

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
        new site count and, vertically, the new HEV plan's ``Neqid``;
        the shipment feedback measured on the old layout is forgotten.
        """
        self._require_setup()
        active = self._instances[self._active]
        active.migrate(result, rules)
        self.deployment = getattr(active, "deployment", None) or self.deployment
        catalog = self._planner.catalog  # type: ignore[union-attr]
        catalog.n_sites = len(self.deployment)
        catalog.forget_feedback()
        if self.deployment.is_vertical():
            catalog.rules = RuleProfile.of(self._rules, self.deployment.vertical_partitioner)

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
