"""Strategy adapters: every detector of the repository behind one protocol.

One generic :class:`TableStrategy` runs every built-in detector; what
differs per registered name is one :class:`StrategyRow` of
:data:`STRATEGY_TABLE` — the registry coordinates plus

* ``build(deployment, rules, violations=None, **options)``, which makes
  the wrapped detector (its keyword options are the strategy's options);
* ``holds``, which says where the current data lives:

  - :data:`FRAGMENTS` — the deployment's fragments: incVer/incHor
    maintain them, batVer/batHor write into them through
    ``deliver_updates``;
  - :data:`RELATION` — a relation the adapter keeps: ibatVer/ibatHor
    rebuild from a private copy, centralized/md copy the site's relation
    once and then apply updates in place;
  - :data:`MATERIALIZED` — incMD keeps its own tuples and materializes a
    relation from ``current_tuples()`` on export.

The incremental detectors already maintain violations under ``apply``,
so their adapter binds ``apply`` straight to the detector's.  The batch
baselines have no incremental mode of their own: ``apply`` re-runs
detection over the updated database and diffs against the previous
violation set, which is exactly what deploying a batch detector against
a live update stream costs (and why the paper's incremental algorithms
win).  Cost estimates come from the row's mode
(:func:`~repro.planner.estimators.estimate_for_mode`), and every row
charges the deployment's one network ledger.

``register_builtin_strategies`` wires the table, ``auto`` and the
built-in partition schemes into a
:class:`~repro.engine.registry.StrategyRegistry`.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Sequence

from repro.core.detector import CentralizedDetector
from repro.core.relation import Relation
from repro.core.updates import UpdateBatch
from repro.core.violations import ViolationDelta, ViolationSet, diff_violations
from repro.distributed.cluster import Cluster
from repro.distributed.network import Network, NetworkStats
from repro.engine.adaptive import AdaptiveStrategy
from repro.engine.protocol import SingleSite, StrategyState, rehost
from repro.engine.registry import StrategyRegistry
from repro.horizontal.bathor import HorizontalBatchDetector
from repro.horizontal.ibathor import ImprovedHorizontalBatchDetector
from repro.horizontal.inchor import HorizontalIncrementalDetector
from repro.partition.horizontal import HorizontalPartitioner, hash_horizontal_scheme
from repro.partition.vertical import VerticalPartitioner, even_vertical_scheme
from repro.similarity.detector import MDDetector
from repro.similarity.incremental import IncrementalMDDetector
from repro.vertical.batver import VerticalBatchDetector
from repro.vertical.ibatver import ImprovedVerticalBatchDetector
from repro.vertical.incver import VerticalIncrementalDetector

FRAGMENTS = "fragments"
RELATION = "relation"
MATERIALIZED = "materialized"

#: Modes whose detector maintains violations under its own ``apply``.
_DELEGATING_MODES = frozenset({"incremental"})


class StrategyStateError(RuntimeError):
    """Raised when a strategy is used before ``setup`` bound it."""


@dataclass(frozen=True)
class StrategyRow:
    """One registered detector: registry coordinates plus how to run it.

    ``rehome(detector, cluster, result)`` re-homes an incremental
    detector's warm indices after an in-place migration; rows without it
    rebuild their detector over the migrated deployment, keeping the
    violations.
    """

    name: str
    partitioning: str
    mode: str
    description: str
    build: Callable[..., Any]
    holds: str
    rules: str = "cfd"
    rehome: Callable[[Any, Cluster, Any], None] | None = None


class TableStrategy:
    """The one adapter: a :class:`StrategyRow` plus the row's options."""

    def __init__(self, row: StrategyRow, **options: Any) -> None:
        # Reject options the row's build does not take, at creation time.
        inspect.signature(row.build).bind(None, None, **options)
        self.row = row
        self._options = options
        self.deployment: Any = None
        self.inner: Any = None
        self._violations = ViolationSet()
        self._base: Relation | None = None
        self._owns_base = False

    def _require_setup(self) -> None:
        if self.deployment is None:
            raise StrategyStateError(
                f"strategy {self.row.name!r} has not been set up; call setup() first"
            )

    @property
    def network(self) -> Network:
        """The deployment's ledger, which every row charges."""
        self._require_setup()
        return self.deployment.network

    def cost_stats(self) -> NetworkStats:
        return self.network.stats()

    @property
    def violations(self) -> ViolationSet:
        self._require_setup()
        if self.row.mode in _DELEGATING_MODES:
            return self.inner.violations
        return self._violations

    # -- binding ------------------------------------------------------------------

    def setup(self, deployment: Any, rules: Iterable[Any]) -> ViolationSet:
        self._bind(deployment, rules)
        return self.violations

    def import_state(self, state: StrategyState, rules: Iterable[Any]) -> ViolationSet:
        """Warm handoff: adopt the exporter's data and violations; only the
        wrapped detector's own indices are rebuilt (nothing is re-detected
        and nothing ships)."""
        self._bind(state.deployment, rules, state.relation, state.violations)
        return self.violations

    def _bind(
        self,
        deployment: Any,
        rules: Iterable[Any],
        relation: Relation | None = None,
        violations: ViolationSet | None = None,
    ) -> None:
        row = self.row
        if isinstance(deployment, SingleSite):
            kind = "single"
        elif isinstance(deployment, Cluster):
            kind = "vertical" if deployment.is_vertical() else "horizontal"
        else:
            kind = None
        if kind != row.partitioning:
            raise ValueError(f"strategy {row.name!r} requires a {row.partitioning} deployment")
        if row.holds == RELATION:
            self._base = relation if relation is not None else deployment.reconstruct()
            self._owns_base = False
            if kind == "single":
                deployment.relation = self._base
        elif relation is not None:
            # The exporter maintained the logical relation, not this
            # deployment — re-host it locally (no shipment is charged).
            deployment = rehost(deployment, relation)
        rules = list(rules)
        self.inner = row.build(deployment, rules, violations, **self._options)
        self.deployment = deployment
        if row.mode in _DELEGATING_MODES:
            # The hot path: one delegated call per wave, no adapter frame.
            self.apply = self.inner.apply
        elif violations is not None:
            self._violations = violations.copy()
        elif row.holds == RELATION and kind != "single":
            # ibatVer/ibatHor: V(Sigma, D) from the free centralized
            # reference, so only the per-batch rebuilds Exp-10 measures
            # are charged.
            self._violations = CentralizedDetector(rules).detect(self._base)
        else:
            self._violations = self._detect(self._base)

    # -- detection ----------------------------------------------------------------

    def _detect(self, base: Relation | None) -> ViolationSet:
        if self.row.holds == FRAGMENTS:
            return self.inner.detect()
        return self.inner.detect(base)

    def apply(self, batch: UpdateBatch) -> ViolationDelta:
        """Re-detect over the updated data and diff (the batch rows).

        Delegating rows replace this with the detector's ``apply`` at
        setup, so before setup every row raises here.
        """
        self._require_setup()
        if len(batch) == 0:
            # Nothing changed: re-detecting would ship the whole database
            # for an identical violation set.
            return ViolationDelta()
        base = self._base
        if self.row.holds == FRAGMENTS:
            # Deliver into the live fragments (free, per the paper's
            # delta-delivery convention), so the fragment objects — and
            # any warm executor state against their stores — survive.
            self.deployment.deliver_updates(batch)
        elif self._owns_base:
            batch.apply_in_place(base)
        else:
            base = batch.apply_to(base)
        new = self._detect(base)
        if self.row.holds == RELATION:
            self._base = base
            if isinstance(self.deployment, SingleSite):
                # The site's relation is copied once; later batches land
                # in place so the store (and warm executor residency
                # against it) survives from batch to batch.
                self.deployment.relation = base
                self._owns_base = True
        delta = diff_violations(self._violations, new)
        self._violations = new
        return delta

    # -- warm state ---------------------------------------------------------------

    def export_state(self) -> StrategyState:
        self._require_setup()
        relation = None
        if self.row.holds == RELATION:
            relation = self._base
        elif self.row.holds == MATERIALIZED:
            template = self.deployment.relation
            relation = Relation(
                template.schema, self.inner.current_tuples(), storage=template.storage
            )
        return StrategyState(self.violations.copy(), relation, self.deployment)

    def migrate(self, result: Any, rules: Iterable[Any]) -> None:
        """Follow an in-place migration of the deployment.

        Violations (and a kept relation) stay warm.  A caller-supplied
        HEV plan referencing the old topology is dropped in favour of a
        re-planned one.
        """
        self._require_setup()
        self._options.pop("plan", None)
        if self.row.rehome is not None:
            self.row.rehome(self.inner, self.deployment, result)
        else:
            self.import_state(self.export_state(), rules)


# -- the table ------------------------------------------------------------------------------


def _inc_ver(cluster, rules, violations=None, plan=None):
    return VerticalIncrementalDetector(cluster, rules, plan=plan, violations=violations)


def _inc_hor(cluster, rules, violations=None, use_md5=True):
    return HorizontalIncrementalDetector(
        cluster, rules, violations=violations, use_md5=use_md5
    )


def _bat_ver(cluster, rules, violations=None):
    return VerticalBatchDetector(cluster, rules)


def _bat_hor(cluster, rules, violations=None):
    return HorizontalBatchDetector(cluster, rules)


def _ibat_ver(cluster, rules, violations=None, plan=None):
    return ImprovedVerticalBatchDetector(
        cluster.vertical_partitioner, rules, plan=plan, network=cluster.network
    )


def _ibat_hor(cluster, rules, violations=None, use_md5=True):
    return ImprovedHorizontalBatchDetector(
        cluster.horizontal_partitioner, rules, use_md5=use_md5, network=cluster.network
    )


def _centralized(site, rules, violations=None):
    return CentralizedDetector(rules, scheduler=site.scheduler)


def _md(site, rules, violations=None):
    return MDDetector(rules, scheduler=site.scheduler)


def _inc_md(site, rules, violations=None):
    return IncrementalMDDetector(site.relation, rules)


STRATEGY_TABLE: tuple[StrategyRow, ...] = (
    StrategyRow(
        "incVer", "vertical", "incremental",
        "incremental CFD detection over vertical fragments (Fig. 5) "
        "through the optVer HEV plan (Section 5)",
        _inc_ver, FRAGMENTS,
        rehome=lambda detector, cluster, result: detector.rehome(cluster),
    ),
    StrategyRow(
        "batVer", "vertical", "batch",
        "batch recomputation over vertical fragments (ICDE 2010 baseline)",
        _bat_ver, FRAGMENTS,
    ),
    StrategyRow(
        "ibatVer", "vertical", "improved-batch",
        "improved batch baseline of Exp-10 (vertical)",
        _ibat_ver, RELATION,
    ),
    StrategyRow(
        "incHor", "horizontal", "incremental",
        "incremental CFD detection over horizontal fragments (Fig. 8)",
        _inc_hor, FRAGMENTS,
    ),
    StrategyRow(
        "batHor", "horizontal", "batch",
        "batch recomputation over horizontal fragments (ICDE 2010 baseline)",
        _bat_hor, FRAGMENTS,
    ),
    StrategyRow(
        "ibatHor", "horizontal", "improved-batch",
        "improved batch baseline of Exp-10 (horizontal)",
        _ibat_hor, RELATION,
    ),
    StrategyRow(
        "centralized", "single", "batch",
        "single-site SQL-style reference detection",
        _centralized, RELATION,
    ),
    StrategyRow(
        "md", "single", "batch",
        "matching-dependency batch detection (similarity extension)",
        _md, RELATION, rules="md",
    ),
    StrategyRow(
        "incMD", "single", "incremental",
        "incremental matching-dependency detection with blocking",
        _inc_md, MATERIALIZED, rules="md",
    ),
)


# -- built-in partition scheme factories ------------------------------------------------------


def _build_vertical_partitioner(
    schema: Any,
    fragments: Sequence[Any] | None = None,
    n_fragments: int | None = None,
    replicate: Any | None = None,
) -> VerticalPartitioner:
    """Explicit fragments, or an even spread over ``n_fragments`` sites."""
    if fragments is not None:
        return VerticalPartitioner(schema, fragments)
    return even_vertical_scheme(schema, n_fragments or 2, replicate)


def _build_horizontal_partitioner(
    schema: Any,
    fragments: Sequence[Any] | None = None,
    n_fragments: int | None = None,
    attribute: str | None = None,
) -> HorizontalPartitioner:
    """Explicit predicate fragments, or key-hash buckets over ``n_fragments``."""
    if fragments is not None:
        return HorizontalPartitioner(schema, fragments)
    return hash_horizontal_scheme(schema, n_fragments or 2, attribute)


# -- registration -----------------------------------------------------------------------------


def register_builtin_strategies(registry: StrategyRegistry) -> None:
    """Wire every built-in detector and partition scheme into ``registry``."""
    for row in STRATEGY_TABLE:
        registry.register_detector(
            row.name,
            partial(TableStrategy, row),
            partitioning=row.partitioning,
            mode=row.mode,
            rules=row.rules,
            description=row.description,
        )
    registry.register_detector(
        "auto",
        AdaptiveStrategy,
        partitioning="any",
        mode="adaptive",
        rules="any",
        description=(
            "cost-based adaptive planner: re-estimates incremental vs batch "
            "per batch and switches at the measured crossover"
        ),
    )

    registry.register_partitioner(
        "vertical",
        _build_vertical_partitioner,
        description="explicit attribute groups, or an even spread (fragments=/n_fragments=)",
    )
    registry.register_partitioner(
        "horizontal",
        _build_horizontal_partitioner,
        description="explicit predicates, or key-hash buckets (fragments=/n_fragments=)",
    )
    registry.register_partitioner(
        "hash",
        _build_horizontal_partitioner,
        description="alias of 'horizontal': hash buckets over the key",
    )
