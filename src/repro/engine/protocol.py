"""The :class:`Detector` protocol and the degenerate single-site deployment.

Every detection strategy — the six distributed detectors of the paper,
the centralized reference and the matching-dependency extension — is
exposed to the engine through one uniform surface:

* ``setup(deployment, rules)`` binds the strategy to a deployment (a
  :class:`~repro.distributed.cluster.Cluster` or a :class:`SingleSite`)
  and a rule set, builds whatever indices the strategy needs, and
  returns the initial violation set ``V(Sigma, D)``;
* ``apply(batch)`` processes one update batch and returns the net
  ``delta-V``;
* ``violations`` is the maintained violation set;
* ``cost_stats()`` snapshots the communication cost charged so far.

Batch baselines satisfy ``apply`` by re-detecting and diffing, so every
strategy — incremental or not — can serve the same streaming sessions.

Strategies additionally expose three *warm-state* hooks the engine uses
for mid-session handoff and elasticity: ``export_state()`` /
``import_state(state, rules)`` (adaptive strategy switching, PR 4) and
``migrate(result, rules)`` — called after the deployment migrated in
place (``session.scale()`` / ``session.rebalance()``), with the
:class:`~repro.partition.migration.MigrationResult` describing what
moved, so the strategy can rebuild its indices over the new layout (or,
for ``incVer``, re-derive only its placement metadata) while its
violations carry over and nothing is re-detected.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Protocol, runtime_checkable

from repro.core.relation import Relation
from repro.core.updates import UpdateBatch
from repro.core.violations import ViolationDelta, ViolationSet
from repro.distributed.cluster import Cluster
from repro.distributed.network import Network, NetworkStats
from repro.runtime.scheduler import SiteScheduler


@runtime_checkable
class Detector(Protocol):
    """The uniform detection strategy interface the engine drives."""

    def setup(self, deployment: Any, rules: Iterable[Any]) -> ViolationSet:
        """Bind to a deployment and rule set; return the initial violations."""
        ...

    def apply(self, batch: UpdateBatch) -> ViolationDelta:
        """Process one update batch and return the net change ``delta-V``."""
        ...

    @property
    def violations(self) -> ViolationSet:
        """The violation set currently maintained by the strategy."""
        ...

    def cost_stats(self) -> NetworkStats:
        """Communication cost charged by this strategy so far."""
        ...


@dataclass
class StrategyState:
    """A strategy's exportable warm state, for mid-session handoff.

    The adaptive planner swaps detectors between batches without
    re-partitioning or re-shipping fragments: the outgoing strategy
    exports its violations plus whichever of (logical relation,
    deployment) is authoritative, and the incoming strategy imports
    them — rebuilding only its own private indices.

    ``relation`` is the current logical database when the exporter's
    deployment fragments may be stale (the batch baselines maintain the
    relation, not the fragments); ``None`` means the deployment's
    fragments *are* current (the incremental detectors maintain them in
    place) and the importer may reconstruct lazily.
    """

    violations: ViolationSet
    relation: Relation | None
    deployment: Any


class SingleSite:
    """A one-site deployment: the whole relation in one place, no shipment.

    Centralized and matching-dependency detection run here.  The class
    mirrors the small part of the :class:`Cluster` surface the engine
    relies on (``network``, ``reconstruct``) so sessions can treat both
    deployments uniformly.
    """

    def __init__(
        self,
        relation: Relation,
        network: Network | None = None,
        scheduler: SiteScheduler | None = None,
    ):
        self.relation = relation
        self._network = network or Network()
        self._scheduler = scheduler or SiteScheduler()

    @property
    def network(self) -> Network:
        return self._network

    @property
    def scheduler(self) -> SiteScheduler:
        """The scheduler detectors submit their per-site task rounds to."""
        return self._scheduler

    def is_vertical(self) -> bool:
        return False

    def is_horizontal(self) -> bool:
        return False

    def reconstruct(self) -> Relation:
        """The current logical database (trivially the stored relation)."""
        return self.relation

    def total_tuples(self) -> int:
        return len(self.relation)

    def __len__(self) -> int:
        return 1

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SingleSite({len(self.relation)} tuples)"


def rehost(deployment: Any, relation: Relation) -> Any:
    """Host ``relation`` on ``deployment``'s layout, network and scheduler.

    Re-fragmenting is local work, so nothing ships and the cost ledger
    carries over.  A cluster is rebuilt; a single site takes the
    relation in place.
    """
    if isinstance(deployment, SingleSite):
        deployment.relation = relation
        return deployment
    if deployment.is_vertical():
        build, partitioner = Cluster.from_vertical, deployment.vertical_partitioner
    else:
        build, partitioner = Cluster.from_horizontal, deployment.horizontal_partitioner
    return build(
        partitioner, relation, network=deployment.network, scheduler=deployment.scheduler
    )
