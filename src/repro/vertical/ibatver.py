"""``ibatVer``: the improved batch baseline of Exp-10.

The paper strengthens the batch approach "by using our incremental
insertion algorithms and indices ... starting with the empty database
and inserting and deleting tuples until it reaches D".  The improved
baseline therefore costs ``O(|D| + |delta-D|)`` per run — better than
``batVer`` but still proportional to the database size, which is why the
truly incremental ``incVer`` wins until the update batch approaches |D|
(the crossover of Fig. 11(a)).
"""

from __future__ import annotations

from typing import Iterable

from repro.core.cfd import CFD
from repro.core.relation import Relation
from repro.core.updates import UpdateBatch
from repro.core.violations import ViolationSet
from repro.distributed.cluster import Cluster
from repro.distributed.network import Network
from repro.indexes.hev import HEVPlan
from repro.partition.vertical import VerticalPartitioner
from repro.vertical.incver import VerticalIncrementalDetector


class ImprovedVerticalBatchDetector:
    """Recompute ``V(Sigma, D ⊕ delta-D)`` by incremental insertion from scratch."""

    def __init__(
        self,
        partitioner: VerticalPartitioner,
        cfds: Iterable[CFD],
        plan: HEVPlan | None = None,
        network: Network | None = None,
    ):
        self._partitioner = partitioner
        self._cfds = list(cfds)
        self._plan = plan
        # A caller-owned network lets the adaptive planner charge the
        # rebuild to the session ledger it measures; standalone use
        # keeps a private ledger as before.
        self._network = network or Network()

    @property
    def network(self) -> Network:
        """The network used by the rebuild (for shipment reporting)."""
        return self._network

    def detect(self, base: Relation, updates: UpdateBatch | None = None) -> ViolationSet:
        """Build ``V(Sigma, D ⊕ delta-D)`` starting from an empty database.

        Every tuple of the *updated* database is fed through the
        incremental insertion machinery ("starting with the empty
        database and inserting tuples until it reaches D", Exp-10), so
        the cost is proportional to ``|D ⊕ delta-D|``: better than
        ``batVer`` but still tied to the database size, unlike the truly
        incremental detector whose cost only depends on ``|delta-D|``.
        """
        final = updates.apply_to(base) if updates is not None else base
        empty = Relation(self._partitioner.schema, storage=base.storage)
        cluster = Cluster.from_vertical(self._partitioner, empty, network=self._network)
        detector = VerticalIncrementalDetector(
            cluster,
            self._cfds,
            plan=self._plan,
            violations=ViolationSet(),
        )
        detector.apply(UpdateBatch.inserts(list(final)))
        return detector.violations
