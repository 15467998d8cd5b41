"""``ibatHor``: the improved batch baseline of Exp-10 (horizontal flavour).

Like :class:`~repro.vertical.ibatver.ImprovedVerticalBatchDetector`, it
rebuilds ``V(Sigma, D ⊕ delta-D)`` from an empty database using the
incremental insertion machinery and per-site indices, at a cost
proportional to ``|D| + |delta-D|``.
"""

from __future__ import annotations

from typing import Iterable

from repro.core.cfd import CFD
from repro.core.relation import Relation
from repro.core.updates import UpdateBatch
from repro.core.violations import ViolationSet
from repro.distributed.cluster import Cluster
from repro.distributed.network import Network
from repro.horizontal.inchor import HorizontalIncrementalDetector
from repro.partition.horizontal import HorizontalPartitioner


class ImprovedHorizontalBatchDetector:
    """Recompute ``V(Sigma, D ⊕ delta-D)`` by incremental insertion from scratch."""

    def __init__(
        self,
        partitioner: HorizontalPartitioner,
        cfds: Iterable[CFD],
        use_md5: bool = True,
        network: Network | None = None,
    ):
        self._partitioner = partitioner
        self._cfds = list(cfds)
        self._use_md5 = use_md5
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

        The updated database is inserted tuple by tuple, so the cost is
        proportional to ``|D ⊕ delta-D|`` (Exp-10 of the paper).
        """
        final = updates.apply_to(base) if updates is not None else base
        empty = Relation(self._partitioner.schema, storage=base.storage)
        cluster = Cluster.from_horizontal(
            self._partitioner, empty, network=self._network
        )
        detector = HorizontalIncrementalDetector(
            cluster,
            self._cfds,
            violations=ViolationSet(),
            use_md5=self._use_md5,
        )
        detector.apply(UpdateBatch.inserts(list(final)))
        return detector.violations
