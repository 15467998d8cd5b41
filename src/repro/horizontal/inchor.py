"""``incHor``: incremental detection for horizontal partitions (Fig. 8).

The detector keeps, at every site, a local group index per variable CFD
(equivalence classes of the site's own tuples).  Batch updates are
normalized and processed in order; per CFD one of three cases applies:

1. *Constant CFDs* — violated by single tuples, always checked locally.
2. *Locally checkable variable CFDs* — when every fragment's selection
   predicate only mentions attributes of the CFD's LHS, two tuples from
   different fragments can never agree on the LHS, so each site can run
   the single-update logic (``O(1 + |delta-V|)``, no group is copied) on
   its own index with no shipment at all.
3. *General variable CFDs* — handled by the broadcast protocol of
   :class:`~repro.horizontal.single.GeneralCFDProtocol`, which ships the
   updated tuple (or its MD5 digest) at most once per update and skips
   fragments whose predicate conflicts with the CFD's pattern.

Communication is ``O(|delta-D|)`` (with the fixed factor n) and
computation ``O(|delta-D| + |delta-V|)`` (Proposition 8).
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.cfd import CFD, UNNAMED, is_locally_checkable, split_local_general
from repro.core.detector import CentralizedDetector
from repro.core.updates import Update, UpdateBatch
from repro.core.violations import ViolationDelta, ViolationSet
from repro.distributed.cluster import Cluster
from repro.horizontal.single import GeneralCFDProtocol
from repro.indexes.idx import CFDIndex, violations_from_index
from repro.runtime.scheduler import SiteTask
from repro.vertical.single import incremental_delete, incremental_insert


def _site_local_task(
    constant_cfds: list[CFD],
    indices: dict[str, CFDIndex],
    updates: list[tuple[int, Update]],
) -> tuple[dict[str, CFDIndex], list[tuple[int, str, Any, str]]]:
    """One site's constant checks and equivalence-class maintenance (pure).

    Processes the site's own slice of the batch in order against the
    site's local indices and returns the (possibly copied, when run on
    the process backend) indices plus the mark/unmark operations
    ``(seq, "+"/"-", tid, cfd_name)``, where ``seq`` is the update's
    global position in the normalized batch.  The coordinator merges all
    sites' operations back into ``seq`` order before folding them into
    the shared violation set: a tuple usually lives at exactly one site,
    but a modification may move a tid across sites within one batch, and
    only the global batch order folds those correctly.
    """
    ops: list[tuple[int, str, Any, str]] = []
    for seq, update in updates:
        t = update.tuple
        inserting = update.is_insert()
        for cfd in constant_cfds:
            if cfd.single_tuple_violation(t):
                ops.append((seq, "+" if inserting else "-", t.tid, cfd.name))
        for name, index in indices.items():
            if inserting:
                for tid in incremental_insert(index, t):
                    ops.append((seq, "+", tid, name))
            elif index.applies_to(t):
                for tid in incremental_delete(index, t):
                    ops.append((seq, "-", tid, name))
    return indices, ops


class HorizontalIncrementalDetector:
    """Incremental CFD violation detection over a horizontally partitioned cluster."""

    def __init__(
        self,
        cluster: Cluster,
        cfds: Iterable[CFD],
        violations: ViolationSet | None = None,
        use_md5: bool = True,
    ):
        if not cluster.is_horizontal():
            raise ValueError("HorizontalIncrementalDetector requires a horizontal cluster")
        self._cluster = cluster
        self._network = cluster.network
        self._partitioner = cluster.horizontal_partitioner
        self._cfds = list(cfds)
        schema = self._partitioner.schema
        for cfd in self._cfds:
            cfd.validate_against(schema)
        self._use_md5 = use_md5

        self._classify()

        # Setup phase, O(|D| x |Sigma|) once and not charged to the network:
        # per-site local indices for every variable CFD (each site's fragment
        # is swept once per LHS group), then V(Sigma, D) read off them -- a
        # key's groups merged across sites form set(t[X]), and one with two
        # or more RHS classes is exactly a set of violations.  Only the
        # constant CFDs are scanned, fragment by fragment; the cluster is
        # never reassembled.
        variable_cfds = self._local_cfds + self._general_cfds
        self._site_indices: dict[str, dict[int, CFDIndex]] = {
            cfd.name: {} for cfd in variable_cfds
        }
        for site in cluster.sites():
            indexes = [CFDIndex(cfd) for cfd in variable_cfds]
            site.fragment.store.build_indexes(indexes)
            for cfd, index in zip(variable_cfds, indexes):
                self._site_indices[cfd.name][site.site_id] = index

        if violations is not None:
            self._violations = violations.copy()
        else:
            detector = CentralizedDetector(self._constant_cfds)
            constant = (
                [detector.detect(site.fragment) for site in cluster.sites()]
                if self._constant_cfds
                else []
            )
            self._violations = violations_from_index(
                {name: per_site.values() for name, per_site in self._site_indices.items()},
                constant,
            )

        self._bind_protocols()

    def _classify(self) -> None:
        """Split the CFDs into the three cases of Section 6 for the current layout."""
        self._constant_cfds = [cfd for cfd in self._cfds if cfd.is_constant()]
        constant_ids = {id(cfd) for cfd in self._constant_cfds}
        variable = [cfd for cfd in self._cfds if id(cfd) not in constant_ids]
        self._local_cfds, self._general_cfds = split_local_general(
            variable, lambda cfd: is_locally_checkable(cfd, self._partitioner)
        )

    def _bind_protocols(self) -> None:
        """One protocol per general CFD with its mark/unmark callables.

        The callables are bound here, once per layout, rather than per
        (update x CFD) in the wave loop; they write to ``_wave_delta``,
        the delta of the wave :meth:`apply` is processing.
        """
        self._wave_delta = ViolationDelta()
        self._protocols = []
        for cfd in self._general_cfds:
            protocol = GeneralCFDProtocol(
                cfd,
                self._site_indices[cfd.name],
                self._violations,
                self._network,
                eligible_sites=self._eligible_sites(cfd),
                use_md5=self._use_md5,
            )

            def mark(tid: Any, name: str = cfd.name) -> None:
                self._mark(self._wave_delta, tid, name)

            def unmark(tid: Any, name: str = cfd.name) -> None:
                self._unmark(self._wave_delta, tid, name)

            self._protocols.append((protocol, mark, unmark))

    # -- classification helpers --------------------------------------------------------

    def _eligible_sites(self, cfd: CFD) -> list[int]:
        """Sites whose predicate does not conflict with the CFD's pattern constants."""
        constants = {
            a: cfd.pattern.entry(a)
            for a in cfd.lhs
            if cfd.pattern.entry(a) is not UNNAMED
        }
        eligible = []
        for frag in self._partitioner.fragments:
            if constants and frag.predicate.conflicts_with_constants(constants):
                continue
            eligible.append(frag.site)
        return eligible

    # -- public state --------------------------------------------------------------------

    @property
    def violations(self) -> ViolationSet:
        """The current violation set ``V(Sigma, D)`` maintained by the detector."""
        return self._violations

    @property
    def cfds(self) -> list[CFD]:
        return list(self._cfds)

    def index_for(self, cfd_name: str, site: int) -> CFDIndex:
        """The local index of a variable CFD at a site (tests/diagnostics)."""
        return self._site_indices[cfd_name][site]

    # -- mark helpers ------------------------------------------------------------------------

    def _mark(self, delta: ViolationDelta, tid: Any, cfd_name: str) -> None:
        if self._violations.add(tid, cfd_name):
            delta.add(tid, cfd_name)

    def _unmark(self, delta: ViolationDelta, tid: Any, cfd_name: str) -> None:
        if self._violations.remove(tid, cfd_name):
            delta.remove(tid, cfd_name)

    # -- the batch algorithm (Fig. 8) ---------------------------------------------------------------

    def apply(self, updates: UpdateBatch) -> ViolationDelta:
        """Process a batch of updates and return the net change ``delta-V``.

        The batch is routed to the owning sites; constant checks and
        local equivalence-class maintenance run as one pure task per
        touched site (the sites are disjoint, so no task reads another's
        results), and the cross-site protocol of the general variable
        CFDs then runs at the coordinator in update order.
        """
        delta = self._wave_delta = ViolationDelta()
        routed: list[tuple[Update, int]] = []
        by_site: dict[int, list[tuple[int, Update]]] = {}
        for seq, update in enumerate(updates.normalized()):
            site_id = self._partitioner.route_tuple(update.tuple)
            site = self._cluster.site(site_id)
            if update.is_insert():
                site.fragment.insert(update.tuple)
            else:
                site.fragment.discard(update.tid)
            routed.append((update, site_id))
            by_site.setdefault(site_id, []).append((seq, update))

        if self._constant_cfds or self._local_cfds:
            tasks = [
                SiteTask(
                    site_id,
                    _site_local_task,
                    (
                        self._constant_cfds,
                        {
                            cfd.name: self._site_indices[cfd.name][site_id]
                            for cfd in self._local_cfds
                        },
                        site_updates,
                    ),
                    label="incHor:local",
                )
                for site_id, site_updates in sorted(by_site.items())
            ]
            merged_ops: list[tuple[int, str, Any, str]] = []
            for result in self._cluster.scheduler.run(tasks):
                indices, ops = result.value
                for name, index in indices.items():
                    self._site_indices[name][result.site] = index
                merged_ops.extend(ops)
            # Fold in global batch order: a modification can move a tid to
            # another site mid-batch, and only the update sequence orders
            # its unmark/mark pair correctly.  The sort is stable, so ops
            # of one update keep their per-site emission order.
            merged_ops.sort(key=lambda op: op[0])
            for _seq, op, tid, name in merged_ops:
                if op == "+":
                    self._mark(delta, tid, name)
                else:
                    self._unmark(delta, tid, name)

        for update, site_id in routed:
            t = update.tuple
            if update.is_insert():
                for protocol, mark, unmark in self._protocols:
                    protocol.insert(site_id, t, mark, unmark)
            else:
                for protocol, mark, unmark in self._protocols:
                    protocol.delete(site_id, t, mark, unmark)
        return delta
