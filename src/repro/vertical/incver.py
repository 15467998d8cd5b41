"""``incVer``: incremental detection for vertical partitions (Fig. 5).

Given a vertically partitioned database hosted on a
:class:`~repro.distributed.cluster.Cluster`, a set of CFDs and the
current violations, :class:`VerticalIncrementalDetector` maintains the
violation set under batch updates.  Per CFD it distinguishes the three
cases of the paper:

1. *Constant CFDs* — violated by single tuples; each site ships the
   locally pattern-matching projection of the updated tuple to a
   coordinator, which checks the pattern on the RHS.
2. *Locally checkable variable CFDs* — all attributes of the CFD live in
   one fragment; detection happens at that site with no shipment.
3. *General variable CFDs* — the IDX lives at the site chosen by the HEV
   plan; processing an update ships at most ``|X|`` eqids (shared HEVs
   ship once per update), after which ``incVIns`` / ``incVDel`` probe
   the IDX a constant number of times and touch only the tids whose
   status changes.

The communication and computational costs are therefore
``O(|delta-D| + |delta-V|)``, independent of ``|D|`` (Proposition 6).
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.cfd import CFD, UNNAMED
from repro.core.detector import CentralizedDetector
from repro.core.updates import Update, UpdateBatch
from repro.core.violations import ViolationDelta, ViolationSet
from repro.distributed.cluster import Cluster
from repro.distributed.message import MessageKind
from repro.distributed.serialization import estimate_tuple_bytes
from repro.indexes.hev import HEVPlan, ShipmentCache
from repro.indexes.idx import CFDIndex, violations_from_index
from repro.indexes.planner import hev_plan
from repro.runtime.scheduler import SiteTask


#: What one site ships for a constant CFD's check: (site, the LHS attributes
#: it holds, the pattern constants among them).
_Shipper = tuple[int, list[str], list[tuple[str, Any]]]


def _variable_cfd_task(
    index: CFDIndex, updates: list[Update]
) -> tuple[CFDIndex, list[tuple[str, Any]]]:
    """Maintain one variable CFD's IDX over a whole batch (pure).

    Runs ``incVIns`` / ``incVDel`` per update in batch order and returns
    the (possibly copied, on the process backend) index together with
    the ordered mark/unmark operations ``("+"/"-", tid)``.  Each
    variable CFD owns its index and its slice of the violation marks, so
    the CFDs of a batch are independent tasks.
    """
    from repro.vertical.single import incremental_delete, incremental_insert

    ops: list[tuple[str, Any]] = []
    for update in updates:
        if update.is_insert():
            for tid in incremental_insert(index, update.tuple):
                ops.append(("+", tid))
        elif index.applies_to(update.tuple):
            for tid in incremental_delete(index, update.tuple):
                ops.append(("-", tid))
    return index, ops


class VerticalIncrementalDetector:
    """Incremental CFD violation detection over a vertically partitioned cluster."""

    def __init__(
        self,
        cluster: Cluster,
        cfds: Iterable[CFD],
        plan: HEVPlan | None = None,
        violations: ViolationSet | None = None,
    ):
        if not cluster.is_vertical():
            raise ValueError("VerticalIncrementalDetector requires a vertical cluster")
        self._cluster = cluster
        self._network = cluster.network
        self._partitioner = cluster.vertical_partitioner
        self._cfds = list(cfds)
        schema = self._partitioner.schema
        for cfd in self._cfds:
            cfd.validate_against(schema)

        self._classify()

        self._plan = plan if plan is not None else hev_plan(self._cfds, self._partitioner)

        # Setup phase, O(|D| x |Sigma|) once and not charged to the network
        # (the paper assumes the indices and V(Sigma, D) exist before updates
        # arrive): one sweep of the resident relation per fused LHS group to
        # build the IDX indices, then V(Sigma, D) read off them -- a group
        # with two or more RHS classes is exactly a set of violations -- so
        # only the constant CFDs are scanned.
        snapshot = cluster.reconstruct()
        self._indices: dict[str, CFDIndex] = {}
        indexes: list[CFDIndex] = []
        for cfd, _site in self._local_cfds:
            index = CFDIndex(cfd)
            self._indices[cfd.name] = index
            indexes.append(index)
        for cfd in self._general_cfds:
            index = CFDIndex(cfd)
            self._indices[cfd.name] = index
            indexes.append(index)
        snapshot.store.build_indexes(indexes)

        if violations is not None:
            self._violations = violations.copy()
        else:
            detector = CentralizedDetector(self._constant_cfds)
            constant = [detector.detect(snapshot)] if self._constant_cfds else []
            self._violations = violations_from_index(
                {name: (index,) for name, index in self._indices.items()}, constant
            )

    def _classify(self) -> None:
        """Split the CFDs into the three cases of Fig. 5 for the current layout.

        Also resolves, once per layout instead of once per (update x
        CFD), what a constant CFD's check ships: its coordinator (the
        home of the RHS attribute) and, for every other site holding LHS
        attributes, those attributes and the pattern constants among
        them.
        """
        self._constant_cfds = []
        self._constant_shippers: dict[str, tuple[int, list[_Shipper]]] = {}
        self._local_cfds = []
        self._general_cfds = []
        for cfd in self._cfds:
            if cfd.is_constant():
                self._constant_cfds.append(cfd)
                coordinator = self._partitioner.home_site(cfd.rhs)
                shippers: list[_Shipper] = []
                for frag in self._partitioner.fragments:
                    relevant = [a for a in frag.attributes if a in cfd.lhs]
                    if frag.site == coordinator or not relevant:
                        continue
                    constants = [
                        (a, cfd.pattern.entry(a))
                        for a in relevant
                        if cfd.pattern.entry(a) is not UNNAMED
                    ]
                    shippers.append((frag.site, relevant, constants))
                self._constant_shippers[cfd.name] = (coordinator, shippers)
                continue
            local_site = self._partitioner.is_local(cfd.attributes)
            if local_site is not None:
                self._local_cfds.append((cfd, local_site))
            else:
                self._general_cfds.append(cfd)

    def rehome(self, cluster: Cluster, plan: HEVPlan | None = None) -> None:
        """Warm re-homing after an in-place cluster migration.

        The IDX indices are *logical* — grouped by LHS value over the
        whole database — so moving columns between sites never touches
        their contents, and the maintained violation set stays valid
        because migration does not change the logical database.  Only
        the placement metadata depends on the layout: the local/general
        classification, the HEV plan and the constant-CFD coordinators
        are recomputed against the new partitioner; nothing is
        re-detected and nothing ships.
        """
        if not cluster.is_vertical():
            raise ValueError("rehome requires a vertical cluster")
        self._cluster = cluster
        self._network = cluster.network
        self._partitioner = cluster.vertical_partitioner
        self._classify()
        self._plan = plan if plan is not None else hev_plan(self._cfds, self._partitioner)

    # -- public state ----------------------------------------------------------------

    @property
    def violations(self) -> ViolationSet:
        """The current violation set ``V(Sigma, D)`` maintained by the detector."""
        return self._violations

    @property
    def plan(self) -> HEVPlan:
        """The HEV plan in use (``optVer``'s unless a plan was supplied)."""
        return self._plan

    @property
    def cfds(self) -> list[CFD]:
        return list(self._cfds)

    def index_for(self, cfd_name: str) -> CFDIndex:
        """The IDX of a variable CFD (exposed for tests and diagnostics)."""
        return self._indices[cfd_name]

    # -- mark helpers ------------------------------------------------------------------

    def _mark(self, delta: ViolationDelta, tid: Any, cfd_name: str) -> None:
        if self._violations.add(tid, cfd_name):
            delta.add(tid, cfd_name)

    def _unmark(self, delta: ViolationDelta, tid: Any, cfd_name: str) -> None:
        if self._violations.remove(tid, cfd_name):
            delta.remove(tid, cfd_name)

    # -- per-CFD processing ----------------------------------------------------------------

    def _process_constant(self, cfd: CFD, update: Update, delta: ViolationDelta) -> None:
        t = update.tuple
        coordinator, shippers = self._constant_shippers[cfd.name]
        # Each site holding LHS attributes checks its local projection against the
        # pattern; locally matching partial tuples are shipped to the coordinator
        # together with the RHS value if stored there (Fig. 5, lines 5-6).
        for site, relevant, constants in shippers:
            if all(t[a] == constant for a, constant in constants):
                payload = {a: t[a] for a in relevant}
                self._network.send(
                    site,
                    coordinator,
                    MessageKind.PARTIAL_TUPLE,
                    {"tid": t.tid, **payload},
                    estimate_tuple_bytes(t, relevant),
                    units=1,
                    tag=cfd.name,
                )
        if not cfd.single_tuple_violation(t):
            return
        if update.is_insert():
            self._mark(delta, t.tid, cfd.name)
        else:
            self._unmark(delta, t.tid, cfd.name)

    def _idx_site(self, cfd: CFD) -> int:
        """The site hosting the CFD's IDX (for the timing breakdown)."""
        try:
            return self._plan.idx_site(cfd.name)
        except Exception:
            return self._cluster.site_ids()[0]

    # -- the batch algorithm (Fig. 5) -----------------------------------------------------------

    def apply(self, updates: UpdateBatch) -> ViolationDelta:
        """Process a batch of updates and return the net change ``delta-V``.

        The batch is first normalized (updates on the same tid that
        cancel each other are dropped).  For every surviving update the
        eqid shipments required by the general variable CFDs are charged
        to the cluster network, sharing HEVs across CFDs within the
        update as the plan prescribes.  The constant checks and eqid
        shipments run at the coordinator in update order; the per-CFD
        IDX maintenance then runs as one independent task per variable
        CFD on the cluster's scheduler (every CFD owns its index and its
        violation marks, so no task reads another's).
        """
        delta = ViolationDelta()
        batch = updates.normalized()
        if not len(batch):
            return delta
        # The delta is delivered to the owning sites by assumption (no
        # shipment): one write to the resident relation the fragments view.
        self._cluster.deliver_updates(batch)
        normalized = list(batch)
        for update in normalized:
            t = update.tuple
            cache = ShipmentCache()
            for cfd in self._constant_cfds:
                self._process_constant(cfd, update, delta)
            for cfd in self._general_cfds:
                if cfd.lhs_matches(t):
                    self._plan.evaluate_keys(cfd.name, t, self._network, cache)

        variable_cfds = [(cfd, site) for cfd, site in self._local_cfds]
        variable_cfds += [(cfd, self._idx_site(cfd)) for cfd in self._general_cfds]
        tasks = [
            SiteTask(
                site,
                _variable_cfd_task,
                (self._indices[cfd.name], normalized),
                label=f"incVer:{cfd.name}",
            )
            for cfd, site in variable_cfds
        ]
        for (cfd, _site), result in zip(
            variable_cfds, self._cluster.scheduler.run(tasks)
        ):
            index, ops = result.value
            self._indices[cfd.name] = index
            for op, tid in ops:
                if op == "+":
                    self._mark(delta, tid, cfd.name)
                else:
                    self._unmark(delta, tid, cfd.name)
        return delta
