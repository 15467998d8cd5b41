"""``batHor``: the batch baseline for horizontal partitions.

Following Fan et al. (ICDE 2010), the batch detector recomputes
``V(Sigma, D)`` from scratch.  Constant CFDs and locally checkable
variable CFDs are evaluated at each site over its own fragment; for
every other variable CFD each site ships the (tid + X + B) projection of
its locally pattern-matching tuples to a coordinator site, which then
groups and checks them.  Work and shipment are proportional to |D| per
CFD.

The per-site phase is expressed as one pure task per site
(:func:`_site_batch_task`) submitted to the cluster's
:class:`~repro.runtime.scheduler.SiteScheduler`: through its fragment's
store, each task runs the local checks, plans the shipments its site
would make and pre-groups its pattern-matching tuples by LHS key.  The
coordinator then merges the partial groups (grouping is associative, so
the merged verdicts equal a centralized pass over the reconstructed
database) and charges the planned shipments to the network — identical
results and identical shipment counts on every executor and storage
backend.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.cfd import CFD, UNNAMED, is_locally_checkable, split_local_general
from repro.core.detector import mark_violations
from repro.core.violations import ViolationSet
from repro.distributed.cluster import Cluster
from repro.distributed.message import MessageKind
from repro.distributed.serialization import PriceTable
from repro.rulefuse import compile_rule_set
from repro.runtime.executor import SiteTask


def _site_batch_task(
    local_groups: tuple,
    general_cfds: list[CFD],
    ship_names: frozenset[str],
    fragment: Any,
) -> tuple[list, dict[str, tuple[int, int]], dict[str, Any]]:
    """One site's whole batch-detection contribution (pure, picklable).

    Returns ``(local, shipments, groups)``:

    * per member of ``local_groups`` (the constant and locally checkable
      CFDs), its violations inside this fragment;
    * per general CFD this site must ship for, the ``(count, bytes)``
      total of its locally pattern-matching tuples' (tid + X + B)
      projections — two ints, priced here where the values live;
    * per general CFD, the fragment's partial LHS groups for the
      coordinator to merge (fragments are disjoint, so a tid is listed
      once).

    Violations and groups travel in the store's wire form and are
    decoded by the coordinator's copy of the fragment (``tids_of``,
    ``merge_groups``).  On columnar fragments that form is row space —
    bitsets and bare row indices, a few ints per group — which a warm
    worker's replica shares with the coordinator's copy by construction
    (it is built from the coordinator's own full physical export plus
    its journal deltas), so a shared-memory round's pickled bytes stay
    proportional to the changes, not the database.
    """
    store = fragment.store
    local = store.check(local_groups)
    prices = PriceTable()
    shipments: dict[str, tuple[int, int]] = {}
    groups: dict[str, Any] = {}
    for cfd in general_cfds:
        want_ship = cfd.name in ship_names
        shipment, groups[cfd.name] = store.group_scan(cfd, want_ship, prices)
        if want_ship:
            shipments[cfd.name] = shipment
    return local, shipments, groups


class HorizontalBatchDetector:
    """Recompute ``V(Sigma, D)`` over a horizontally partitioned cluster."""

    def __init__(self, cluster: Cluster, cfds: Iterable[CFD]):
        if not cluster.is_horizontal():
            raise ValueError("HorizontalBatchDetector requires a horizontal cluster")
        self._cluster = cluster
        self._network = cluster.network
        self._partitioner = cluster.horizontal_partitioner
        self._cfds = list(cfds)
        for cfd in self._cfds:
            cfd.validate_against(self._partitioner.schema)
        local_cfds, self._general_cfds = split_local_general(
            self._cfds,
            lambda cfd: cfd.is_constant()
            or is_locally_checkable(cfd, self._partitioner),
        )
        self._local_groups = compile_rule_set(local_cfds)

    def _shipping_sites(self, cfd: CFD, coordinator: int) -> frozenset[int]:
        """Sites that must ship their matching tuples for ``cfd``."""
        constants = {
            a: cfd.pattern.entry(a)
            for a in cfd.lhs
            if cfd.pattern.entry(a) is not UNNAMED
        }
        shipping = []
        for frag in self._partitioner.fragments:
            if frag.site == coordinator:
                continue
            if constants and frag.predicate.conflicts_with_constants(constants):
                continue
            shipping.append(frag.site)
        return frozenset(shipping)

    def detect(self) -> ViolationSet:
        """Compute ``V(Sigma, D)`` from scratch, charging shipments to the network."""
        violations = ViolationSet()
        sites = self._cluster.sites()
        coordinator = self._cluster.site_ids()[0]
        shipping_sites = {
            cfd.name: self._shipping_sites(cfd, coordinator)
            for cfd in self._general_cfds
        }

        tasks = [
            SiteTask(
                site.site_id,
                _site_batch_task,
                (
                    self._local_groups,
                    self._general_cfds,
                    frozenset(
                        name
                        for name, shippers in shipping_sites.items()
                        if site.site_id in shippers
                    ),
                    site.fragment,
                ),
                label="batHor",
            )
            for site in sites
        ]
        results = self._cluster.scheduler.run(tasks)

        # Merge in site order: local verdicts first, then per general CFD the
        # site's shipment total (one ledger entry for all its matching
        # tuples) and the group union, each decoded by the coordinator's own
        # copy of the site's fragment.
        fragments = {site.site_id: site.fragment for site in sites}
        general_by_name = {cfd.name: cfd for cfd in self._general_cfds}
        merged: dict[str, dict[tuple, dict[Any, list[Any]]]] = {
            cfd.name: {} for cfd in self._general_cfds
        }
        for result in results:
            local, shipments, groups = result.value
            store = fragments[result.site].store
            mark_violations(violations, store, self._local_groups, local)
            for cfd_name, (count, nbytes) in shipments.items():
                self._network.charge(
                    result.site,
                    coordinator,
                    MessageKind.PARTIAL_TUPLE,
                    count,
                    nbytes,
                    tag=cfd_name,
                )
            # Each CFD's partial groups are dropped as soon as they are
            # merged, so the wave never holds every site's copy twice.
            while groups:
                cfd_name, partial = groups.popitem()
                store.merge_groups(merged[cfd_name], general_by_name[cfd_name], partial)

        for cfd in self._general_cfds:
            violating: list[Any] = []
            for by_rhs in merged.pop(cfd.name).values():
                if len(by_rhs) > 1:
                    for tids in by_rhs.values():
                        violating.extend(tids)
            violations._mark_all(violating, cfd.name)
        return violations
