"""``batHor``: the batch baseline for horizontal partitions.

Following Fan et al. (ICDE 2010), the batch detector recomputes
``V(Sigma, D)`` from scratch.  Constant CFDs and locally checkable
variable CFDs are evaluated at each site over its own fragment; for
every other variable CFD each site ships the (tid + X + B) projection of
its locally pattern-matching tuples to a coordinator site, which then
groups and checks them.  Work and shipment are proportional to |D| per
CFD.

The sites work in rounds of pure tasks on the cluster's
:class:`~repro.runtime.scheduler.SiteScheduler`, through their stores.  In
round 1 each site runs its local checks, prices the shipments it would
make (the coordinator charges them) and summarizes each general CFD as
``{lhs_key: its one RHS value, or MULTI}`` (``key_summary``).  An LHS
group violates iff it holds two distinct RHS values, so a key is dirty
when a site says MULTI or two sites disagree (Python ``==``).  Then one
round per general CFD with a dirty key fetches the tids of its dirty
keys only (``dirty_tids``) and marks them before the next, so the
coordinator holds one CFD's tids at a time.  Results and shipment counts
are identical on every storage backend.
"""

from __future__ import annotations

from itertools import chain
from typing import Any, Iterable

from repro.core.cfd import CFD, UNNAMED, is_locally_checkable, split_local_general
from repro.core.detector import mark_violations
from repro.core.storage import MULTI, summarize
from repro.core.violations import ViolationSet
from repro.distributed.cluster import Cluster
from repro.distributed.message import MessageKind
from repro.distributed.serialization import PriceTable
from repro.rulefuse import compile_rule_set
from repro.runtime.scheduler import SiteTask


def _site_summary_task(
    local_groups: tuple,
    general_cfds: list[CFD],
    ship_names: frozenset[str],
    store: Any,
) -> tuple[list, dict[str, tuple[int, int]], dict[str, dict]]:
    """One site's round 1 (pure): per member of ``local_groups`` (the
    constant and locally checkable CFDs) its violations in this fragment;
    per general CFD this site ships for, the ``(count, bytes)`` of its
    pattern-matching tuples' (tid + X + B) projections, priced where the
    values live; per general CFD, the fragment's key summary."""
    local = store.check(local_groups)
    prices = PriceTable()
    shipments: dict[str, tuple[int, int]] = {}
    summaries: dict[str, dict] = {}
    for cfd in general_cfds:
        want_ship = cfd.name in ship_names
        shipment, summaries[cfd.name] = store.key_summary(cfd, want_ship, prices)
        if want_ship:
            shipments[cfd.name] = shipment
    return local, shipments, summaries


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
        stores = {site.site_id: site.fragment.store for site in self._cluster.sites()}
        coordinator = self._cluster.site_ids()[0]
        shipping_sites = {
            cfd.name: self._shipping_sites(cfd, coordinator)
            for cfd in self._general_cfds
        }
        tasks = []
        for site, store in stores.items():
            ship_names = frozenset(n for n, shippers in shipping_sites.items() if site in shippers)
            args = (self._local_groups, self._general_cfds, ship_names, store)
            tasks.append(SiteTask(site, _site_summary_task, args, label="batHor"))

        # Round 1, merged in site order: local verdicts, then per general CFD
        # the site's shipment total (one ledger entry for all its matching
        # tuples) and its summary, kept for round 2.
        by_site: dict[str, list[tuple[int, dict]]] = {cfd.name: [] for cfd in self._general_cfds}
        for result in self._cluster.scheduler.run(tasks):
            local, shipments, summaries = result.value
            mark_violations(violations, stores[result.site], self._local_groups, local)
            for cfd_name, (count, nbytes) in shipments.items():
                self._network.charge(
                    result.site,
                    coordinator,
                    MessageKind.PARTIAL_TUPLE,
                    count,
                    nbytes,
                    tag=cfd_name,
                )
            for cfd_name, summary in summaries.items():
                by_site[cfd_name].append((result.site, summary))

        # Round 2, one general CFD at a time: the sites holding a dirty key
        # return its tids, which are marked before the next CFD's round.
        for cfd in self._general_cfds:
            summaries = by_site.pop(cfd.name)
            folded = summarize(chain.from_iterable(s.items() for _site, s in summaries))
            dirty = {key for key, value in folded.items() if value is MULTI}
            tasks = [
                SiteTask(site, stores[site].dirty_tids, (cfd, mine), label="batHor")
                for site, summary in summaries
                if (mine := dirty.intersection(summary))
            ]
            for result in self._cluster.scheduler.run(tasks):
                violations._mark_all(result.value, cfd.name)
        return violations
