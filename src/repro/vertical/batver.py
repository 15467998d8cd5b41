"""``batVer``: the batch baseline for vertical partitions.

Following the heuristic of Fan et al. (ICDE 2010) that the paper
compares against, the batch detector recomputes ``V(Sigma, D)`` from
scratch: for every CFD it ships the relevant attribute columns (tid plus
the CFD's attributes stored at each site) to a coordinator site and
checks the CFD there.  Constant CFDs only ship the partial tuples whose
local projection matches the pattern; locally checkable variable CFDs
ship nothing.  Both the work and the shipment are proportional to |D|
(per CFD), which is exactly the behaviour the incremental algorithm
avoids.

Execution is split into two scheduler rounds: one pure task per site
plans the shipments the site would make (:func:`_site_ship_task`), then
one task per checking site runs its CFDs' rule groups against the
logical relation (:func:`~repro.core.detector.check_task`) — the
resident relation the fragments view, so reading it ships nothing.  The
coordinator charges the planned shipments to the network between the
rounds, so every executor backend yields the identical violation set and
identical shipment counts.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.cfd import CFD, UNNAMED
from repro.core.detector import check_task, mark_violations
from repro.core.violations import ViolationSet
from repro.distributed.cluster import Cluster
from repro.distributed.message import MessageKind
from repro.distributed.serialization import PriceTable
from repro.rulefuse import compile_rule_set
from repro.runtime.executor import SiteTask


def _site_ship_task(
    specs: list[tuple[str, list[str], dict[str, Any]]], fragment: Any
) -> dict[str, tuple[int, int]]:
    """Plan one site's shipments for every CFD (pure, picklable).

    ``specs`` carries ``(cfd_name, attributes, constants)`` per CFD the
    site ships for; the site ships the ``attributes`` projection of every
    tuple equal to ``constants`` on the attributes it pins.  For a
    constant CFD those are the LHS attributes the site holds, filtered
    by the pattern constants; for a general variable CFD, the columns
    the coordinator lacks, unfiltered.

    Returns, per CFD, the ``(count, bytes)`` total of the partial tuples
    the site ships for it — two ints, priced here where the values live
    (the fragment store's ``ship_scan``).
    """
    store = fragment.store
    prices = PriceTable()
    return {
        name: store.ship_scan(attributes, constants, prices)
        for name, attributes, constants in specs
    }


class VerticalBatchDetector:
    """Recompute ``V(Sigma, D)`` over a vertically partitioned cluster."""

    def __init__(self, cluster: Cluster, cfds: Iterable[CFD]):
        if not cluster.is_vertical():
            raise ValueError("VerticalBatchDetector requires a vertical cluster")
        self._cluster = cluster
        self._network = cluster.network
        self._partitioner = cluster.vertical_partitioner
        self._cfds = list(cfds)
        for cfd in self._cfds:
            cfd.validate_against(self._partitioner.schema)

    # -- shipment planning -----------------------------------------------------------

    def _coordinator_for(self, cfd: CFD) -> int:
        """The site already holding the most attributes of the CFD."""
        best_site = None
        best_cover = -1
        wanted = set(cfd.attributes)
        for frag in self._partitioner.fragments:
            cover = len(wanted & set(frag.attributes))
            if cover > best_cover:
                best_cover = cover
                best_site = frag.site
        assert best_site is not None
        return best_site

    def _variable_supplies(self, cfd: CFD, coordinator: int) -> dict[int, list[str]]:
        """Which columns each site ships to a general variable CFD's coordinator."""
        wanted = set(cfd.attributes)
        missing = wanted - set(self._partitioner.fragment_for_site(coordinator).attributes)
        supplies: dict[int, list[str]] = {}
        for frag in self._partitioner.fragments:
            if frag.site == coordinator or not missing:
                continue
            supplied = [a for a in frag.attributes if a in missing]
            if supplied:
                supplies[frag.site] = supplied
                missing -= set(supplied)
        return supplies

    def _constant_relevant(self, cfd: CFD, coordinator: int) -> dict[int, list[str]]:
        """Which LHS attributes each non-coordinator site checks and ships."""
        relevant: dict[int, list[str]] = {}
        for frag in self._partitioner.fragments:
            if frag.site == coordinator:
                continue
            attrs = [a for a in frag.attributes if a in cfd.lhs]
            if attrs:
                relevant[frag.site] = attrs
        return relevant

    # -- detection ------------------------------------------------------------------------

    def detect(self) -> ViolationSet:
        """Compute ``V(Sigma, D)`` from scratch, charging shipments to the network."""
        snapshot = self._cluster.reconstruct()
        violations = ViolationSet()

        # Plan, per site, the per-CFD shipments (metadata only; the task scans
        # the site's own partial tuples).
        specs: dict[int, list[tuple[str, list[str], dict[str, Any]]]] = {}
        coordinators: dict[str, int] = {}
        for cfd in self._cfds:
            if cfd.is_constant():
                coordinator = self._partitioner.home_site(cfd.rhs)
                coordinators[cfd.name] = coordinator
                pattern = cfd.pattern
                constants = {
                    a: pattern.entry(a)
                    for a in cfd.lhs
                    if pattern.entry(a) is not UNNAMED
                }
                for site, relevant in self._constant_relevant(cfd, coordinator).items():
                    specs.setdefault(site, []).append((cfd.name, relevant, constants))
            elif self._partitioner.is_local(cfd.attributes) is None:
                coordinator = self._coordinator_for(cfd)
                coordinators[cfd.name] = coordinator
                for site, supplied in self._variable_supplies(cfd, coordinator).items():
                    specs.setdefault(site, []).append((cfd.name, supplied, {}))

        ship_tasks = [
            SiteTask(
                site.site_id,
                _site_ship_task,
                (specs[site.site_id], site.fragment),
                label="batVer:ship",
            )
            for site in self._cluster.sites()
            if site.site_id in specs
        ]
        planned: dict[int, dict[str, tuple[int, int]]] = {
            result.site: result.value
            for result in self._cluster.scheduler.run(ship_tasks)
        }

        # Charge the shipments in the serial order (per CFD, per site: one
        # ledger entry for all the partial tuples the site ships), then
        # check every CFD against the snapshot in parallel.
        for cfd in self._cfds:
            coordinator = coordinators.get(cfd.name)
            if coordinator is None:
                continue
            for frag in self._partitioner.fragments:
                shipment = planned.get(frag.site, {}).get(cfd.name)
                if shipment is not None:
                    count, nbytes = shipment
                    self._network.charge(
                        frag.site,
                        coordinator,
                        MessageKind.PARTIAL_TUPLE,
                        count,
                        nbytes,
                        tag=cfd.name,
                    )

        by_check_site: dict[int, list[CFD]] = {}
        for cfd in self._cfds:
            site = coordinators.get(cfd.name, self._partitioner.home_site(cfd.rhs))
            by_check_site.setdefault(site, []).append(cfd)
        check_groups = {
            site: compile_rule_set(cfds)
            for site, cfds in sorted(by_check_site.items())
        }
        check_tasks = [
            SiteTask(site, check_task, (snapshot, groups), label="batVer:check")
            for site, groups in check_groups.items()
        ]
        results = self._cluster.scheduler.run(check_tasks)
        for groups, result in zip(check_groups.values(), results):
            mark_violations(violations, snapshot.store, groups, result.value)
        return violations
