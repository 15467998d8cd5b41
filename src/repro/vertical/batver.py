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
one pure task per CFD checks it against the reconstructed snapshot
(:func:`_check_cfd_task`).  The coordinator charges the planned
shipments to the network between the rounds, so every executor backend
yields the identical violation set and identical shipment counts.
"""

from __future__ import annotations

from typing import Any, Iterable

from repro.core.cfd import CFD, UNNAMED
from repro.core.detector import CentralizedDetector
from repro.core.tuples import Tuple
from repro.core.violations import ViolationSet
from repro.distributed.cluster import Cluster
from repro.distributed.message import MessageKind
from repro.distributed.serialization import PriceTable
from repro.runtime.executor import SiteTask


def _site_ship_task(
    constant_specs: list[tuple[str, list[str], dict[str, Any]]],
    variable_specs: list[tuple[str, list[str]]],
    tuples: "list[Tuple] | Any",
) -> dict[str, tuple[int, int]]:
    """Plan one site's shipments for every CFD (pure, picklable).

    ``constant_specs`` carries ``(cfd_name, relevant_lhs_attrs,
    constants)`` for each constant CFD the site holds LHS attributes of:
    tuples whose local projection matches the pattern ship their
    ``relevant`` attributes.  ``variable_specs`` carries ``(cfd_name,
    supplied_attrs)`` for each general variable CFD this site supplies
    columns to: every tuple ships its ``supplied`` projection.

    ``tuples`` is the site's fragment: a tuple list for row storage, or
    the fragment relation itself when column- or SQL-backed.

    Returns, per CFD, the ``(count, bytes)`` total of the partial tuples
    the site ships for it — two ints, priced here where the values live
    and set-at-a-time: from the dictionaries' cached per-code sizes on
    columnar fragments, with one estimate per distinct value
    (:class:`PriceTable`) on rows and SQL.
    """
    from repro.columnar.store import column_store_of
    from repro.sqlstore.store import sql_store_of

    shipments: dict[str, tuple[int, int]] = {}
    store = column_store_of(tuples)
    if store is not None:
        from repro.columnar import kernels

        for cfd_name, relevant, constants in constant_specs:
            shipments[cfd_name] = kernels.constant_ship_scan(store, relevant, constants)
        for cfd_name, supplied in variable_specs:
            shipments[cfd_name] = kernels.project_ship_scan(store, supplied)
        return shipments
    prices = PriceTable()
    sql_store = sql_store_of(tuples)
    if sql_store is not None:
        # SQL-backed fragments push the match filter and projection
        # down; only the projected values come back to price.
        from repro.sqlstore import kernels as sql_kernels

        for cfd_name, relevant, constants in constant_specs:
            shipments[cfd_name] = sql_kernels.constant_ship_scan(
                sql_store, relevant, constants, prices
            )
        for cfd_name, supplied in variable_specs:
            shipments[cfd_name] = sql_kernels.project_ship_scan(
                sql_store, supplied, prices
            )
        return shipments
    for cfd_name, relevant, constants in constant_specs:
        tested = [a for a in relevant if a in constants]
        shipped = [
            t.values_for(relevant)
            for t in tuples
            if all(t[a] == constants[a] for a in tested)
        ]
        shipments[cfd_name] = prices.shipment(len(shipped), zip(*shipped))
    for cfd_name, supplied in variable_specs:
        shipped = [t.values_for(supplied) for t in tuples]
        shipments[cfd_name] = prices.shipment(len(shipped), zip(*shipped))
    return shipments


def _check_cfds_task(
    cfds: list[CFD], tuples: "list[Tuple] | Any", fusion: bool = True
) -> list[set[Any]]:
    """``V(phi, D)`` for each CFD checked at one coordinator site (pure).

    Bundling a site's CFDs into one task ships the snapshot across the
    process backend's pickle boundary once per site, not once per CFD.
    With fusion (the default) the bundled CFDs are further compiled into
    same-LHS groups and validated one pass per group; results stay
    violation-identical to the per-rule loop on every backend.
    """
    if fusion and len(cfds) > 1:
        from repro.rulefuse import fused_violations

        return fused_violations(cfds, tuples)
    return [CentralizedDetector.violations_of(cfd, tuples) for cfd in cfds]


class VerticalBatchDetector:
    """Recompute ``V(Sigma, D)`` over a vertically partitioned cluster."""

    def __init__(self, cluster: Cluster, cfds: Iterable[CFD], fusion: bool = True):
        if not cluster.is_vertical():
            raise ValueError("VerticalBatchDetector requires a vertical cluster")
        self._cluster = cluster
        self._network = cluster.network
        self._partitioner = cluster.vertical_partitioner
        self._cfds = list(cfds)
        self._fusion = fusion
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
        from repro.columnar.store import column_store_of
        from repro.sqlstore.store import sql_store_of

        reconstructed = self._cluster.reconstruct()
        snapshot: Any = (
            reconstructed
            if column_store_of(reconstructed) is not None
            or sql_store_of(reconstructed) is not None
            else list(reconstructed)
        )
        violations = ViolationSet()

        # Plan, per site, the per-CFD shipments (metadata only; the task scans
        # the site's own partial tuples).
        constant_specs: dict[int, list[tuple[str, list[str], dict[str, Any]]]] = {}
        variable_specs: dict[int, list[tuple[str, list[str]]]] = {}
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
                    constant_specs.setdefault(site, []).append(
                        (cfd.name, relevant, constants)
                    )
            elif self._partitioner.is_local(cfd.attributes) is None:
                coordinator = self._coordinator_for(cfd)
                coordinators[cfd.name] = coordinator
                for site, supplied in self._variable_supplies(cfd, coordinator).items():
                    variable_specs.setdefault(site, []).append((cfd.name, supplied))

        ship_tasks = [
            SiteTask(
                site.site_id,
                _site_ship_task,
                (
                    constant_specs.get(site.site_id, []),
                    variable_specs.get(site.site_id, []),
                    site.fragment
                    if column_store_of(site.fragment) is not None
                    or sql_store_of(site.fragment) is not None
                    else list(site.fragment),
                ),
                label="batVer:ship",
            )
            for site in self._cluster.sites()
            if site.site_id in constant_specs or site.site_id in variable_specs
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
        check_tasks = [
            SiteTask(
                site,
                _check_cfds_task,
                (cfds, snapshot, self._fusion),
                label="batVer:check",
            )
            for site, cfds in sorted(by_check_site.items())
        ]
        for (_site, cfds), result in zip(
            sorted(by_check_site.items()), self._cluster.scheduler.run(check_tasks)
        ):
            for cfd, tids in zip(cfds, result.value):
                for tid in tids:
                    violations.add(tid, cfd.name)
        return violations
