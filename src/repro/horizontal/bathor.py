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
:class:`~repro.runtime.scheduler.SiteScheduler`: each task runs the
local checks, plans the shipments its site would make and pre-groups its
pattern-matching tuples by LHS key.  The coordinator then merges the
partial groups (grouping is associative, so the merged verdicts equal a
centralized pass over the reconstructed database) and charges the
planned shipments to the network — identical results and identical
shipment counts on every executor backend.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Iterable

from repro.core.cfd import CFD, UNNAMED, is_locally_checkable, split_local_general
from repro.core.detector import CentralizedDetector
from repro.core.tuples import Tuple
from repro.core.violations import ViolationSet
from repro.distributed.cluster import Cluster
from repro.distributed.message import MessageKind
from repro.distributed.serialization import PriceTable
from repro.obs import profile as _prof
from repro.runtime.executor import SiteTask


def _site_batch_task(
    local_cfds: list[CFD],
    general_cfds: list[CFD],
    ship_names: frozenset[str],
    tuples: "list[Tuple] | Any",
    fusion: bool = True,
) -> tuple[list, dict[str, tuple[int, int]], dict, bool]:
    """One site's whole batch-detection contribution (pure, picklable).

    ``tuples`` is the site's fragment: a tuple list for row storage, or
    the fragment relation itself when column-backed (the scans then run
    as vectorized kernels over the encoded columns, with the grouped
    LHS keys shared across all CFDs on the same attributes).

    Returns ``(local_violations, shipments, groups, compact)``:

    * per locally-checkable CFD, the tids violating it inside this
      fragment;
    * per general CFD this site must ship for, the ``(count, bytes)``
      total of its locally pattern-matching tuples' (tid + X + B)
      projections — two ints, priced here where the values live;
    * per general CFD, the fragment's partial LHS groups
      ``{lhs_key: {rhs_value: [tids]}}`` for the coordinator to merge
      (fragments are disjoint, so a tid is listed once).

    Column-backed fragments return the *compact* wire form instead
    (``compact=True``): local violations as row bitsets and groups as
    ``(singles, multis)`` — bare row indices for singleton ``(LHS key,
    RHS value)`` buckets, row bitsets for the rest — a few ints per
    group rather than decoded values and tid lists.  A fragment replica
    in a warm worker assigns row indices identical to the coordinator's
    copy (it is built from the coordinator's own full physical export
    plus its journal deltas), so the coordinator decodes every mask
    against its local store — compact results are what keep a
    shared-memory round's pickled bytes proportional to the *changes*,
    not the database.
    """
    from repro.columnar.store import column_store_of
    from repro.sqlstore.store import sql_store_of

    shipments: dict[str, tuple[int, int]] = {}
    groups: dict[str, dict] = {}
    store = column_store_of(tuples)
    if store is not None:
        from repro.columnar import kernels

        if fusion and len(local_cfds) > 1:
            from repro.rulefuse import fused_columnar_masks

            local_masks = [
                (cfd.name, mask)
                for cfd, mask in zip(
                    local_cfds, fused_columnar_masks(store, local_cfds)
                )
            ]
        else:
            local_masks = [
                (cfd.name, kernels.violation_mask(cfd, store)) for cfd in local_cfds
            ]
        for cfd in general_cfds:
            want_ship = cfd.name in ship_names
            ship, by_key = kernels.horizontal_batch_scan(store, cfd, want_ship)
            if want_ship:
                shipments[cfd.name] = ship
            groups[cfd.name] = by_key
        return local_masks, shipments, groups, True
    prices = PriceTable()
    sql_store = sql_store_of(tuples)
    if sql_store is not None:
        # SQL-backed fragments run every scan as a pushed-down query
        # and return the same decoded wire shapes as the row path.
        from repro.sqlstore import kernels as sql_kernels

        if fusion and len(local_cfds) > 1:
            from repro.rulefuse import fused_sql_violations

            local_violations = [
                (cfd.name, tids)
                for cfd, tids in zip(
                    local_cfds, fused_sql_violations(sql_store, local_cfds)
                )
            ]
        else:
            local_violations = [
                (cfd.name, sql_kernels.violations_of(cfd, sql_store))
                for cfd in local_cfds
            ]
        for cfd in general_cfds:
            want_ship = cfd.name in ship_names
            ship, by_key = sql_kernels.horizontal_batch_scan(
                sql_store, cfd, want_ship, prices
            )
            if want_ship:
                shipments[cfd.name] = ship
            groups[cfd.name] = by_key
        return local_violations, shipments, groups, False
    if fusion and len(local_cfds) > 1:
        from repro.rulefuse import fused_rows_violations

        local_violations = [
            (cfd.name, tids)
            for cfd, tids in zip(local_cfds, fused_rows_violations(local_cfds, tuples))
        ]
    else:
        local_violations = [
            (cfd.name, CentralizedDetector.violations_of(cfd, tuples))
            for cfd in local_cfds
        ]
    if _prof.enabled:
        _t0 = perf_counter()
    for cfd in general_cfds:
        want_ship = cfd.name in ship_names
        shipped: list[tuple] = []
        by_key = groups[cfd.name] = {}
        needed = cfd.attributes
        for t in tuples:
            if not cfd.lhs_matches(t):
                continue
            values = t.values_for(needed)
            if want_ship:
                shipped.append(values)
            by_key.setdefault(values[:-1], {}).setdefault(values[-1], []).append(t.tid)
        if want_ship:
            shipments[cfd.name] = prices.shipment(len(shipped), zip(*shipped))
    if _prof.enabled:
        _prof.note("shipment.row_scan", perf_counter() - _t0, len(tuples))
    return local_violations, shipments, groups, False


class HorizontalBatchDetector:
    """Recompute ``V(Sigma, D)`` over a horizontally partitioned cluster."""

    def __init__(self, cluster: Cluster, cfds: Iterable[CFD], fusion: bool = True):
        if not cluster.is_horizontal():
            raise ValueError("HorizontalBatchDetector requires a horizontal cluster")
        self._cluster = cluster
        self._network = cluster.network
        self._partitioner = cluster.horizontal_partitioner
        self._cfds = list(cfds)
        self._fusion = fusion
        for cfd in self._cfds:
            cfd.validate_against(self._partitioner.schema)
        self._local_cfds, self._general_cfds = split_local_general(
            self._cfds,
            lambda cfd: cfd.is_constant()
            or is_locally_checkable(cfd, self._partitioner),
        )

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

        from repro.columnar.store import column_store_of
        from repro.sqlstore.store import sql_store_of

        tasks = [
            SiteTask(
                site.site_id,
                _site_batch_task,
                (
                    self._local_cfds,
                    self._general_cfds,
                    frozenset(
                        name
                        for name, shippers in shipping_sites.items()
                        if site.site_id in shippers
                    ),
                    site.fragment
                    if column_store_of(site.fragment) is not None
                    or sql_store_of(site.fragment) is not None
                    else list(site.fragment),
                    self._fusion,
                ),
                label="batHor",
            )
            for site in sites
        ]
        results = self._cluster.scheduler.run(tasks)

        # Merge in site order: local verdicts first, then per general CFD the
        # site's shipment total (one ledger entry for all its matching
        # tuples) and the group union.  Compact groups stay in row space
        # on the wire and are decoded here against the coordinator's own
        # copy of the site's fragment (identical row indices by
        # construction).
        from repro.columnar.masks import iter_mask_rows, mask_to_tids

        stores = {
            site.site_id: column_store_of(site.fragment) for site in sites
        }
        general_by_name = {cfd.name: cfd for cfd in self._general_cfds}
        merged: dict[str, dict[tuple, dict[Any, list[Any]]]] = {
            cfd.name: {} for cfd in self._general_cfds
        }
        for result in results:
            local_violations, shipments, groups, compact = result.value
            store = stores[result.site] if compact else None
            for cfd_name, tids in local_violations:
                if compact:
                    tids = mask_to_tids(store, tids)
                for tid in tids:
                    violations.add(tid, cfd_name)
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
                cfd_name, by_key = groups.popitem()
                target = merged[cfd_name]
                if compact:
                    # Each bucket is (LHS key, RHS value)-uniform, so any
                    # member row of the local fragment copy names both.
                    cfd = general_by_name[cfd_name]
                    lhs = cfd.lhs
                    rhs = cfd.rhs
                    tid_at = store.tid_of_row
                    singles, multis = by_key
                    for r in singles:
                        key = tuple(store.value_at(r, a) for a in lhs)
                        slot = target.setdefault(key, {})
                        slot.setdefault(store.value_at(r, rhs), []).append(tid_at(r))
                    for mask in multis:
                        first = (mask & -mask).bit_length() - 1
                        key = tuple(store.value_at(first, a) for a in lhs)
                        slot = target.setdefault(key, {})
                        slot.setdefault(store.value_at(first, rhs), []).extend(
                            map(tid_at, iter_mask_rows(mask))
                        )
                    continue
                for key, by_rhs in by_key.items():
                    slot = target.setdefault(key, {})
                    for rhs_value, tids in by_rhs.items():
                        slot.setdefault(rhs_value, []).extend(tids)

        for cfd in self._general_cfds:
            for by_rhs in merged[cfd.name].values():
                if len(by_rhs) > 1:
                    for tids in by_rhs.values():
                        for tid in tids:
                            violations.add(tid, cfd.name)
        return violations
