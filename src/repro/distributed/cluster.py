"""The simulated cluster: a set of sites sharing one network.

A :class:`Cluster` is built from a partition (vertical or horizontal)
and is the object the detectors operate on.  It knows which
partitioning produced it, owns the :class:`Network` used for all
cross-site shipments, and hands out the logical database its sites
hold (:meth:`Cluster.reconstruct`).
"""

from __future__ import annotations

from typing import Any, Iterator, Union

from repro.core.relation import Relation, RelationError
from repro.core.schema import Schema
from repro.core.tuples import Tuple
from repro.distributed.network import Network
from repro.distributed.serialization import ship_fragment
from repro.distributed.site import Site
from repro.partition.horizontal import HorizontalPartition, HorizontalPartitioner
from repro.partition.migration import MigrationPlan, MigrationResult
from repro.partition.vertical import VerticalPartition, VerticalPartitioner
from repro.runtime.scheduler import SiteScheduler


class ClusterError(RuntimeError):
    """Raised on invalid cluster configurations or unknown sites."""


def _validate_site_ids(site_ids: list) -> None:
    """Custom schemes may emit any ids; reject negatives and duplicates."""
    bad = sorted(
        {s for s in site_ids if not isinstance(s, int) or isinstance(s, bool) or s < 0},
        key=repr,
    )
    if bad:
        raise ClusterError(
            f"site ids must be non-negative integers; scheme emitted {bad}"
        )
    seen: set[int] = set()
    duplicates: set[int] = set()
    for site_id in site_ids:
        if site_id in seen:
            duplicates.add(site_id)
        seen.add(site_id)
    if duplicates:
        raise ClusterError(
            f"site ids must be unique; scheme emitted duplicates {sorted(duplicates)}"
        )


class Cluster:
    """A set of sites plus the shared network and site scheduler."""

    def __init__(
        self,
        partition: Union[VerticalPartition, HorizontalPartition],
        network: Network | None = None,
        scheduler: SiteScheduler | None = None,
    ):
        self._partition = partition
        self._network = network or Network()
        self._scheduler = scheduler or SiteScheduler()
        entries = list(partition)
        _validate_site_ids([site_id for site_id, _ in entries])
        self._sites: dict[int, Site] = {}
        for site_id, fragment in entries:
            self._sites[site_id] = Site(site_id, fragment)
        if not self._sites:
            raise ClusterError("a cluster needs at least one site")

    # -- construction helpers --------------------------------------------------------

    @classmethod
    def from_vertical(
        cls,
        partitioner: VerticalPartitioner,
        relation: Relation,
        network: Network | None = None,
        scheduler: SiteScheduler | None = None,
    ) -> "Cluster":
        """Fragment ``relation`` vertically and host the fragments."""
        return cls(partitioner.fragment(relation), network, scheduler)

    @classmethod
    def from_horizontal(
        cls,
        partitioner: HorizontalPartitioner,
        relation: Relation,
        network: Network | None = None,
        scheduler: SiteScheduler | None = None,
    ) -> "Cluster":
        """Fragment ``relation`` horizontally and host the fragments."""
        return cls(partitioner.fragment(relation), network, scheduler)

    # -- introspection -----------------------------------------------------------------

    @property
    def network(self) -> Network:
        return self._network

    @property
    def scheduler(self) -> SiteScheduler:
        """The scheduler detectors submit their per-site task rounds to."""
        return self._scheduler

    @property
    def partition(self) -> Union[VerticalPartition, HorizontalPartition]:
        return self._partition

    def is_vertical(self) -> bool:
        return isinstance(self._partition, VerticalPartition)

    def is_horizontal(self) -> bool:
        return isinstance(self._partition, HorizontalPartition)

    @property
    def vertical_partitioner(self) -> VerticalPartitioner:
        if not self.is_vertical():
            raise ClusterError("cluster is not vertically partitioned")
        return self._partition.partitioner  # type: ignore[union-attr]

    @property
    def horizontal_partitioner(self) -> HorizontalPartitioner:
        if not self.is_horizontal():
            raise ClusterError("cluster is not horizontally partitioned")
        return self._partition.partitioner  # type: ignore[union-attr]

    def site(self, site_id: int) -> Site:
        try:
            return self._sites[site_id]
        except KeyError:
            raise ClusterError(f"no site with id {site_id}") from None

    def sites(self) -> list[Site]:
        return [self._sites[i] for i in sorted(self._sites)]

    def site_ids(self) -> list[int]:
        return sorted(self._sites)

    def __len__(self) -> int:
        return len(self._sites)

    def __iter__(self) -> Iterator[Site]:
        return iter(self.sites())

    # -- the logical database ------------------------------------------------------------

    def reconstruct(self) -> Relation:
        """The logical database the sites hold right now.

        On a vertical deployment this is the resident relation every
        fragment views: free, and it ships nothing.  On a horizontal one
        it is the union of the site fragments, built afresh.
        """
        if self.is_vertical():
            return self._partition.reconstruct()
        partitioner = self.horizontal_partitioner
        rebuilt = HorizontalPartition(
            partitioner, {s.site_id: s.fragment for s in self.sites()}
        )
        return rebuilt.reconstruct()

    def total_tuples(self) -> int:
        return sum(len(site.fragment) for site in self.sites())

    # -- elasticity -----------------------------------------------------------------------

    def refresh_fragments(self, relation: Relation) -> None:
        """Re-host ``relation`` under the *unchanged* scheme (free, no shipment).

        Strategies whose authoritative state is the logical relation
        (the batch baselines) leave site fragments stale between
        detections; before a migration the session brings the fragments
        current.  The layout does not change, so by the paper's model —
        updates are delivered to their owning sites for free — nothing
        is charged.
        """
        partition = self._partition.partitioner.fragment(relation)
        for site_id, fragment in partition:
            self._sites[site_id].replace_fragment(fragment)
        self._partition = partition

    def deliver_updates(self, batch: Any) -> None:
        """Apply an update batch straight to the site fragments, in place.

        The fragment-level twin of ``UpdateBatch.apply_in_place`` on the
        logical relation: each update lands at its owning site(s) — free
        of charge, exactly the paper's delivery model; on a vertical
        deployment that is one write to the resident relation all the
        fragments view — with the same
        up-front validation (a duplicate insertion raises before
        anything mutates) and the same end state as re-fragmenting the
        updated relation.  Crucially the fragment *objects* survive, so
        warm per-site executor state (shm-resident worker replicas)
        stays valid and later rounds ship only the deltas journalled by
        these mutations.
        """
        if self.is_horizontal():
            self._deliver_horizontal(batch)
        else:
            self._deliver_vertical(batch)

    def _deliver_horizontal(self, batch: Any) -> None:
        partitioner = self.horizontal_partitioner
        sites = self.sites()
        seen: dict[Any, bool] = {}
        routed: list[tuple[Any, int | None]] = []
        for update in batch:
            tid = update.tid
            exists = seen.get(tid)
            if exists is None:
                exists = any(tid in site.fragment for site in sites)
            if update.is_insert():
                if exists:
                    raise RelationError(
                        f"duplicate tid {tid!r} in relation "
                        f"{partitioner.schema.name!r}"
                    )
                # Routing during validation keeps delivery atomic: an
                # unroutable insert raises before any fragment mutates.
                routed.append((update, partitioner.route_tuple(update.tuple)))
                seen[tid] = True
            else:
                routed.append((update, None))
                seen[tid] = False
        for update, destination in routed:
            if destination is None:
                for site in sites:
                    if site.fragment.discard(update.tid) is not None:
                        break
            else:
                self._sites[destination].fragment.insert(update.tuple)

    def _deliver_vertical(self, batch: Any) -> None:
        # Every fragment views the resident relation: one write serves all.
        batch.apply_in_place(self._partition.resident)

    def _check_plan(self, plan: MigrationPlan) -> None:
        expected = "vertical" if self.is_vertical() else "horizontal"
        if plan.kind != expected:
            raise ClusterError(
                f"cannot apply a {plan.kind} migration plan to a {expected} cluster"
            )
        # The same validation a cold build gets: a target scheme with
        # negative/duplicate site ids must fail *before* anything ships,
        # not on the next strategy rebuild.
        _validate_site_ids(plan.target.sites())
        current = self._partition.partitioner
        if plan.source is not current and (
            plan.source.schema.attribute_names != current.schema.attribute_names
            or plan.source.sites() != current.sites()
        ):
            raise ClusterError(
                "migration plan was computed against a different deployment "
                f"(plan sites {plan.source.sites()}, cluster sites {self.site_ids()})"
            )

    def apply_migration(self, plan: MigrationPlan) -> MigrationResult:
        """Re-deploy to ``plan.target``, shipping only what must move.

        Sites are added and retired in place (the cluster object — and
        its network and scheduler — survive), and every moved fragment
        piece is charged to the cluster :class:`Network` with
        ``tag="migration"``, so elasticity costs land in
        :class:`~repro.distributed.network.NetworkStats` like any other
        shipment.  Returns a :class:`MigrationResult` whose ``moved``
        map lists the tuples that crossed each ``(from, to)`` edge.
        """
        self._check_plan(plan)
        sites_before = tuple(self.site_ids())
        stats_before = self._network.stats()
        if self.is_horizontal():
            moved = self._migrate_horizontal(plan)
        else:
            moved = self._migrate_vertical(plan)
        cost = self._network.stats().diff(stats_before)
        return MigrationResult(
            plan=plan,
            sites_before=sites_before,
            sites_after=tuple(self.site_ids()),
            tuples_moved=sum(len(ts) for ts in moved.values()),
            bytes_shipped=cost.bytes,
            messages=cost.messages,
            moved=moved,
        )

    @staticmethod
    def _moved_bucket_map(
        source: HorizontalPartitioner, target: HorizontalPartitioner
    ) -> tuple[str, int, dict[int, int]] | None:
        """``(attribute, n_fine, bucket -> new site)`` for reassigned buckets.

        Only hash-family pairs over the same attribute support the
        bucket-granular fast path; the map holds exactly the buckets
        whose owner changes, so unmoved tuples cost one hash lookup and
        a genuinely empty migration touches nothing.
        """
        import math

        mine, theirs = source.hash_family(), target.hash_family()
        if mine is None or theirs is None or mine[0] != theirs[0]:
            return None
        n_fine = math.lcm(mine[1], theirs[1])
        old = HorizontalPartitioner._refine_buckets(mine[2], mine[1], n_fine // mine[1])
        new = HorizontalPartitioner._refine_buckets(
            theirs[2], theirs[1], n_fine // theirs[1]
        )
        old_owner = {b: s for s, bs in old.items() for b in bs}
        new_owner = {b: s for s, bs in new.items() for b in bs}
        moved = {
            b: new_owner[b] for b in old_owner if new_owner[b] != old_owner[b]
        }
        return mine[0], n_fine, moved

    def _migrate_horizontal(
        self, plan: MigrationPlan
    ) -> dict[tuple[int, int], tuple[Tuple, ...]]:
        target: HorizontalPartitioner = plan.target
        source: HorizontalPartitioner = self._partition.partitioner
        moves: dict[tuple[int, int], list[Tuple]] = {}
        fast = self._moved_bucket_map(source, target)
        if fast is not None:
            attribute, n_fine, moved_buckets = fast
            if moved_buckets:
                from repro.partition.predicates import stable_hash

                for site in self.sites():
                    for t in list(site.fragment):
                        dest = moved_buckets.get(stable_hash(t[attribute]) % n_fine)
                        if dest is not None and dest != site.site_id:
                            moves.setdefault((site.site_id, dest), []).append(t)
        else:
            for site in self.sites():
                for t in list(site.fragment):
                    dest = target.route_tuple(t)
                    if dest != site.site_id:
                        moves.setdefault((site.site_id, dest), []).append(t)

        schema = target.schema
        storage = next(iter(self._sites.values())).fragment.storage
        per_site: dict[int, Relation] = {}
        for frag in target.fragments:
            if frag.site in self._sites:
                per_site[frag.site] = self._sites[frag.site].fragment
            else:
                per_site[frag.site] = Relation(
                    Schema(frag.name, schema.attribute_names, schema.key),
                    storage=storage,
                )

        for (src, dst), tuples in sorted(moves.items()):
            shipment = Relation(
                Schema(f"{schema.name}_mig", schema.attribute_names, schema.key),
                storage=storage,
            )
            for t in tuples:
                shipment.insert(t)
            ship_fragment(self._network, src, dst, shipment, tag="migration")
            source = self._sites[src].fragment
            for t in tuples:
                source.discard(t.tid)
                per_site[dst].insert(t)

        self._partition = HorizontalPartition(target, per_site)
        self._rebind_sites(per_site)
        return {edge: tuple(tuples) for edge, tuples in sorted(moves.items())}

    def _migrate_vertical(
        self, plan: MigrationPlan
    ) -> dict[tuple[int, int], tuple[Any, ...]]:
        """Re-view the resident relation under ``plan.target``, charging
        each column a site newly stores as shipped from its old home."""
        target: VerticalPartitioner = plan.target
        source = self._partition.partitioner
        resident = self._partition.resident
        every_tid = tuple(resident.tids())
        current_sites = set(self.site_ids())
        moved: dict[tuple[int, int], tuple[Any, ...]] = {}
        for frag in target.fragments:
            stored = (
                set(source.fragment_for_site(frag.site).attributes)
                if frag.site in current_sites
                else set()
            )
            by_source: dict[int, list[str]] = {}
            for a in frag.attributes:
                if a not in stored:
                    by_source.setdefault(source.home_site(a), []).append(a)
            for src, attrs in sorted(by_source.items()):
                ship_fragment(
                    self._network, src, frag.site, self._sites[src].fragment,
                    attributes=attrs, tag="migration",
                )
                moved[(src, frag.site)] = every_tid

        self._partition = VerticalPartition(target, resident)
        self._rebind_sites(dict(self._partition))
        return moved

    def _rebind_sites(self, per_site: dict[int, Relation]) -> None:
        """Add/retire/update :class:`Site` objects after a migration."""
        for site_id in list(self._sites):
            if site_id not in per_site:
                del self._sites[site_id]
        for site_id, fragment in per_site.items():
            existing = self._sites.get(site_id)
            if existing is None:
                self._sites[site_id] = Site(site_id, fragment)
            elif existing.fragment is not fragment:
                existing.replace_fragment(fragment)
        if not self._sites:
            raise ClusterError("migration retired every site")

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        flavour = "vertical" if self.is_vertical() else "horizontal"
        return f"Cluster({flavour}, {len(self._sites)} sites, {self.total_tuples()} stored tuples)"
