"""Horizontal fragmentation.

``D`` is partitioned into ``(D1, ..., Dn)`` with ``Di = sigma_Fi(D)``
for Boolean predicates ``Fi``; the fragments are pairwise disjoint, all
share the base schema, and ``D`` is their union (Section 2.2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.core.tuples import Tuple
from repro.partition.migration import BucketMove, MigrationPlan
from repro.partition.predicates import (
    BucketMap,
    HashBucket,
    OrPredicate,
    Predicate,
    stable_hash,
)
from repro.partition.vertical import PartitionError


@dataclass(frozen=True)
class HorizontalFragment:
    """One horizontal fragment: a selection predicate assigned to a site."""

    name: str
    site: int
    predicate: Predicate


class HorizontalPartitioner:
    """A horizontal partition scheme for a schema.

    The scheme does not verify disjointness symbolically (predicates are
    opaque callables); instead :meth:`fragment` and :meth:`route_tuple`
    check it operationally and raise if a tuple matches several
    fragments or none at all.  A hash-family scheme (:meth:`hash_family`)
    owns every bucket exactly once by construction, so it routes with one
    hash and a bucket -> site table instead.
    """

    def __init__(
        self,
        schema: Schema,
        fragments: Sequence[HorizontalFragment | Predicate],
    ):
        self._schema = schema
        normalized: list[HorizontalFragment] = []
        for i, frag in enumerate(fragments):
            if isinstance(frag, HorizontalFragment):
                normalized.append(frag)
            else:
                normalized.append(
                    HorizontalFragment(f"{schema.name}_H{i + 1}", i, frag)
                )
        if not normalized:
            raise PartitionError("need at least one horizontal fragment")
        sites = [frag.site for frag in normalized]
        if len(set(sites)) != len(sites):
            raise PartitionError("each horizontal fragment must live on a distinct site")
        self._fragments = tuple(normalized)
        family = self.hash_family()
        self._hash_route: tuple[str, int, list[int]] | None = None
        if family is not None:
            attribute, n_buckets, per_site = family
            site_of_bucket = [0] * n_buckets
            for site, buckets in per_site.items():
                for bucket in buckets:
                    site_of_bucket[bucket] = site
            self._hash_route = (attribute, n_buckets, site_of_bucket)

    # -- introspection --------------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def fragments(self) -> tuple[HorizontalFragment, ...]:
        return self._fragments

    @property
    def n_fragments(self) -> int:
        return len(self._fragments)

    def sites(self) -> list[int]:
        return [frag.site for frag in self._fragments]

    def fragment_for_site(self, site: int) -> HorizontalFragment:
        for frag in self._fragments:
            if frag.site == site:
                return frag
        raise PartitionError(f"no horizontal fragment on site {site}")

    # -- routing ---------------------------------------------------------------------

    def route_tuple(self, t: Tuple) -> int:
        """The unique site whose predicate accepts ``t``."""
        if self._hash_route is not None:
            attribute, n_buckets, site_of_bucket = self._hash_route
            return site_of_bucket[stable_hash(t[attribute]) % n_buckets]
        matches = [frag.site for frag in self._fragments if frag.predicate(t)]
        if not matches:
            raise PartitionError(
                f"tuple {t.tid!r} matches no horizontal fragment predicate"
            )
        if len(matches) > 1:
            raise PartitionError(
                f"tuple {t.tid!r} matches several fragments {matches}; horizontal "
                "fragments must be disjoint"
            )
        return matches[0]

    def fragment(self, relation: Relation) -> "HorizontalPartition":
        """Split ``relation`` into per-site fragment relations.

        The relation's store routes every row in one pass (same
        predicates, same disjointness checks) and builds each fragment
        on its own backend.
        """
        parts = relation.store.split(self.route_tuple, self.sites())
        return HorizontalPartition(
            self,
            {
                frag.site: Relation(
                    Schema(frag.name, self._schema.attribute_names, self._schema.key),
                    storage=parts[frag.site],
                )
                for frag in self._fragments
            },
        )

    # -- elastic re-planning -----------------------------------------------------------

    def hash_family(self) -> tuple[str, int, dict[int, frozenset[int]]] | None:
        """``(attribute, n_buckets, site -> buckets)`` if this is a hash scheme.

        A scheme is *hash-family* when every fragment predicate is a
        :class:`HashBucket` or :class:`BucketMap` over the same
        attribute and bucket count, and together the fragments own every
        bucket exactly once.  Such schemes support bucket-granular
        re-planning (only reassigned buckets move); anything else is
        treated as an opaque predicate scheme.
        """
        attribute: str | None = None
        n_buckets = 0
        per_site: dict[int, frozenset[int]] = {}
        for frag in self._fragments:
            predicate = frag.predicate
            if isinstance(predicate, HashBucket):
                attr, n, buckets = (
                    predicate.attribute,
                    predicate.n_buckets,
                    frozenset({predicate.bucket}),
                )
            elif isinstance(predicate, BucketMap):
                attr, n, buckets = predicate.attribute, predicate.n_buckets, predicate.buckets
            else:
                return None
            if attribute is None:
                attribute, n_buckets = attr, n
            elif attr != attribute or n != n_buckets:
                return None
            per_site[frag.site] = buckets
        owned = [b for buckets in per_site.values() for b in buckets]
        if len(owned) != n_buckets or set(owned) != set(range(n_buckets)):
            return None
        return attribute, n_buckets, per_site

    @staticmethod
    def _target_sites(
        per_site: Mapping[int, frozenset[int]], n_sites: int
    ) -> list[int]:
        """Pick the target site ids, preferring the ids already deployed.

        Scaling out keeps every current site and mints fresh ids after
        the highest one; scaling in retires the sites holding the fewest
        buckets (ties: the highest id), so surviving sites keep the most
        data even on non-contiguous layouts (e.g. after a merge).
        """
        current = sorted(per_site)
        if n_sites >= len(current):
            next_id = current[-1] + 1 if current else 0
            fresh = range(next_id, next_id + n_sites - len(current))
            return sorted([*current, *fresh])
        keep = sorted(
            current, key=lambda s: (-len(per_site[s]), s)
        )[:n_sites]
        return sorted(keep)

    @staticmethod
    def _refine_buckets(
        per_site: dict[int, frozenset[int]], n_buckets: int, factor: int
    ) -> dict[int, frozenset[int]]:
        """Split every bucket ``b (mod n)`` into ``{b, b+n, ...} (mod factor*n)``.

        Refinement never moves a tuple: ``x % n == b`` iff
        ``x % (k*n) in {b, b+n, ..., b+(k-1)n}``.
        """
        if factor == 1:
            return dict(per_site)
        return {
            site: frozenset(b + i * n_buckets for b in buckets for i in range(factor))
            for site, buckets in per_site.items()
        }

    def _bucket_map_partitioner(
        self, attribute: str, n_buckets: int, per_site: Mapping[int, frozenset[int]]
    ) -> "HorizontalPartitioner":
        fragments = [
            HorizontalFragment(
                f"{self._schema.name}_H{i + 1}",
                site,
                BucketMap(attribute, n_buckets, per_site[site]),
            )
            for i, site in enumerate(sorted(per_site))
        ]
        return HorizontalPartitioner(self._schema, fragments)

    def replan(
        self,
        n_sites: int | None = None,
        scheme: "HorizontalPartitioner | None" = None,
        reason: str = "scale",
    ) -> MigrationPlan:
        """Plan the minimal migration to ``n_sites`` sites (or to ``scheme``).

        Hash-family schemes scale by bucket reassignment: surviving
        sites keep as many of their buckets as a balanced layout allows,
        and only the reassigned buckets (plus everything on retired
        sites) move.  Predicate schemes cannot be re-sized generically —
        use :meth:`split_site` / :meth:`merge_sites` or pass an explicit
        target ``scheme``.
        """
        if (n_sites is None) == (scheme is None):
            raise PartitionError("replan(...) takes exactly one of n_sites or scheme")
        if scheme is not None:
            return self._plan_to_scheme(scheme, reason)
        if n_sites <= 0:
            raise PartitionError("need at least one site")
        family = self.hash_family()
        if family is None:
            raise PartitionError(
                "replan(n_sites=...) requires a hash-family scheme (HashBucket/"
                "BucketMap fragments); predicate schemes re-plan via split_site(), "
                "merge_sites() or replan(scheme=...)"
            )
        attribute, n_buckets, per_site = family
        factor = max(1, math.ceil(n_sites / n_buckets))
        n_fine = n_buckets * factor
        per_site = self._refine_buckets(per_site, n_buckets, factor)

        targets = self._target_sites(per_site, n_sites)
        # Balanced quotas (floor or floor+1 buckets per site); the sites
        # currently holding the most buckets take the larger quotas so
        # surviving sites keep as much of their data as balance allows.
        base, extra = divmod(n_fine, n_sites)
        by_holdings = sorted(
            targets, key=lambda s: (-len(per_site.get(s, ())), s)
        )
        quota = {site: base for site in targets}
        for site in by_holdings[:extra]:
            quota[site] += 1
        assignment: dict[int, set[int]] = {site: set() for site in targets}
        pool: list[int] = []
        for site in sorted(per_site):
            buckets = sorted(per_site[site])
            if site in assignment:
                keep = buckets[: quota[site]]
                assignment[site].update(keep)
                pool.extend(buckets[quota[site]:])
            else:
                pool.extend(buckets)
        for bucket in sorted(pool):
            site = min(targets, key=lambda s: (len(assignment[s]) - quota[s], s))
            assignment[site].add(bucket)

        target = self._bucket_map_partitioner(
            attribute, n_fine, {s: frozenset(b) for s, b in assignment.items()}
        )
        # One move-diff implementation: _plan_to_scheme re-derives the
        # reassigned buckets (and new/retired sites) from the two schemes.
        return self._plan_to_scheme(target, reason)

    def rebalance_plan(
        self,
        bucket_loads: Mapping[int, float],
        n_buckets: int | None = None,
        reason: str = "rebalance",
    ) -> MigrationPlan:
        """Plan a skew-aware bucket reassignment keeping the site count.

        ``bucket_loads`` maps fine buckets (modulo ``n_buckets``, which
        must be a multiple of the scheme's current bucket count) to an
        observed load — typically update hits from a
        :class:`~repro.stats.collector.SiteLoadTracker`.  Buckets move
        greedily from the hottest site to the coldest while each move
        still shrinks the gap, so the plan touches only the buckets it
        must.
        """
        family = self.hash_family()
        if family is None:
            raise PartitionError(
                "rebalance_plan(...) requires a hash-family scheme "
                "(HashBucket/BucketMap fragments)"
            )
        attribute, current_n, per_site = family
        n_fine = n_buckets or current_n
        if n_fine % current_n:
            raise PartitionError(
                f"rebalance granularity {n_fine} must be a multiple of the "
                f"scheme's {current_n} buckets"
            )
        per_site = self._refine_buckets(per_site, current_n, n_fine // current_n)
        loads = {b: float(bucket_loads.get(b, 0.0)) for b in range(n_fine)}
        assignment = {site: set(buckets) for site, buckets in per_site.items()}
        site_load = {
            site: sum(loads[b] for b in buckets) for site, buckets in assignment.items()
        }
        sites = sorted(assignment)

        moves: list[BucketMove] = []
        # Shed load from the hottest sites first; a site whose buckets are
        # all unsplittably large (no move improves the pair) is frozen as
        # a *source* — think one ultra-hot key — and the next-hottest site
        # is balanced instead.  Every successful move strictly shrinks the
        # (hot, cold) load gap, so the loop terminates; guard regardless.
        frozen: set[int] = set()
        for _ in range(4 * n_fine):
            active = [s for s in sites if s not in frozen]
            if not active:
                break
            hot = max(active, key=lambda s: (site_load[s], -s))
            cold = min(sites, key=lambda s: (site_load[s], s))
            candidates = [
                b
                for b in assignment[hot]
                if loads[b] > 0.0 and site_load[cold] + loads[b] < site_load[hot]
            ]
            if hot == cold or not candidates:
                frozen.add(hot)
                continue
            bucket = max(candidates, key=lambda b: (loads[b], -b))
            assignment[hot].discard(bucket)
            assignment[cold].add(bucket)
            site_load[hot] -= loads[bucket]
            site_load[cold] += loads[bucket]
            moves.append(BucketMove(bucket, hot, cold))
            frozen.clear()

        target = self._bucket_map_partitioner(
            attribute, n_fine, {s: frozenset(b) for s, b in assignment.items()}
        )
        return MigrationPlan(
            kind="horizontal",
            source=self,
            target=target,
            bucket_moves=tuple(moves),
            reason=reason,
        )

    def split_site(
        self, site: int, predicates: Sequence[Predicate], reason: str = "split"
    ) -> MigrationPlan:
        """Split one fragment into several (the predicate-scheme scale-out path).

        The first predicate keeps the split site's id; the others get
        fresh site ids.  Together the new predicates must cover exactly
        the old fragment (checked operationally when the plan is
        applied, like all predicate disjointness).
        """
        self.fragment_for_site(site)
        if len(predicates) < 2:
            raise PartitionError("split_site(...) needs at least two predicates")
        next_id = max(self.sites()) + 1
        fragments: list[HorizontalFragment] = []
        for frag in self._fragments:
            if frag.site != site:
                fragments.append(frag)
                continue
            for i, predicate in enumerate(predicates):
                new_site = site if i == 0 else next_id
                if i > 0:
                    next_id += 1
                fragments.append(
                    HorizontalFragment(f"{frag.name}.{i + 1}", new_site, predicate)
                )
        target = HorizontalPartitioner(self._schema, fragments)
        return self._plan_to_scheme(target, reason)

    def merge_sites(
        self, sites: Sequence[int], into: int | None = None, reason: str = "merge"
    ) -> MigrationPlan:
        """Merge several fragments onto one site (the scale-in path).

        ``into`` defaults to the smallest merged site id.  Hash-family
        fragments merge by bucket union; other predicates merge into an
        :class:`OrPredicate` disjunction.
        """
        merged = sorted(set(sites))
        if len(merged) < 2:
            raise PartitionError("merge_sites(...) needs at least two sites")
        keep = into if into is not None else merged[0]
        if keep not in merged:
            raise PartitionError(f"target site {keep} is not among the merged {merged}")
        victims = [self.fragment_for_site(s) for s in merged]
        predicates = [frag.predicate for frag in victims]
        if all(isinstance(p, (HashBucket, BucketMap)) for p in predicates) and (
            len({(getattr(p, "attribute"), p.n_buckets) for p in predicates}) == 1
        ):
            buckets: set[int] = set()
            for p in predicates:
                buckets |= p.buckets if isinstance(p, BucketMap) else {p.bucket}
            merged_predicate: Predicate = BucketMap(
                predicates[0].attribute, predicates[0].n_buckets, buckets
            )
        else:
            merged_predicate = OrPredicate(predicates)
        fragments: list[HorizontalFragment] = []
        for frag in self._fragments:
            if frag.site == keep:
                fragments.append(
                    HorizontalFragment(frag.name, keep, merged_predicate)
                )
            elif frag.site not in merged:
                fragments.append(frag)
        target = HorizontalPartitioner(self._schema, fragments)
        return self._plan_to_scheme(target, reason)

    def _plan_to_scheme(
        self, target: "HorizontalPartitioner", reason: str
    ) -> MigrationPlan:
        if not isinstance(target, HorizontalPartitioner):
            raise PartitionError(
                f"replan target must be a HorizontalPartitioner, not "
                f"{type(target).__name__}"
            )
        if target.schema.attribute_names != self._schema.attribute_names:
            raise PartitionError("replan target schema does not match")
        current, new = set(self.sites()), set(target.sites())
        moves: tuple[BucketMove, ...] = ()
        mine, theirs = self.hash_family(), target.hash_family()
        if mine is not None and theirs is not None and mine[0] == theirs[0]:
            n_fine = math.lcm(mine[1], theirs[1])
            old_map = self._refine_buckets(mine[2], mine[1], n_fine // mine[1])
            new_map = self._refine_buckets(theirs[2], theirs[1], n_fine // theirs[1])
            old_owner = {b: s for s, bs in old_map.items() for b in bs}
            new_owner = {b: s for s, bs in new_map.items() for b in bs}
            moves = tuple(
                BucketMove(b, old_owner[b], new_owner[b])
                for b in sorted(old_owner)
                if new_owner[b] != old_owner[b]
            )
        return MigrationPlan(
            kind="horizontal",
            source=self,
            target=target,
            new_sites=tuple(sorted(new - current)),
            retired_sites=tuple(sorted(current - new)),
            bucket_moves=moves,
            reason=reason,
        )


class HorizontalPartition:
    """The materialized result of horizontally fragmenting one relation."""

    def __init__(
        self, partitioner: HorizontalPartitioner, per_site: Mapping[int, Relation]
    ):
        self._partitioner = partitioner
        self._per_site = dict(per_site)

    @property
    def partitioner(self) -> HorizontalPartitioner:
        return self._partitioner

    def fragment_at(self, site: int) -> Relation:
        try:
            return self._per_site[site]
        except KeyError:
            raise PartitionError(f"no fragment stored on site {site}") from None

    def sites(self) -> list[int]:
        return sorted(self._per_site)

    def __iter__(self):
        return iter(sorted(self._per_site.items()))

    def reconstruct(self) -> Relation:
        """Union all fragments back into the original relation.

        The result keeps the lowest site's storage backend, whose store
        appends the other fragments (column-backed fragments concatenate
        code arrays instead of inserting tuples).
        """
        schema = self._partitioner.schema
        fragments = [rel for _, rel in sorted(self._per_site.items())]
        if not fragments:
            return Relation(schema)
        base = Relation(schema, storage=fragments[0].store.project(schema.attribute_names))
        for rel in fragments[1:]:
            base._extend(rel)
        return base

    def total_tuples(self) -> int:
        return sum(len(rel) for rel in self._per_site.values())


def hash_horizontal_scheme(
    schema: Schema, n_fragments: int, attribute: str | None = None
) -> HorizontalPartitioner:
    """Build a horizontal scheme hashing ``attribute`` (default: the key) into buckets."""
    if n_fragments <= 0:
        raise PartitionError("need at least one fragment")
    attr = attribute or schema.key
    schema.validate_attributes([attr])
    fragments = [
        HorizontalFragment(
            f"{schema.name}_H{i + 1}", i, HashBucket(attr, n_fragments, i)
        )
        for i in range(n_fragments)
    ]
    return HorizontalPartitioner(schema, fragments)
