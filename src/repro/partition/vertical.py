"""Vertical fragmentation.

``D`` is partitioned into ``(D1, ..., Dn)`` with ``Di = pi_Xi(D)`` where
each attribute set ``Xi`` contains the key, and ``D`` is reconstructed
by joining the fragments on the key (Section 2.2).  Attributes may be
*replicated*, i.e. appear in more than one fragment — the planner of
Section 5 exploits replication to choose cheaper index locations.

A fragmented relation is held once: each ``Di`` is a read-only view of
``Xi`` over one resident copy of ``D``, so that copy is also the join.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.core.storage import ProjectionView
from repro.obs import profile as _prof
from repro.partition.migration import ColumnMove, MigrationPlan


class PartitionError(ValueError):
    """Raised when a partition scheme is inconsistent with its schema."""


@dataclass(frozen=True)
class VerticalFragment:
    """One vertical fragment: a named attribute set assigned to a site."""

    name: str
    site: int
    attributes: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.attributes:
            raise PartitionError(f"fragment {self.name!r} has no attributes")


class VerticalPartitioner:
    """A vertical partition scheme for a schema.

    Parameters
    ----------
    schema:
        The base relation schema.
    fragments:
        One entry per fragment: either a sequence of attribute names or
        a :class:`VerticalFragment`.  The key attribute is added to
        every fragment automatically.  Every non-key attribute must be
        covered by at least one fragment; attributes may appear in more
        than one fragment (replication).
    """

    def __init__(
        self,
        schema: Schema,
        fragments: Sequence[VerticalFragment | Sequence[str]],
    ):
        self._schema = schema
        normalized: list[VerticalFragment] = []
        for i, frag in enumerate(fragments):
            if isinstance(frag, VerticalFragment):
                attrs = schema.validate_attributes(frag.attributes)
                name, site = frag.name, frag.site
            else:
                attrs = schema.validate_attributes(frag)
                name, site = f"{schema.name}_V{i + 1}", i
            if schema.key not in attrs:
                attrs = (schema.key, *attrs)
            normalized.append(VerticalFragment(name, site, attrs))
        covered = {a for frag in normalized for a in frag.attributes}
        missing = [a for a in schema.attribute_names if a not in covered]
        if missing:
            raise PartitionError(
                f"vertical partition does not cover attributes {missing} of schema "
                f"{schema.name!r}"
            )
        sites = [frag.site for frag in normalized]
        if len(set(sites)) != len(sites):
            raise PartitionError("each vertical fragment must live on a distinct site")
        self._fragments = tuple(normalized)

    # -- introspection -----------------------------------------------------------

    @property
    def schema(self) -> Schema:
        return self._schema

    @property
    def fragments(self) -> tuple[VerticalFragment, ...]:
        return self._fragments

    @property
    def n_fragments(self) -> int:
        return len(self._fragments)

    def sites(self) -> list[int]:
        return [frag.site for frag in self._fragments]

    def fragment_for_site(self, site: int) -> VerticalFragment:
        for frag in self._fragments:
            if frag.site == site:
                return frag
        raise PartitionError(f"no vertical fragment on site {site}")

    def sites_with_attribute(self, attribute: str) -> list[int]:
        """All sites holding ``attribute`` (more than one under replication)."""
        return [frag.site for frag in self._fragments if attribute in frag.attributes]

    def home_site(self, attribute: str) -> int:
        """The first site holding ``attribute`` (its canonical location)."""
        sites = self.sites_with_attribute(attribute)
        if not sites:
            raise PartitionError(f"attribute {attribute!r} is not stored anywhere")
        return sites[0]

    def is_local(self, attributes: Iterable[str]) -> int | None:
        """Return a site storing *all* of ``attributes`` if one exists, else None.

        This is the test for case (2) of Section 4: a variable CFD with
        ``X ∪ {B} ⊆ Xi`` can be checked locally at site ``Si``.
        """
        wanted = set(attributes)
        for frag in self._fragments:
            if wanted <= set(frag.attributes):
                return frag.site
        return None

    # -- fragmentation ---------------------------------------------------------------

    def fragment(self, relation: Relation) -> "VerticalPartition":
        """Host ``relation`` as one resident copy with a view per site."""
        if relation.schema.attribute_names != self._schema.attribute_names:
            raise PartitionError(
                "relation schema does not match the partitioner's schema"
            )
        return VerticalPartition(self, relation.copy())

    # -- elastic re-planning -----------------------------------------------------------

    def replan(
        self,
        n_sites: int | None = None,
        scheme: "VerticalPartitioner | None" = None,
        reason: str = "scale",
    ) -> MigrationPlan:
        """Plan the minimal column migration to ``n_sites`` (or to ``scheme``).

        Scaling to ``n_sites`` builds a balanced attribute layout that
        keeps every attribute on its current home site whenever the
        balance cap allows, so only overflow attributes (and everything
        on retired sites) relocate.  The plan's ``column_moves`` list
        the attribute columns that must ship; attributes a site merely
        *stops* storing are dropped for free.
        """
        if (n_sites is None) == (scheme is None):
            raise PartitionError("replan(...) takes exactly one of n_sites or scheme")
        if scheme is not None:
            target = scheme
            if not isinstance(target, VerticalPartitioner):
                raise PartitionError(
                    f"replan target must be a VerticalPartitioner, not "
                    f"{type(target).__name__}"
                )
            if target.schema.attribute_names != self._schema.attribute_names:
                raise PartitionError("replan target schema does not match")
        else:
            target = self._balanced_target(n_sites)
        return self._plan_to_scheme(target, reason)

    def _balanced_target(self, n_sites: int) -> "VerticalPartitioner":
        if n_sites <= 0:
            raise PartitionError("need at least one site")
        non_key = self._schema.non_key_attributes()
        if n_sites > len(non_key):
            n_sites = max(1, len(non_key))
        cap = math.ceil(len(non_key) / n_sites)
        buckets: dict[int, list[str]] = {site: [] for site in range(n_sites)}
        leftover: list[str] = []
        for attr in non_key:
            home = self.home_site(attr)
            if home in buckets and len(buckets[home]) < cap:
                buckets[home].append(attr)
            else:
                leftover.append(attr)
        for attr in leftover:
            site = min(buckets, key=lambda s: (len(buckets[s]), s))
            buckets[site].append(attr)
        fragments = [
            VerticalFragment(
                f"{self._schema.name}_V{site + 1}",
                site,
                (self._schema.key, *attrs),
            )
            for site, attrs in sorted(buckets.items())
        ]
        return VerticalPartitioner(self._schema, fragments)

    def _plan_to_scheme(self, target: "VerticalPartitioner", reason: str) -> MigrationPlan:
        current, new = set(self.sites()), set(target.sites())
        moves: list[ColumnMove] = []
        for frag in target.fragments:
            stored = (
                set(self.fragment_for_site(frag.site).attributes)
                if frag.site in current
                else set()
            )
            for attr in frag.attributes:
                if attr not in stored:
                    moves.append(ColumnMove(attr, self.home_site(attr), frag.site))
        return MigrationPlan(
            kind="vertical",
            source=self,
            target=target,
            new_sites=tuple(sorted(new - current)),
            retired_sites=tuple(sorted(current - new)),
            column_moves=tuple(moves),
            reason=reason,
        )


class VerticalPartition:
    """One vertically fragmented relation: the resident relation, which
    every site reads, and per site a :class:`~repro.core.storage.ProjectionView`
    of its fragment's attributes over it.

    The paper charges every shipment to the ledger, never to a copy, so
    simulated sites share the one resident store and differ only in the
    attributes they may read.
    """

    def __init__(self, partitioner: VerticalPartitioner, resident: Relation):
        self._partitioner = partitioner
        self._resident = resident
        schema = partitioner.schema
        self._per_site: dict[int, Relation] = {}
        for frag in partitioner.fragments:
            fragment_schema = schema.project(frag.attributes, name=frag.name)
            self._per_site[frag.site] = Relation(
                fragment_schema,
                storage=ProjectionView(resident, fragment_schema.attribute_names),
            )

    @property
    def partitioner(self) -> VerticalPartitioner:
        return self._partitioner

    @property
    def resident(self) -> Relation:
        """The relation every fragment views (writes go here)."""
        return self._resident

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
        """The logical relation: the resident one itself, with no join.

        Every fragment is a view over it, so it is exactly the join of
        the fragments on the key, and reading it ships nothing.
        """
        if _prof.enabled:
            _prof.note("partition.reconstruct", 0.0, len(self._resident))
        return self._resident

    def total_tuples(self) -> int:
        """Total number of (partial) tuples the sites see."""
        return len(self._resident) * len(self._per_site)


def even_vertical_scheme(
    schema: Schema, n_fragments: int, replicate: Mapping[str, Sequence[int]] | None = None
) -> VerticalPartitioner:
    """Build a vertical scheme spreading non-key attributes evenly over sites.

    ``replicate`` optionally maps attribute names to extra site indices
    on which they should also be stored.
    """
    if n_fragments <= 0:
        raise PartitionError("need at least one fragment")
    non_key = schema.non_key_attributes()
    if n_fragments > len(non_key):
        n_fragments = max(1, len(non_key))
    buckets: list[list[str]] = [[] for _ in range(n_fragments)]
    for i, attr in enumerate(non_key):
        buckets[i % n_fragments].append(attr)
    if replicate:
        for attr, extra_sites in replicate.items():
            schema.validate_attributes([attr])
            for site in extra_sites:
                if not 0 <= site < n_fragments:
                    raise PartitionError(f"replication site {site} out of range")
                if attr not in buckets[site]:
                    buckets[site].append(attr)
    fragments = [
        VerticalFragment(f"{schema.name}_V{i + 1}", i, tuple([schema.key, *attrs]))
        for i, attrs in enumerate(buckets)
    ]
    return VerticalPartitioner(schema, fragments)
