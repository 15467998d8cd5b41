"""Building HEVs: the naive per-CFD chains and the ``optVer`` heuristic.

Section 5 of the paper shows that choosing *which* HEVs to build, *where*
to place them and *how* to share them among CFDs changes the number of
eqids shipped per unit update, formalises minimising that number as an
NP-complete optimization problem (minimum eqid shipment), and gives the
heuristic ``optVer`` (Fig. 7).  This module implements:

* :func:`naive_chain_plan` — the unoptimized baseline: every CFD gets its
  own chain of prefix HEVs (no sharing of non-base HEVs between CFDs),
  corresponding to Fig. 6(a);
* :class:`HEVPlanner` — ``optVer``: initialise with the HEVs required by
  the IDX keys, expand with shared-intersection HEVs and base HEVs,
  place every HEV with ``findLoc``, then greedily remove redundant HEVs
  while keeping every IDX key computable, retaining the solution with
  the fewest eqid shipments;
* :func:`hev_plan` — the plan every incremental vertical detector runs
  unless the caller supplies one: ``optVer`` over the primary placement.
"""

from __future__ import annotations

from collections import Counter
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from repro.core.cfd import CFD
from repro.indexes.equivalence import EqidRegistry
from repro.indexes.hev import CFDPlanEntry, HEVNode, HEVPlan
from repro.partition.replication import ReplicationScheme
from repro.partition.vertical import VerticalPartitioner
from repro.planner.cost import CostVector, hev_plan_cost


def _plannable(cfds: Iterable[CFD], partitioner: VerticalPartitioner) -> list[CFD]:
    """The CFDs that actually need HEVs: variable CFDs not locally checkable."""
    selected = []
    for cfd in cfds:
        if cfd.is_constant():
            continue
        if partitioner.is_local(cfd.attributes) is not None:
            continue
        selected.append(cfd)
    return selected


def _attribute_order(attrs: Sequence[str], replication: ReplicationScheme) -> list[str]:
    """Deterministic attribute order used when chaining prefix HEVs."""
    return sorted(attrs, key=lambda a: (min(replication.sites_of(a)), a))


def naive_chain_plan(
    cfds: Iterable[CFD],
    replication: ReplicationScheme | VerticalPartitioner,
    registry: EqidRegistry | None = None,
) -> HEVPlan:
    """The unoptimized plan: independent prefix chains per CFD (Fig. 6(a)).

    Base HEVs (one per attribute) are shared by all CFDs, as in the
    paper; non-base HEVs are private to each CFD even when two CFDs
    share a prefix, which is exactly what "no sharing between the HEVs
    of different CFDs" means.
    """
    if isinstance(replication, VerticalPartitioner):
        replication = ReplicationScheme(replication)
    partitioner = replication.partitioner
    base_nodes: dict[str, HEVNode] = {}

    def base(attr: str) -> HEVNode:
        if attr not in base_nodes:
            site = min(replication.sites_of(attr))
            base_nodes[attr] = HEVNode((attr,), site, label=f"H_{attr}")
        return base_nodes[attr]

    entries: dict[str, CFDPlanEntry] = {}
    nodes: list[HEVNode] = []
    for cfd in _plannable(cfds, partitioner):
        ordered = _attribute_order(cfd.lhs, replication)
        previous: HEVNode | None = None
        for i, attr in enumerate(ordered):
            if i == 0:
                previous = base(attr)
                continue
            site_candidates = replication.sites_of(attr)
            site = min(site_candidates)
            node = HEVNode(
                tuple(ordered[: i + 1]),
                site,
                label=f"H_{'_'.join(ordered[: i + 1])}@{cfd.name}",
            )
            node.inputs = [previous, base(attr)]
            nodes.append(node)
            previous = node
        assert previous is not None
        entries[cfd.name] = CFDPlanEntry(cfd, previous, base(cfd.rhs))
    nodes.extend(base_nodes.values())
    return HEVPlan(nodes, entries, registry)


class HEVPlanner:
    """The ``optVer`` heuristic (Fig. 7 of the paper).

    Parameters
    ----------
    partitioner:
        The vertical partition scheme.
    replication:
        Optional replication scheme; defaults to the partitioner's
        primary placement only.
    beam_width:
        The parameter ``k`` of the paper: how many candidate solutions
        are retained at each step of the finalization search.
    max_rounds:
        Safety bound on the number of removal rounds (the search also
        stops as soon as no removal improves the plan).
    """

    def __init__(
        self,
        partitioner: VerticalPartitioner,
        replication: ReplicationScheme | None = None,
        beam_width: int = 4,
        max_rounds: int = 25,
    ):
        self._partitioner = partitioner
        self._replication = replication or ReplicationScheme(partitioner)
        self._beam_width = max(1, beam_width)
        self._max_rounds = max(1, max_rounds)

    # -- findLoc -------------------------------------------------------------------

    def _find_location(self, attrs: frozenset[str], placed: Counter) -> int:
        """``findLoc``: the site covering the most of ``attrs`` locally,
        breaking ties by how many already-placed HEVs reside there."""
        best_site = None
        best_score: tuple[int, int, int] | None = None
        for site in self._partitioner.sites():
            local = self._replication.attributes_at(site)
            coverage = len(attrs & local)
            score = (coverage, placed.get(site, 0), -site)
            if best_score is None or score > best_score:
                best_score = score
                best_site = site
        assert best_site is not None
        return best_site

    def _base_location(self, attr: str, placed: Counter) -> int:
        """Base HEVs must live where the raw attribute is stored."""
        candidates = sorted(self._replication.sites_of(attr))
        best = max(candidates, key=lambda s: (placed.get(s, 0), -s))
        return best

    # -- input resolution and cost -----------------------------------------------------

    @staticmethod
    def _resolve_inputs(nodes: list[HEVNode]) -> bool:
        """Greedily pick inputs for every non-base node from the given pool.

        Inputs must have strictly smaller attribute sets contained in the
        node's attributes; at each step the candidate covering the most
        still-uncovered attributes is taken (preferring co-located and
        larger candidates on ties).  Returns False if some node cannot be
        covered with the pool.
        """
        by_size = sorted(nodes, key=lambda n: len(n.attributes))
        for node in by_size:
            if node.is_base:
                node.inputs = []
                continue
            target = set(node.attributes)
            uncovered = set(target)
            candidates = [
                other
                for other in nodes
                if other is not node and set(other.attributes) < target
            ]
            chosen: list[HEVNode] = []
            while uncovered:
                best = None
                best_score: tuple[int, int, int] | None = None
                for cand in candidates:
                    gain = len(uncovered & set(cand.attributes))
                    if gain == 0:
                        continue
                    score = (gain, 1 if cand.site == node.site else 0, len(cand.attributes))
                    if best_score is None or score > best_score:
                        best_score = score
                        best = cand
                if best is None:
                    return False
                chosen.append(best)
                uncovered -= set(best.attributes)
            node.inputs = chosen
        return True

    def _cost(
        self, nodes: list[HEVNode], entries: Mapping[str, CFDPlanEntry]
    ) -> CostVector | None:
        """The cost of a candidate node pool, or None if it is not viable.

        Priced through the shared cost core
        (:func:`repro.planner.cost.hev_plan_cost`); the search minimises
        the ``eqids`` dimension — Neqid of the paper.
        """
        if not self._resolve_inputs(nodes):
            return None
        plan = HEVPlan(nodes, entries)
        return hev_plan_cost(plan)

    # -- the optVer search ----------------------------------------------------------------

    def plan(
        self, cfds: Iterable[CFD], registry: EqidRegistry | None = None
    ) -> HEVPlan:
        """Run ``optVer`` and return the best plan found.

        The naive per-CFD chain plan is also evaluated; if the heuristic
        cannot beat it (possible, since both are heuristics for an
        NP-complete problem) the cheaper of the two is returned, so the
        result never ships more eqids than the unoptimized baseline.
        """
        cfds = list(cfds)
        plannable = _plannable(cfds, self._partitioner)
        naive = naive_chain_plan(cfds, self._replication, registry)
        if not plannable:
            return naive

        placed: Counter = Counter()
        # (1) Initialization: one HEV per distinct CFD LHS (the IDX keys).
        idx_nodes: dict[frozenset[str], HEVNode] = {}
        for cfd in plannable:
            key = frozenset(cfd.lhs)
            if key not in idx_nodes:
                node = HEVNode(tuple(sorted(key)), 0, label="H_" + "_".join(sorted(key)))
                idx_nodes[key] = node
        # (2) Expansion: shared-intersection HEVs and base HEVs.
        pool: dict[frozenset[str], HEVNode] = dict(idx_nodes)
        lhs_sets = [frozenset(cfd.lhs) for cfd in plannable]
        for left, right in combinations(sorted(lhs_sets, key=sorted), 2):
            shared = left & right
            if len(shared) >= 2 and shared not in pool:
                pool[shared] = HEVNode(
                    tuple(sorted(shared)), 0, label="H_" + "_".join(sorted(shared))
                )
        base_attrs = {a for cfd in plannable for a in cfd.attributes}
        base_nodes: dict[str, HEVNode] = {}
        for attr in sorted(base_attrs):
            node = HEVNode((attr,), 0, label=f"H_{attr}")
            base_nodes[attr] = node
        # (3) Location assignment.  For the HEVs that serve as IDX keys we also
        # weigh in the RHS attributes of the CFDs they serve: co-locating the IDX
        # with the RHS's base HEV saves the eqid shipment for t[B].
        location_hint: dict[frozenset[str], set[str]] = {
            key: set(key) for key in pool
        }
        for cfd in plannable:
            location_hint[frozenset(cfd.lhs)].add(cfd.rhs)
        for attr, node in base_nodes.items():
            node.site = self._base_location(attr, placed)
            placed[node.site] += 1
        for key, node in sorted(pool.items(), key=lambda kv: sorted(kv[0])):
            node.site = self._find_location(frozenset(location_hint[key]), placed)
            placed[node.site] += 1

        entries: dict[str, CFDPlanEntry] = {}
        for cfd in plannable:
            entries[cfd.name] = CFDPlanEntry(
                cfd, idx_nodes[frozenset(cfd.lhs)], base_nodes[cfd.rhs]
            )

        all_nodes = list(pool.values()) + list(base_nodes.values())
        required = {id(node) for node in idx_nodes.values()}
        required |= {id(entry.rhs_node) for entry in entries.values()}

        best_nodes = list(all_nodes)
        best_cost = self._cost(best_nodes, entries)
        if best_cost is None:
            return naive

        # (4) Finalization: beam-limited greedy removal of redundant HEVs.
        frontier: list[list[HEVNode]] = [list(all_nodes)]
        for _ in range(self._max_rounds):
            candidates: list[tuple[float, list[HEVNode]]] = []
            for state in frontier:
                for node in state:
                    if id(node) in required:
                        continue
                    reduced = [n for n in state if n is not node]
                    cost = self._cost(reduced, entries)
                    if cost is None:
                        continue
                    candidates.append((cost.eqids, reduced))
            if not candidates:
                break
            candidates.sort(key=lambda item: item[0])
            frontier = [state for _, state in candidates[: self._beam_width]]
            if candidates[0][0] <= best_cost.eqids:
                best_eqids, best_nodes = candidates[0]
                best_cost = CostVector(eqids=best_eqids)

        final_cost = self._cost(best_nodes, entries)
        if final_cost is None:
            return naive
        if final_cost.eqids >= naive.eqid_shipments_per_update():
            return naive
        return HEVPlan(best_nodes, entries, registry)

    def compare(self, cfds: Iterable[CFD]) -> dict[str, int]:
        """Eqid shipments per unit update, unoptimized vs optimized (Fig. 10)."""
        cfds = list(cfds)
        naive = naive_chain_plan(cfds, self._replication)
        optimized = self.plan(cfds)
        return {
            "without_optimization": naive.eqid_shipments_per_update(),
            "with_optimization": optimized.eqid_shipments_per_update(),
        }


def hev_plan(cfds: Iterable[CFD], partitioner: VerticalPartitioner) -> HEVPlan:
    """The default HEV plan: ``optVer`` over ``partitioner``'s placement.

    Never ships more eqids per update than :func:`naive_chain_plan`,
    which :meth:`HEVPlanner.plan` falls back to when it cannot beat it.
    """
    return HEVPlanner(partitioner, ReplicationScheme(partitioner)).plan(cfds)
