"""HEV indices and HEV plans.

An HEV (Hash-based Equivalence class and Value index) maps either a raw
attribute value (a *base* HEV) or a combination of eqids produced by
other HEVs (a *non-base* HEV) to the eqid of the combined equivalence
class.  HEVs live at specific sites: whenever a non-base HEV needs an
eqid produced at another site, that eqid must be shipped — and those
shipments are the entire communication cost of the vertical incremental
algorithm.

:class:`HEVNode` describes one HEV (attributes, site, inputs);
:class:`HEVPlan` bundles the HEVs chosen for a set of CFDs, evaluates
IDX keys for concrete tuples while charging eqid shipments to a
:class:`~repro.distributed.network.Network`, and computes the static
per-update shipment count ``Neqid`` used by the planner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Any, Mapping, Sequence

from repro.core.cfd import CFD
from repro.distributed.message import MessageKind
from repro.distributed.network import Network
from repro.distributed.serialization import EQID_BYTES
from repro.indexes.equivalence import EqidRegistry
from repro.obs import profile as _prof


class PlanError(RuntimeError):
    """Raised when a plan cannot compute a required IDX key."""


@dataclass
class HEVNode:
    """One HEV hash table: an attribute set placed at a site.

    ``inputs`` lists the HEVs whose eqids form this HEV's key; they are
    resolved by the plan (greedily, largest-cover-first) and therefore
    not part of object identity.  A node over a single attribute with no
    inputs is a *base* HEV: its key is the raw attribute value.
    """

    attributes: tuple[str, ...]
    site: int
    label: str = ""
    inputs: list["HEVNode"] = field(default_factory=list, compare=False, repr=False)

    def __post_init__(self) -> None:
        self.attributes = tuple(sorted(set(self.attributes)))
        if not self.attributes:
            raise ValueError("an HEV needs at least one attribute")
        if not self.label:
            self.label = "H_" + "_".join(self.attributes)

    @property
    def is_base(self) -> bool:
        """Base HEVs key on a single raw attribute value."""
        return len(self.attributes) == 1

    def __hash__(self) -> int:
        return id(self)

    def __eq__(self, other: object) -> bool:
        return self is other


class ShipmentCache:
    """Per-update memo of eqids already shipped to a destination site.

    The paper notes that when the eqid of ``t[A]`` is shipped from S1 to
    S3 it can be used by every HEV at S3, so it is shipped only once per
    update.  The cache is keyed by (producing HEV, destination site).
    """

    def __init__(self) -> None:
        self._seen: set[tuple[int, int]] = set()

    def already_shipped(self, node: HEVNode, destination: int) -> bool:
        return (id(node), destination) in self._seen

    def mark(self, node: HEVNode, destination: int) -> None:
        self._seen.add((id(node), destination))


@dataclass
class CFDPlanEntry:
    """The plan's bookkeeping for one general variable CFD."""

    cfd: CFD
    lhs_node: HEVNode
    rhs_node: HEVNode

    @property
    def idx_site(self) -> int:
        """The site hosting the IDX for this CFD (where the LHS HEV lives)."""
        return self.lhs_node.site


class HEVPlan:
    """A resolved set of HEVs serving the IDX keys of a set of CFDs."""

    def __init__(
        self,
        nodes: Sequence[HEVNode],
        entries: Mapping[str, CFDPlanEntry],
        registry: EqidRegistry | None = None,
    ):
        self._nodes = list(nodes)
        self._entries = dict(entries)
        self._registry = registry or EqidRegistry()

    # -- introspection ---------------------------------------------------------------

    @property
    def nodes(self) -> list[HEVNode]:
        return list(self._nodes)

    @property
    def registry(self) -> EqidRegistry:
        return self._registry

    def entry_for(self, cfd_name: str) -> CFDPlanEntry:
        try:
            return self._entries[cfd_name]
        except KeyError:
            raise PlanError(f"plan has no entry for CFD {cfd_name!r}") from None

    def cfd_names(self) -> list[str]:
        return sorted(self._entries)

    def idx_site(self, cfd_name: str) -> int:
        return self.entry_for(cfd_name).idx_site

    # -- evaluation (dynamic: per concrete update, charging the network) -----------------

    def _evaluate_node(
        self,
        node: HEVNode,
        values: Mapping[str, Any],
        destination: int,
        network: Network | None,
        cache: ShipmentCache,
    ) -> int:
        """Compute the eqid of ``[t]_{node.attributes}`` for the tuple ``values``.

        Inputs are evaluated first (each shipping its eqid to this
        node's site if it lives elsewhere); the resulting eqid is then
        shipped to ``destination`` if this node lives elsewhere and the
        shipment has not already happened for this update.
        """
        for input_node in node.inputs:
            self._evaluate_node(input_node, values, node.site, network, cache)
        eqid = self._registry.get_or_create(node.attributes, values)
        if node.site != destination and not cache.already_shipped(node, destination):
            cache.mark(node, destination)
            if network is not None:
                network.send(
                    node.site,
                    destination,
                    MessageKind.EQID,
                    eqid,
                    EQID_BYTES,
                    units=1,
                    tag=node.label,
                )
        return eqid

    def evaluate_keys(
        self,
        cfd_name: str,
        values: Mapping[str, Any],
        network: Network | None = None,
        cache: ShipmentCache | None = None,
    ) -> tuple[int, int]:
        """Compute ``(id[t_X], id[t_B])`` for a CFD and a concrete tuple.

        Eqid shipments implied by the plan are charged to ``network``;
        ``cache`` should be shared across all CFDs for one update so
        that a shared HEV's eqid is shipped to a site at most once.
        """
        if _prof.enabled:
            _t0 = perf_counter()
        entry = self.entry_for(cfd_name)
        cache = cache if cache is not None else ShipmentCache()
        lhs_eqid = self._evaluate_node(
            entry.lhs_node, values, entry.lhs_node.site, network, cache
        )
        rhs_eqid = self._evaluate_node(
            entry.rhs_node, values, entry.lhs_node.site, network, cache
        )
        if _prof.enabled:
            _prof.note("hev.evaluate_keys", perf_counter() - _t0)
        return lhs_eqid, rhs_eqid

    # -- static cost model (Neqid) -----------------------------------------------------------

    def _collect_edges(
        self, node: HEVNode, destination: int, edges: set[tuple[int, int]]
    ) -> None:
        for input_node in node.inputs:
            self._collect_edges(input_node, node.site, edges)
        if node.site != destination:
            edges.add((id(node), destination))

    def eqid_shipments_per_update(self) -> int:
        """``Neqid``: eqids shipped for one unit update, independent of D and t.

        This is the objective the planner minimises.  It counts unique
        (HEV, destination-site) pairs over all CFD entries, mirroring
        the per-update :class:`ShipmentCache` semantics.
        """
        edges: set[tuple[int, int]] = set()
        for entry in self._entries.values():
            self._collect_edges(entry.lhs_node, entry.lhs_node.site, edges)
            self._collect_edges(entry.rhs_node, entry.lhs_node.site, edges)
        return len(edges)
