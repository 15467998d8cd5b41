"""Unified cost vectors: estimates and actuals are the same type.

A :class:`CostVector` carries the four cost dimensions the paper's
Section 5 analysis reasons about — shipped bytes, messages, eqids and
local work — whether the numbers are *estimated* by a strategy's cost
model or *measured* off a :class:`~repro.distributed.network.Network`
ledger (``NetworkStats.cost_vector()`` / :func:`CostVector.from_stats`).
Using one type for both sides is what lets the adaptive planner compute
an estimation error per batch and feed it back into its EWMAs.

The module is also the cost core shared with the HEV placement search:
:func:`hev_plan_cost` prices a candidate HEV plan (eqid shipments per
unit update), which ``optVer`` in :mod:`repro.indexes.planner` minimises
over candidate node pools.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.distributed.serialization import EQID_BYTES

#: Fixed per-message overhead, in bytes, folded into the scalar cost.
#: The simulated network charges payload bytes only, so the default
#: keeps estimates and actuals on the same scale.
MESSAGE_OVERHEAD_BYTES = 0.0

#: Relative cost of one unit of local work per storage backend.  The
#: row backend is the baseline; columnar kernels batch whole columns
#: and the SQL backend evaluates checks set-at-a-time inside sqlite,
#: so a unit of the paper's per-tuple work costs less there.  ``auto``
#: picks its backend by these priors when it does not time the backend
#: fixture (``probe=False``).
LOCAL_WORK_RATES: dict[str, float] = {
    "rows": 1.0,
    "columnar": 0.35,
    "sql": 0.55,
}


def local_work_rate(backend: str | None) -> float:
    """The local-work rate for ``backend`` (1.0 for unknown backends)."""
    if backend is None:
        return 1.0
    return LOCAL_WORK_RATES.get(backend, 1.0)


@dataclass(frozen=True)
class CostVector:
    """One strategy's cost over one batch (estimated or measured).

    ``bytes``/``messages``/``eqids`` mirror the network ledger;
    ``local_work`` counts per-tuple operations (index probes, pattern
    checks) that never cross the wire but dominate wall-clock on
    single-site strategies.
    """

    bytes: float = 0.0
    messages: float = 0.0
    eqids: float = 0.0
    local_work: float = 0.0

    # -- construction -----------------------------------------------------------------

    @classmethod
    def from_stats(cls, stats: Any, local_work: float = 0.0) -> "CostVector":
        """Lift a :class:`~repro.distributed.network.NetworkStats` snapshot.

        Duck-typed (``.bytes``/``.messages``/``.eqids_shipped``) so this
        module stays import-cycle free.
        """
        return cls(
            bytes=float(stats.bytes),
            messages=float(stats.messages),
            eqids=float(stats.eqids_shipped),
            local_work=local_work,
        )

    # -- arithmetic --------------------------------------------------------------------

    def __add__(self, other: "CostVector") -> "CostVector":
        return CostVector(
            self.bytes + other.bytes,
            self.messages + other.messages,
            self.eqids + other.eqids,
            self.local_work + other.local_work,
        )

    def __sub__(self, other: "CostVector") -> "CostVector":
        return CostVector(
            self.bytes - other.bytes,
            self.messages - other.messages,
            self.eqids - other.eqids,
            self.local_work - other.local_work,
        )

    def scale(self, factor: float) -> "CostVector":
        return CostVector(
            self.bytes * factor,
            self.messages * factor,
            self.eqids * factor,
            self.local_work * factor,
        )

    def with_local_work_rate(self, rate: float) -> "CostVector":
        """Re-price local work for a storage backend, keeping shipment as-is.

        Shipment counters are backend-invariant (the pushdown backends
        reproduce the row cost model exactly), so only the local-work
        dimension scales.
        """
        if rate == 1.0:
            return self
        return CostVector(self.bytes, self.messages, self.eqids, self.local_work * rate)

    # -- comparison ---------------------------------------------------------------------

    def shipment_scalar(self, message_overhead: float = MESSAGE_OVERHEAD_BYTES) -> float:
        """The shipment cost collapsed to bytes (the planner's primary key)."""
        return self.bytes + message_overhead * self.messages

    def relative_error(self, actual: "CostVector") -> float:
        """|estimate - actual| / actual on the decisive dimension.

        Compared on shipment bytes when either side ships; on local
        work otherwise (single-site strategies never ship).
        """
        if self.bytes or actual.bytes:
            return abs(self.bytes - actual.bytes) / max(1.0, actual.bytes)
        return abs(self.local_work - actual.local_work) / max(1.0, actual.local_work)

    def as_dict(self) -> dict[str, float]:
        return {
            "bytes": self.bytes,
            "messages": self.messages,
            "eqids": self.eqids,
            "local_work": self.local_work,
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"CostVector(bytes={self.bytes:.0f}, messages={self.messages:.0f}, "
            f"eqids={self.eqids:.0f}, local_work={self.local_work:.0f})"
        )


def hev_plan_cost(plan: Any) -> CostVector:
    """Price an HEV plan: eqid shipments per unit update (Section 5).

    This is the objective ``optVer`` minimises; bytes follow from the
    fixed wire size of an eqid.
    """
    eqids = plan.eqid_shipments_per_update()
    return CostVector(bytes=float(eqids * EQID_BYTES), messages=float(eqids), eqids=float(eqids))
