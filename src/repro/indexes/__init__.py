"""Index structures for incremental detection (Sections 4 and 5).

* :mod:`repro.indexes.equivalence` — equivalence classes ``[t]_Y`` and
  their identifiers (eqids).
* :mod:`repro.indexes.hev` — HEV hash indices (base and non-base) and
  HEV plans, which determine how many eqids travel between sites when a
  single update is processed.
* :mod:`repro.indexes.idx` — the IDX index: for each LHS equivalence
  class, the distinct RHS values and their tuple ids.
* :mod:`repro.indexes.planner` — the ``optVer`` heuristic that places
  and shares HEVs to minimise eqid shipment (``hev_plan``, the plan
  incremental vertical detection runs by default), plus the naive
  per-CFD chain plan used as the unoptimized baseline.
"""

from repro.indexes.equivalence import EqidRegistry
from repro.indexes.hev import HEVNode, HEVPlan, ShipmentCache
from repro.indexes.idx import CFDIndex
from repro.indexes.planner import HEVPlanner, naive_chain_plan

__all__ = [
    "EqidRegistry",
    "HEVNode",
    "HEVPlan",
    "ShipmentCache",
    "CFDIndex",
    "HEVPlanner",
    "naive_chain_plan",
]
