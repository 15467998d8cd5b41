"""The cost-based planner: unified cost vectors and adaptive strategy choice.

* :class:`CostVector` — bytes / messages / eqids / local work, one type
  for estimates and measured actuals (``NetworkStats.cost_vector()``);
* :mod:`repro.planner.estimators` — per-strategy analytic cost models
  derived from the paper's complexity analysis;
* :class:`AdaptivePlanner` / :class:`PlanDecision` — per-batch choice
  between the incremental and batch sides, calibrated by EWMA feedback;
* :func:`hev_plan_cost` — the cost core shared with the ``optVer`` HEV
  placement search in :mod:`repro.indexes.planner`, whose plan every
  ``incVer`` session runs and ``auto`` prices.
"""

from repro.planner.adaptive import AdaptivePlanner, PlanDecision
from repro.planner.cost import MESSAGE_OVERHEAD_BYTES, CostVector, hev_plan_cost
from repro.planner.rebalance import RebalanceDecision, RebalancePolicy
from repro.planner.estimators import (
    ESTIMATORS,
    Estimate,
    estimate_batch,
    estimate_for_mode,
    estimate_improved_batch,
    estimate_incremental,
)

__all__ = [
    "AdaptivePlanner",
    "CostVector",
    "ESTIMATORS",
    "Estimate",
    "MESSAGE_OVERHEAD_BYTES",
    "PlanDecision",
    "RebalanceDecision",
    "RebalancePolicy",
    "estimate_batch",
    "estimate_for_mode",
    "estimate_improved_batch",
    "estimate_incremental",
    "hev_plan_cost",
]
