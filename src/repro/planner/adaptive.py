"""The adaptive planner: estimate every candidate, pick the cheaper side.

:class:`AdaptivePlanner` prices each candidate strategy for the next
batch (analytic priors from :mod:`repro.planner.estimators`, calibrated
by the :class:`~repro.stats.collector.StatsCatalog`'s EWMA feedback once
observations exist), picks the minimum, and records a
:class:`PlanDecision` — chosen strategy, estimated vs actual
:class:`~repro.planner.cost.CostVector` and the estimation error — per
batch.  The decision metric is shipped bytes (the paper's headline cost)
with local work as the tiebreak, so single-site candidates, which never
ship, are still ordered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Mapping

from repro.planner.cost import MESSAGE_OVERHEAD_BYTES, CostVector
from repro.planner.estimators import Estimate
from repro.stats.collector import BatchProfile, StatsCatalog


@dataclass
class PlanDecision:
    """One per-batch planning record (the session's plan trace entry)."""

    batch_index: int
    chosen: str
    estimates: dict[str, CostVector]
    estimated: CostVector
    actual: CostVector | None = None
    seconds: float = 0.0
    error: float | None = None
    switched: bool = False
    backend: str | None = None
    #: Rule-set shape the estimates were priced against: how many rules
    #: the session checks and how many fused same-LHS groups they
    #: compile to (equal when no LHS lists repeat).
    rule_groups: dict[str, int] | None = None

    def as_dict(self) -> dict[str, Any]:
        return {
            "batch_index": self.batch_index,
            "chosen": self.chosen,
            "switched": self.switched,
            "backend": self.backend,
            "rule_groups": self.rule_groups,
            "estimates": {name: cv.as_dict() for name, cv in self.estimates.items()},
            "estimated": self.estimated.as_dict(),
            "actual": self.actual.as_dict() if self.actual is not None else None,
            "seconds": self.seconds,
            "error": self.error,
        }


@dataclass
class _RankKey:
    """Shipment bytes first, local work second — computed once per candidate."""

    shipment: float
    local_work: float


class AdaptivePlanner:
    """Chooses a strategy per batch and learns from the outcome."""

    def __init__(
        self,
        catalog: StatsCatalog,
        candidates: Mapping[str, Callable[[StatsCatalog, BatchProfile], Estimate]],
        message_overhead: float = MESSAGE_OVERHEAD_BYTES,
    ):
        """``candidates`` maps strategy names to their estimators
        (``hook(stats, profile) -> Estimate``), in preference
        order — earlier candidates win exact ties."""
        if not candidates:
            raise ValueError("the adaptive planner needs at least one candidate")
        self.catalog = catalog
        self._candidates = dict(candidates)
        self._order = list(candidates)
        self._message_overhead = message_overhead
        #: Local-work rate of the active storage backend, applied to
        #: every candidate's estimate.  Monotonic scaling — it never
        #: changes the ranking among candidates on the same backend,
        #: only the absolute local-work numbers in the plan trace.
        self.local_work_rate: float = 1.0
        self.decisions: list[PlanDecision] = []

    @property
    def candidates(self) -> list[str]:
        return list(self._order)

    # -- estimation -------------------------------------------------------------------

    def estimate(self, name: str, profile: BatchProfile) -> Estimate:
        """The candidate's estimate, EWMA-calibrated once feedback exists."""
        est = self._candidates[name](self.catalog, profile)
        feedback = self.catalog.feedback_for(name)
        if feedback.n_observations == 0:
            return Estimate(
                est.strategy, est.cost.with_local_work_rate(self.local_work_rate), est.driver
            )
        d = est.driver
        calibrated = CostVector(
            bytes=feedback.bytes_per_unit.value * d,
            messages=feedback.messages_per_unit.value * d,
            eqids=feedback.eqids_per_unit.value * d,
            local_work=est.cost.local_work * self.local_work_rate,
        )
        return Estimate(est.strategy, calibrated, d)

    # -- choice ------------------------------------------------------------------------

    def choose(self, profile: BatchProfile) -> tuple[str, dict[str, Estimate]]:
        """Estimate every candidate and return (winner, all estimates).

        Ranking: estimated shipment bytes, then estimated local work,
        then candidate registration order — fully deterministic.
        """
        estimates = {name: self.estimate(name, profile) for name in self._order}
        best_name = self._order[0]
        best_key: _RankKey | None = None
        for name in self._order:
            cost = estimates[name].cost
            key = _RankKey(
                shipment=cost.shipment_scalar(self._message_overhead),
                local_work=cost.local_work,
            )
            if best_key is None or (key.shipment, key.local_work) < (
                best_key.shipment,
                best_key.local_work,
            ):
                best_key = key
                best_name = name
        return best_name, estimates

    # -- feedback ------------------------------------------------------------------------

    def record(
        self,
        batch_index: int,
        chosen: str,
        estimates: Mapping[str, Estimate],
        actual: CostVector,
        seconds: float,
        switched: bool = False,
        backend: str | None = None,
    ) -> PlanDecision:
        """Log the outcome of a batch and feed the EWMA calibration."""
        est = estimates[chosen]
        self.catalog.observe(chosen, est.driver, actual, seconds)
        rules = self.catalog.rules
        decision = PlanDecision(
            batch_index=batch_index,
            chosen=chosen,
            estimates={name: e.cost for name, e in estimates.items()},
            estimated=est.cost,
            actual=actual,
            seconds=seconds,
            error=est.cost.relative_error(actual),
            switched=switched,
            backend=backend,
            rule_groups={
                "n_rules": rules.n_rules,
                "n_groups": rules.n_groups,
            },
        )
        self.decisions.append(decision)
        return decision
