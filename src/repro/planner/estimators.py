"""Per-strategy cost estimators, from the paper's complexity analysis.

Every estimator maps ``(StatsCatalog, BatchProfile)`` to an
:class:`Estimate`: an analytic :class:`~repro.planner.cost.CostVector`
prior plus the *driver* — the number of units the strategy's cost
scales with, which the EWMA feedback loop later calibrates per-unit
rates against:

* incremental detection (incVer / incHor / incMD) costs
  ``O(|delta-D| + |delta-V|)`` — driver: normalized batch size; the
  vertical shipment is priced from the ``Neqid`` of the optVer HEV plan
  incVer runs, the horizontal one from the per-site digest broadcast;
* the improved batch baselines (ibatVer / ibatHor) rebuild ``V`` by
  incremental insertion from empty — driver: ``|D (+) delta-D|``, with
  the *same* per-unit shipment prior as the incremental side (they run
  the same machinery), which is exactly why the curves cross where they
  do in Exp-10 / Fig. 11;
* plain batch recomputation (batVer / batHor) re-ships fragments —
  driver: ``|D (+) delta-D|`` at whole-tuple width;
* the single-site strategies ship nothing; their local work separates
  incremental from batch recomputation.
"""

from __future__ import annotations

from typing import Callable, Dict

from repro.distributed.serialization import EQID_BYTES, MD5_BYTES, TID_BYTES
from repro.planner.cost import CostVector
from repro.stats.collector import BatchProfile, StatsCatalog

from dataclasses import dataclass


@dataclass(frozen=True)
class Estimate:
    """An analytic cost prior plus its complexity driver."""

    strategy: str
    cost: CostVector
    driver: float


def _inc_per_update(stats: StatsCatalog) -> CostVector:
    """Shipment prior for processing one update incrementally.

    Vertical (Fig. 5): the general CFDs ship ``Neqid`` eqids, one
    message each, through the HEV plan (``RuleProfile.eqids_per_update``,
    static in D and t); constant CFDs ship a matching partial tuple to
    the coordinator.  Horizontal (Fig. 8, Prop. 8's fixed factor n):
    every general CFD broadcasts an MD5 digest plus the CFD's values to
    each of the other ``n - 1`` sites — an upper bound, as a group whose
    conflict is already known locally ships nothing; constant CFDs are
    locally checkable.  Single-site: nothing ships.
    """
    rules, rel = stats.rules, stats.relation
    if stats.partitioning == "vertical":
        eqids = rules.eqids_per_update
        return CostVector(
            bytes=eqids * EQID_BYTES + rules.n_constant * (TID_BYTES + rel.avg_value_bytes),
            messages=eqids + rules.n_constant,
            eqids=eqids,
        )
    if stats.partitioning == "horizontal":
        broadcasts = rules.n_general * max(0, stats.n_sites - 1)
        digest = MD5_BYTES + (rules.avg_lhs + 1.0) * rel.avg_value_bytes
        return CostVector(bytes=broadcasts * digest, messages=float(broadcasts))
    return CostVector(messages=float(rules.n_general + rules.n_constant))


def _shipping_updates(stats: StatsCatalog, profile: BatchProfile) -> float:
    """How many of the batch's updates pay the per-update shipment.

    Every update vertically; horizontally every insertion, but a
    deletion only when it removes a known violation — a clean tuple
    leaves quietly (Fig. 8) — priced at the current violating share.
    """
    if stats.partitioning != "horizontal":
        return float(profile.normalized_size)
    share = min(1.0, stats.n_violations / max(1, stats.relation.cardinality))
    return profile.n_inserts + profile.n_deletes * share


def _block_factor(stats: StatsCatalog) -> float:
    """Average comparison-group size: tuples per distinct LHS value."""
    rel = stats.relation
    max_distinct = max(rel.distinct_counts.values(), default=1)
    return rel.cardinality / max(1, max_distinct)


def estimate_incremental(
    stats: StatsCatalog, profile: BatchProfile, strategy: str = "incremental"
) -> Estimate:
    """``O(|delta-D| + |delta-V|)`` work and shipment (Prop. 6 / Prop. 8)."""
    driver = float(profile.normalized_size)
    # Constant work per update per fused rule group (a tableau of k
    # pattern rows is one sweep; shipment stays rule-based); single-site
    # incremental (incMD) additionally compares against its blocking
    # candidates.
    local = driver * stats.rules.n_groups
    if stats.partitioning == "single":
        local *= _block_factor(stats)
    shipment = _inc_per_update(stats).scale(_shipping_updates(stats, profile))
    return Estimate(
        strategy,
        CostVector(shipment.bytes, shipment.messages, shipment.eqids, local),
        driver,
    )


def estimate_improved_batch(
    stats: StatsCatalog, profile: BatchProfile, strategy: str = "improved-batch"
) -> Estimate:
    """``O(|D| + |delta-D|)``: incremental insertion from empty (Exp-10).

    Shares the incremental per-insert shipment prior — the rebuild runs
    the same indices over every tuple of the final database.
    """
    driver = float(stats.final_cardinality(profile))
    shipment = _inc_per_update(stats).scale(driver)
    return Estimate(
        strategy,
        CostVector(
            shipment.bytes, shipment.messages, shipment.eqids, driver * stats.rules.n_groups
        ),
        driver,
    )


def estimate_batch(
    stats: StatsCatalog, profile: BatchProfile, strategy: str = "batch"
) -> Estimate:
    """Full recomputation: re-ship and re-scan fragments (ICDE 2010 baseline)."""
    driver = float(stats.final_cardinality(profile))
    local = driver * stats.rules.n_groups
    if stats.partitioning == "single":
        # Centralized / MD batch: no shipment, pairwise work within groups.
        return Estimate(
            strategy,
            CostVector(local_work=local * _block_factor(stats)),
            driver,
        )
    return Estimate(
        strategy,
        CostVector(
            bytes=driver * stats.relation.avg_tuple_bytes,
            messages=float(max(1, stats.n_sites - 1)) * stats.rules.n_rules,
            local_work=local,
        ),
        driver,
    )


#: Estimators addressable by the registry's (mode) coordinate; the
#: adaptive planner prices every candidate through its mode's entry.
ESTIMATORS: Dict[str, Callable[[StatsCatalog, BatchProfile, str], Estimate]] = {
    "incremental": estimate_incremental,
    "improved-batch": estimate_improved_batch,
    "batch": estimate_batch,
}


def estimate_for_mode(
    mode: str, stats: StatsCatalog, profile: BatchProfile, strategy: str | None = None
) -> Estimate:
    """Estimate by generic mode name (``"incremental"``, ``"batch"``, ...)."""
    try:
        estimator = ESTIMATORS[mode]
    except KeyError:
        raise KeyError(
            f"no cost estimator for mode {mode!r}; known: {sorted(ESTIMATORS)}"
        ) from None
    return estimator(stats, profile, strategy or mode)
