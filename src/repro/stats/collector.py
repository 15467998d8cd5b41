"""Live statistics for the cost-based planner.

The adaptive planner needs three kinds of numbers to price a strategy
before running it:

* *data statistics* — cardinality, per-attribute distinct counts and
  average tuple width of the relation under detection
  (:class:`RelationStats`; collected once at ``setup()`` and kept
  current arithmetically as batches apply);
* *rule statistics* — how many CFDs are constant / locally checkable /
  general, how wide their LHSs are and how many eqids the vertical HEV
  plan ships per update (:class:`RuleProfile`; these drive the paper's
  Section 5/6 shipment formulas);
* *feedback* — EWMA-smoothed observed cost per unit of each strategy's
  complexity driver (:class:`StrategyFeedback`; ``O(|delta-D|)`` for the
  incremental detectors, ``O(|D (+) delta-D|)`` for the batch ones), fed
  back after every batch so estimates converge on measured behaviour.

Everything here is cheap: columnar relations read distinct counts
straight from their value dictionaries, row relations are sampled up to
:data:`SAMPLE_LIMIT` tuples, and per-batch maintenance is O(1) plus the
batch normalization the detectors perform anyway.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Iterable, Mapping

from repro.core.updates import UpdateBatch
from repro.distributed.serialization import estimate_tuple_bytes

#: Row-backend relations are sampled up to this many tuples when
#: collecting distinct counts and average tuple width.
SAMPLE_LIMIT = 1000


class EWMA:
    """An exponentially weighted moving average (the calibration loop).

    ``alpha`` is the weight of the newest observation; the first
    observation seeds the average directly.
    """

    def __init__(self, alpha: float = 0.3):
        if not 0.0 < alpha <= 1.0:
            raise ValueError("EWMA alpha must lie in (0, 1]")
        self.alpha = alpha
        self._value = 0.0
        self._n = 0

    def observe(self, x: float) -> float:
        """Fold one observation in and return the smoothed value."""
        if self._n == 0:
            self._value = float(x)
        else:
            self._value += self.alpha * (float(x) - self._value)
        self._n += 1
        return self._value

    @property
    def value(self) -> float:
        return self._value

    @property
    def n_observations(self) -> int:
        return self._n

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"EWMA({self._value:.3f}, n={self._n})"


@dataclass(frozen=True)
class BatchProfile:
    """The shape of one update batch, as the planner prices it.

    ``normalized_size`` counts the updates that survive cancellation
    (line 1 of incVer/incHor) — the complexity driver ``|delta-D|`` of
    the incremental detectors.  ``net_growth`` is the cardinality change
    the batch applies to the database.
    """

    size: int
    n_inserts: int
    n_deletes: int
    normalized_size: int
    net_growth: int

    @classmethod
    def of(cls, batch: UpdateBatch) -> "BatchProfile":
        normalized = batch.normalized()
        n_ins = sum(1 for u in normalized if u.is_insert())
        n_del = len(normalized) - n_ins
        return cls(
            size=len(batch),
            n_inserts=n_ins,
            n_deletes=n_del,
            normalized_size=len(normalized),
            net_growth=n_ins - n_del,
        )


@dataclass(frozen=True)
class RelationStats:
    """Cardinality, distinct counts and average width of a relation."""

    cardinality: int
    n_attributes: int
    distinct_counts: dict[str, int]
    avg_tuple_bytes: float
    sampled: bool = False

    @property
    def avg_value_bytes(self) -> float:
        """Average wire size of a single attribute value."""
        return self.avg_tuple_bytes / max(1, self.n_attributes)

    @classmethod
    def collect(cls, relation: Any, sample_limit: int = SAMPLE_LIMIT) -> "RelationStats":
        """Collect statistics from a relation on any storage backend.

        Distinct counts come from its store: read off the value
        dictionaries on columnar, one aggregate query on sql, the first
        ``sample_limit`` tuples on rows.  Average tuple width is sampled
        on every backend.
        """
        attrs = list(relation.schema.attribute_names)
        n = len(relation)
        distinct = relation.store.distinct_counts(sample_limit)
        sampled = False
        total_bytes = 0.0
        n_sampled = 0
        for i, t in enumerate(relation):
            if i >= sample_limit:
                sampled = True
                break
            total_bytes += estimate_tuple_bytes(t, attrs)
            n_sampled += 1
        avg = total_bytes / n_sampled if n_sampled else 0.0
        return cls(
            cardinality=n,
            n_attributes=len(attrs),
            distinct_counts=distinct,
            avg_tuple_bytes=avg,
            sampled=sampled,
        )

    def grown_by(self, net_growth: int) -> "RelationStats":
        """Cardinality maintenance after a batch (distinct counts kept)."""
        return RelationStats(
            cardinality=max(0, self.cardinality + net_growth),
            n_attributes=self.n_attributes,
            distinct_counts=self.distinct_counts,
            avg_tuple_bytes=self.avg_tuple_bytes,
            sampled=self.sampled,
        )


@dataclass(frozen=True)
class RuleProfile:
    """The planner-relevant shape of a rule set.

    For CFDs against a vertical partitioning, rules split into constant
    (single-tuple checks, partial-tuple shipments), locally checkable
    (no shipment) and general (eqid shipments through the HEV plan) —
    the three cases of Fig. 5.  Horizontally, constant CFDs are locally
    checkable and variable CFDs ship tuples or MD5 fingerprints
    (Fig. 8).  Matching dependencies count as general rules.

    ``n_groups`` is the number of fused same-LHS rule groups the
    rule-fusion compiler produces — the number of data sweeps a
    validation pays, which is what the local-work estimators scale
    with.  It equals ``n_rules`` for MD rule sets, which fuse nothing,
    and can be much smaller for tableau-style rule sets.

    ``eqids_per_update`` is ``Neqid`` of Section 5: the eqids one update
    ships for the general CFDs.  Given a vertical partitioner it is read
    off the optVer HEV plan ``incVer`` builds
    (:func:`~repro.indexes.planner.hev_plan`), which is exact when every
    general CFD's LHS pattern is all wildcards and an upper bound
    otherwise (a tuple outside the pattern ships nothing); without one
    it is the chain bound ``sum(|X| + 1)``.
    """

    n_rules: int
    n_constant: int
    n_local: int
    n_general: int
    avg_lhs: float
    kind: str = "cfd"
    n_groups: int = 0
    eqids_per_update: float = 0.0

    @classmethod
    def of(
        cls,
        rules: Iterable[Any],
        vertical_partitioner: Any = None,
    ) -> "RuleProfile":
        rules = list(rules)
        from repro.similarity.md import MatchingDependency

        if rules and all(isinstance(r, MatchingDependency) for r in rules):
            lhs_sizes = [len(r.lhs) for r in rules]
            return cls(
                n_rules=len(rules),
                n_constant=0,
                n_local=0,
                n_general=len(rules),
                avg_lhs=sum(lhs_sizes) / len(lhs_sizes),
                kind="md",
                n_groups=len(rules),
            )
        n_constant = n_local = n_general = 0
        lhs_sizes: list[int] = []
        for cfd in rules:
            if cfd.is_constant():
                n_constant += 1
                continue
            if (
                vertical_partitioner is not None
                and vertical_partitioner.is_local(cfd.attributes) is not None
            ):
                n_local += 1
            else:
                n_general += 1
                lhs_sizes.append(len(cfd.lhs))
        from repro.rulefuse import n_fused_groups

        if vertical_partitioner is not None:
            from repro.indexes.planner import hev_plan

            plan = hev_plan(rules, vertical_partitioner)
            eqids_per_update = float(plan.eqid_shipments_per_update())
        else:
            eqids_per_update = float(sum(size + 1 for size in lhs_sizes))
        return cls(
            n_rules=len(rules),
            n_constant=n_constant,
            n_local=n_local,
            n_general=n_general,
            avg_lhs=sum(lhs_sizes) / len(lhs_sizes) if lhs_sizes else 1.0,
            kind="cfd",
            n_groups=n_fused_groups(rules),
            eqids_per_update=eqids_per_update,
        )


class StrategyFeedback:
    """Observed per-driver cost of one strategy, EWMA-smoothed.

    The *driver* is the estimator-declared unit the strategy's
    complexity scales with: normalized updates for the incremental
    detectors, final database tuples for the batch ones.  Observing
    ``(driver, actual cost, seconds)`` after each batch keeps the
    smoothed per-unit rates, which the planner multiplies back by the
    next batch's driver — the calibration loop.
    """

    def __init__(self, alpha: float = 0.3):
        self.bytes_per_unit = EWMA(alpha)
        self.messages_per_unit = EWMA(alpha)
        self.eqids_per_unit = EWMA(alpha)
        self.seconds_per_unit = EWMA(alpha)
        self._lock = threading.Lock()

    @property
    def n_observations(self) -> int:
        return self.bytes_per_unit.n_observations

    def observe(self, driver: float, cost: Any, seconds: float = 0.0) -> None:
        """Fold one measured batch in.  ``cost`` is a CostVector-like.

        Atomic across the four EWMAs: concurrent sessions feeding the
        same feedback never interleave a half-recorded observation
        (EWMA.observe is itself a read-modify-write).
        """
        d = max(1.0, float(driver))
        with self._lock:
            self.bytes_per_unit.observe(cost.bytes / d)
            self.messages_per_unit.observe(cost.messages / d)
            self.eqids_per_unit.observe(cost.eqids / d)
            self.seconds_per_unit.observe(seconds / d)

    def as_dict(self) -> dict[str, Any]:
        """A consistent snapshot of the four smoothed rates."""
        with self._lock:
            return {
                "n_observations": self.n_observations,
                "bytes_per_unit": self.bytes_per_unit.value,
                "messages_per_unit": self.messages_per_unit.value,
                "eqids_per_unit": self.eqids_per_unit.value,
                "seconds_per_unit": self.seconds_per_unit.value,
            }


@dataclass(frozen=True)
class SiteLoad:
    """One site's load snapshot: stored tuples, update hits, local work."""

    site: int
    tuples: int = 0
    update_hits: int = 0
    busy_seconds: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        return {
            "site": self.site,
            "tuples": self.tuples,
            "update_hits": self.update_hits,
            "busy_seconds": self.busy_seconds,
        }


class SiteLoadTracker:
    """Per-bucket (and per-site) update-hit accounting for rebalancing.

    The tracker hashes every update's routing value into a *fine* bucket
    space — a multiple of the deployment's current bucket count, so the
    observed loads can drive
    :meth:`~repro.partition.horizontal.HorizontalPartitioner.rebalance_plan`
    directly.  Tracking is O(1) per update and entirely local.
    """

    def __init__(self, attribute: str, n_buckets: int):
        if n_buckets <= 0:
            raise ValueError("n_buckets must be positive")
        self.attribute = attribute
        self.n_buckets = n_buckets
        self._hits: dict[int, int] = {}
        self.total_hits = 0
        self._lock = threading.Lock()

    def _note_locked(self, t: Mapping[str, Any]) -> int:
        from repro.partition.predicates import stable_hash

        bucket = stable_hash(t[self.attribute]) % self.n_buckets
        self._hits[bucket] = self._hits.get(bucket, 0) + 1
        self.total_hits += 1
        return bucket

    def note_update(self, t: Mapping[str, Any]) -> int:
        """Count one update against its fine bucket; returns the bucket.

        The counter increment is locked: concurrent sessions (service
        tenants, parallel streams) never lose a hit to a torn
        read-modify-write.
        """
        with self._lock:
            return self._note_locked(t)

    def note_batch(self, batch: UpdateBatch) -> None:
        """Count a whole batch under one lock acquisition."""
        with self._lock:
            for update in batch:
                self._note_locked(update.tuple)

    @property
    def bucket_loads(self) -> dict[int, int]:
        """Update hits per fine bucket (only touched buckets appear)."""
        with self._lock:
            return dict(self._hits)

    def site_hits(self, bucket_owner: Mapping[int, int]) -> dict[int, int]:
        """Aggregate bucket hits per owning site (``bucket -> site`` map)."""
        per_site: dict[int, int] = {}
        for bucket, hits in self.bucket_loads.items():
            site = bucket_owner.get(bucket)
            if site is not None:
                per_site[site] = per_site.get(site, 0) + hits
        return per_site

    def hottest_share(self, bucket_owner: Mapping[int, int]) -> float:
        """The hottest site's share of all observed update hits (0 if none)."""
        per_site = self.site_hits(bucket_owner)
        total = self.total_hits
        if not per_site or not total:
            return 0.0
        return max(per_site.values()) / total


class StatsCatalog:
    """Everything the planner knows about one detection session.

    Built at ``setup()`` and maintained on every ``apply()``; the
    catalog is local state — consulting it never ships a byte.
    """

    def __init__(
        self,
        relation: RelationStats,
        rules: RuleProfile,
        partitioning: str,
        n_sites: int = 1,
        n_violations: int = 0,
        alpha: float = 0.3,
    ):
        self.relation = relation
        self.rules = rules
        self.partitioning = partitioning
        self.n_sites = n_sites
        self.n_violations = n_violations
        self.site_loads: dict[int, SiteLoad] = {}
        self._alpha = alpha
        self._feedback: dict[str, StrategyFeedback] = {}
        self._lock = threading.Lock()

    @classmethod
    def collect(
        cls,
        relation: Any,
        rules: Iterable[Any],
        partitioning: str,
        n_sites: int = 1,
        vertical_partitioner: Any = None,
        n_violations: int = 0,
        alpha: float = 0.3,
    ) -> "StatsCatalog":
        return cls(
            relation=RelationStats.collect(relation),
            rules=RuleProfile.of(rules, vertical_partitioner),
            partitioning=partitioning,
            n_sites=n_sites,
            n_violations=n_violations,
            alpha=alpha,
        )

    def feedback_for(self, strategy: str) -> StrategyFeedback:
        with self._lock:
            if strategy not in self._feedback:
                self._feedback[strategy] = StrategyFeedback(self._alpha)
            return self._feedback[strategy]

    def feedback_snapshot(self) -> dict[str, dict[str, Any]]:
        """Per-strategy smoothed rates (for metrics export and ``explain``)."""
        with self._lock:
            feedback = dict(self._feedback)
        return {name: fb.as_dict() for name, fb in sorted(feedback.items())}

    def observe(
        self, strategy: str, driver: float, cost: Any, seconds: float = 0.0
    ) -> None:
        """Feed one measured batch back into the strategy's EWMAs."""
        self.feedback_for(strategy).observe(driver, cost, seconds)

    def forget_feedback(self) -> None:
        """Drop every strategy's learned rates, e.g. after a migration
        changed the layout they were measured on; estimates restart from
        the analytic priors."""
        with self._lock:
            self._feedback.clear()

    def note_batch(self, profile: BatchProfile, n_violations: int | None = None) -> None:
        """Cardinality (and violation-set) maintenance after a batch.

        Locked: two sessions folding batches into a shared catalog must
        not lose a cardinality adjustment to a read-modify-write race.
        """
        with self._lock:
            self.relation = self.relation.grown_by(profile.net_growth)
            if n_violations is not None:
                self.n_violations = n_violations

    def update_site_loads(self, loads: Iterable[SiteLoad]) -> None:
        """Replace the per-site load snapshot (sessions push this per batch)."""
        snapshot = {load.site: load for load in loads}
        with self._lock:
            self.site_loads = snapshot

    def hottest_site_share(self) -> float:
        """The hottest site's share of all recorded update hits (0 if none)."""
        with self._lock:
            loads = list(self.site_loads.values())
        total = sum(load.update_hits for load in loads)
        if not total:
            return 0.0
        return max(load.update_hits for load in loads) / total

    def final_cardinality(self, profile: BatchProfile) -> int:
        """``|D (+) delta-D|``: the database size after the batch."""
        return max(0, self.relation.cardinality + profile.net_growth)

    def as_dict(self) -> dict[str, Any]:
        """A plain-dict snapshot (for reports and diagnostics)."""
        site_loads = self.site_loads
        return {
            "cardinality": self.relation.cardinality,
            "n_attributes": self.relation.n_attributes,
            "avg_tuple_bytes": self.relation.avg_tuple_bytes,
            "partitioning": self.partitioning,
            "n_sites": self.n_sites,
            "n_violations": self.n_violations,
            "rules": {
                "n_rules": self.rules.n_rules,
                "n_constant": self.rules.n_constant,
                "n_local": self.rules.n_local,
                "n_general": self.rules.n_general,
                "avg_lhs": self.rules.avg_lhs,
                "kind": self.rules.kind,
                "n_groups": self.rules.n_groups,
                "eqids_per_update": self.rules.eqids_per_update,
            },
            "site_loads": [
                site_loads[site].as_dict() for site in sorted(site_loads)
            ],
        }


def profile_of(batch: UpdateBatch | Mapping[str, int]) -> BatchProfile:
    """Coerce an update batch (or a ready profile mapping) to a profile."""
    if isinstance(batch, UpdateBatch):
        return BatchProfile.of(batch)
    return BatchProfile(**dict(batch))
