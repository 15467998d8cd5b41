"""Elastic deployment units: replanning, migration, policy, skew, validation.

The parity matrix (every strategy x storage across scale events) lives in ``test_elasticity_parity.py``; this module covers the
mechanics — minimal migration plans, ledger-charged application, warm
re-homing without re-detection, cluster site-id validation, the skewed
update generator and the rebalance policy.
"""

import pytest

from repro.core.detector import CentralizedDetector
from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.core.tuples import Tuple
from repro.distributed.cluster import Cluster, ClusterError
from repro.engine.session import SessionError, session
from repro.partition.horizontal import (
    HorizontalFragment,
    HorizontalPartitioner,
    hash_horizontal_scheme,
)
from repro.partition.predicates import (
    AttributeRange,
    BucketMap,
    HashBucket,
    OrPredicate,
    stable_hash,
)
from repro.partition.vertical import PartitionError
from repro.planner.rebalance import RebalancePolicy
from repro.stats.collector import SiteLoadTracker
from repro.workloads.rules import generate_cfds
from repro.workloads.tpch import TPCHGenerator
from repro.workloads.updates import generate_updates


@pytest.fixture(scope="module")
def generator():
    return TPCHGenerator(seed=11)


@pytest.fixture(scope="module")
def relation(generator):
    return generator.relation(150)


@pytest.fixture(scope="module")
def cfds(generator):
    return list(generate_cfds(generator.fd_specs(), 4, seed=11))


# -- predicates -------------------------------------------------------------------------


def test_bucket_map_matches_hash_bucket(relation):
    schema = relation.schema
    single = HashBucket(schema.key, 4, 1)
    mapped = BucketMap(schema.key, 4, {1})
    for t in relation:
        assert single(t) == mapped(t)


def test_bucket_map_refinement_routes_identically(relation):
    schema = relation.schema
    coarse = hash_horizontal_scheme(schema, 3)
    fine_frags = [
        HorizontalFragment(
            f"f{i}", i, BucketMap(schema.key, 6, {i, i + 3})
        )
        for i in range(3)
    ]
    fine = HorizontalPartitioner(schema, fine_frags)
    for t in relation:
        assert coarse.route_tuple(t) == fine.route_tuple(t)


def test_bucket_map_validates():
    with pytest.raises(ValueError):
        BucketMap("k", 4, {4})
    with pytest.raises(ValueError):
        BucketMap("k", 0, {0})


def test_or_predicate_union():
    p = OrPredicate([AttributeRange("x", 0, 5), AttributeRange("x", 5, 10)])
    assert p({"x": 3}) and p({"x": 7}) and not p({"x": 12})
    assert p.attributes() == frozenset({"x"})
    assert p.conflicts_with_constants({"x": 12})
    assert not p.conflicts_with_constants({"x": 7})


# -- cluster validation (satellite) -----------------------------------------------------


def _tiny_relation():
    schema = Schema("R", ["k", "a"], key="k")
    rel = Relation(schema)
    for i in range(8):
        rel.insert(Tuple(i, {"k": i, "a": i % 2}))
    return rel


def test_cluster_rejects_negative_site_ids():
    rel = _tiny_relation()
    scheme = HorizontalPartitioner(
        rel.schema,
        [
            HorizontalFragment("f1", -1, HashBucket("k", 2, 0)),
            HorizontalFragment("f2", 1, HashBucket("k", 2, 1)),
        ],
    )
    with pytest.raises(ClusterError, match=r"\[-1\]"):
        Cluster.from_horizontal(scheme, rel)


def test_cluster_rejects_mixed_type_site_ids():
    class WeirdPartition:
        def __iter__(self):
            rel = _tiny_relation()
            yield -1, rel
            yield "x", rel

    with pytest.raises(ClusterError, match="non-negative"):
        Cluster(WeirdPartition())


def test_cluster_rejects_duplicate_site_ids():
    class DupPartition:
        def __iter__(self):
            rel = _tiny_relation()
            yield 0, rel
            yield 0, rel

    with pytest.raises(ClusterError, match=r"duplicates \[0\]"):
        Cluster(DupPartition())


def test_partitioners_still_reject_duplicate_sites():
    rel = _tiny_relation()
    with pytest.raises(PartitionError):
        HorizontalPartitioner(
            rel.schema,
            [
                HorizontalFragment("f1", 0, HashBucket("k", 2, 0)),
                HorizontalFragment("f2", 0, HashBucket("k", 2, 1)),
            ],
        )


# -- horizontal replanning --------------------------------------------------------------


def test_hash_replan_moves_only_reassigned_buckets(generator, relation):
    scheme = generator.horizontal_partitioner(4)
    plan = scheme.replan(n_sites=6)
    assert plan.kind == "horizontal"
    assert plan.new_sites == (4, 5)
    assert not plan.retired_sites
    moved_buckets = {m.bucket for m in plan.bucket_moves}
    # Unmoved buckets keep their tuples in place.
    cluster = Cluster.from_horizontal(scheme, relation)
    result = cluster.apply_migration(plan)
    attr, n_fine, _ = plan.target.hash_family()
    for (_src, _dst), tuples in result.moved.items():
        for t in tuples:
            assert stable_hash(t[attr]) % n_fine in moved_buckets
    # Every tuple survives and routes correctly on the new layout.
    assert cluster.total_tuples() == len(relation)
    rebuilt = cluster.reconstruct()
    assert set(rebuilt.tids()) == set(relation.tids())
    assert len(cluster) == 6


def test_hash_replan_same_size_is_noop(generator):
    scheme = generator.horizontal_partitioner(4)
    plan = scheme.replan(n_sites=4)
    assert not plan.bucket_moves
    assert not plan.new_sites and not plan.retired_sites
    assert plan.is_noop()


def test_replan_prefers_current_site_ids(generator, relation):
    """Non-contiguous layouts (post-merge) scale without shuffling data."""
    scheme = generator.horizontal_partitioner(4)
    cluster = Cluster.from_horizontal(scheme, relation)
    cluster.apply_migration(scheme.merge_sites([0, 1]))
    assert cluster.site_ids() == [0, 2, 3]
    current = cluster.horizontal_partitioner
    same_size = current.replan(n_sites=3)
    assert same_size.is_noop(), "re-planning to the current size must not move data"
    grown = current.replan(n_sites=4)
    assert grown.new_sites == (4,)  # fresh id after the highest, not the gap
    result = cluster.apply_migration(grown)
    assert cluster.site_ids() == [0, 2, 3, 4]
    assert set(cluster.reconstruct().tids()) == set(relation.tids())
    # Only the new site received data.
    assert {dst for (_src, dst) in result.moved} == {4}


def test_replan_validates_arguments(generator):
    scheme = generator.horizontal_partitioner(4)
    with pytest.raises(PartitionError):
        scheme.replan()
    with pytest.raises(PartitionError):
        scheme.replan(n_sites=4, scheme=scheme)
    with pytest.raises(PartitionError):
        scheme.replan(n_sites=0)


def test_predicate_scheme_needs_split_or_merge(relation):
    schema = relation.schema
    scheme = HorizontalPartitioner(
        schema,
        [
            HorizontalFragment("lo", 0, AttributeRange("quantity", None, 25)),
            HorizontalFragment("hi", 1, AttributeRange("quantity", 25, None)),
        ],
    )
    with pytest.raises(PartitionError, match="split_site"):
        scheme.replan(n_sites=3)


def test_split_and_merge_roundtrip(relation):
    schema = relation.schema
    scheme = HorizontalPartitioner(
        schema,
        [
            HorizontalFragment("lo", 0, AttributeRange("quantity", None, 25)),
            HorizontalFragment("hi", 1, AttributeRange("quantity", 25, None)),
        ],
    )
    cluster = Cluster.from_horizontal(scheme, relation)
    split = scheme.split_site(
        1, [AttributeRange("quantity", 25, 40), AttributeRange("quantity", 40, None)]
    )
    assert split.new_sites == (2,)
    result = cluster.apply_migration(split)
    assert len(cluster) == 3
    assert result.tuples_moved > 0
    assert set(cluster.reconstruct().tids()) == set(relation.tids())

    merge = cluster.horizontal_partitioner.merge_sites([1, 2])
    assert merge.retired_sites == (2,)
    cluster.apply_migration(merge)
    assert len(cluster) == 2
    assert set(cluster.reconstruct().tids()) == set(relation.tids())


def test_merge_hash_sites_unions_buckets(generator, relation):
    scheme = generator.horizontal_partitioner(4)
    plan = scheme.merge_sites([0, 2])
    family = plan.target.hash_family()
    assert family is not None
    cluster = Cluster.from_horizontal(scheme, relation)
    cluster.apply_migration(plan)
    assert len(cluster) == 3
    assert set(cluster.reconstruct().tids()) == set(relation.tids())


def test_rebalance_plan_moves_hot_buckets(generator):
    scheme = generator.horizontal_partitioner(3)
    # All load on site 0's buckets (0, 3 of 6 fine buckets): the plan
    # must shed one of them, and only reassigned buckets appear in it.
    loads = {0: 100.0, 3: 90.0}
    plan = scheme.rebalance_plan(loads, n_buckets=6)
    assert plan.bucket_moves
    assert {m.from_site for m in plan.bucket_moves} == {0}
    assert all(m.bucket in (0, 3) for m in plan.bucket_moves)
    with pytest.raises(PartitionError):
        scheme.rebalance_plan(loads, n_buckets=7)  # not a multiple of 3


# -- vertical replanning ----------------------------------------------------------------


def test_vertical_replan_keeps_home_attributes(generator, relation):
    scheme = generator.vertical_partitioner(3)
    plan = scheme.replan(n_sites=4)
    assert plan.kind == "vertical"
    assert plan.new_sites == (3,)
    # Columns only move to sites that did not store them.
    for move in plan.column_moves:
        old_sites = scheme.sites_with_attribute(move.attribute)
        assert move.to_site not in old_sites
    cluster = Cluster.from_vertical(scheme, relation)
    before = cluster.network.stats()
    result = cluster.apply_migration(plan)
    assert result.bytes_shipped == cluster.network.stats().diff(before).bytes
    assert result.bytes_shipped > 0
    rebuilt = cluster.reconstruct()
    assert set(rebuilt.tids()) == set(relation.tids())
    sample = next(iter(relation))
    back = rebuilt.get(sample.tid)
    assert all(back[a] == sample[a] for a in relation.schema.attribute_names)


def test_vertical_scale_in_reconstructs(generator, relation):
    scheme = generator.vertical_partitioner(4)
    cluster = Cluster.from_vertical(scheme, relation)
    plan = scheme.replan(n_sites=2)
    assert plan.retired_sites == (2, 3)
    cluster.apply_migration(plan)
    assert len(cluster) == 2
    assert set(cluster.reconstruct().tids()) == set(relation.tids())


def test_apply_migration_rejects_foreign_plan(generator, relation):
    scheme_a = generator.horizontal_partitioner(4)
    scheme_b = generator.horizontal_partitioner(3)
    plan = scheme_b.replan(n_sites=5)
    cluster = Cluster.from_horizontal(scheme_a, relation)
    with pytest.raises(ClusterError, match="different deployment"):
        cluster.apply_migration(plan)
    vertical_plan = generator.vertical_partitioner(3).replan(n_sites=2)
    with pytest.raises(ClusterError, match="vertical"):
        cluster.apply_migration(vertical_plan)


def test_apply_migration_rejects_invalid_target_site_ids(generator, relation):
    """scale(scheme=...) must hit the same site-id validation as a cold build."""
    scheme = generator.horizontal_partitioner(2)
    cluster = Cluster.from_horizontal(scheme, relation)
    key = relation.schema.key
    bad = HorizontalPartitioner(
        relation.schema,
        [
            HorizontalFragment("a", -1, BucketMap(key, 2, {0})),
            HorizontalFragment("b", 5, BucketMap(key, 2, {1})),
        ],
    )
    before = cluster.network.stats()
    with pytest.raises(ClusterError, match="non-negative"):
        cluster.apply_migration(scheme.replan(scheme=bad))
    assert cluster.site_ids() == [0, 1]  # nothing changed
    assert cluster.network.stats().diff(before).bytes == 0  # nothing charged


def test_migration_charged_to_ledger_as_migration_tag(generator, relation):
    scheme = generator.horizontal_partitioner(3)
    cluster = Cluster.from_horizontal(scheme, relation)
    net = cluster.network
    assert net.total_bytes == 0
    result = cluster.apply_migration(scheme.replan(n_sites=5))
    stats = net.stats()
    assert stats.bytes == result.bytes_shipped > 0
    assert stats.tuples_shipped == result.tuples_moved > 0


# -- warm state: no re-detection --------------------------------------------------------


@pytest.mark.parametrize("strategy,partitioning", [
    ("incVer", "vertical"),
    ("incHor", "horizontal"),
])
def test_scale_never_rede_tects_incremental(
    monkeypatch, generator, relation, cfds, strategy, partitioning
):
    if partitioning == "vertical":
        part = generator.vertical_partitioner(3)
    else:
        part = generator.horizontal_partitioner(3)
    sess = session(relation).partition(part).rules(cfds).strategy(strategy).build()
    sess.apply(generate_updates(relation, generator, 15, seed=5))
    before = {tid: sess.violations.cfds_of(tid) for tid in sess.violations.tids()}

    def boom(self, rel):
        raise AssertionError("scale() must not re-run batch detection")

    monkeypatch.setattr(CentralizedDetector, "detect", boom)
    event = sess.scale(sites=5)
    assert event.sites_after == 5
    after = {tid: sess.violations.cfds_of(tid) for tid in sess.violations.tids()}
    assert after == before  # migration does not change the logical database


def test_scale_single_site_raises(generator, relation, cfds):
    sess = session(relation).rules(cfds).strategy("centralized").build()
    with pytest.raises(SessionError, match="single-site"):
        sess.scale(sites=2)
    with pytest.raises(SessionError, match="single-site"):
        sess.rebalance()


def test_scale_on_closed_session_raises(generator, relation, cfds):
    sess = (
        session(relation)
        .partition(generator.horizontal_partitioner(3))
        .rules(cfds)
        .strategy("incHor")
        .build()
    )
    sess.close()
    with pytest.raises(SessionError, match="closed"):
        sess.scale(sites=4)


def test_rebalance_requires_hash_family(relation, cfds):
    schema = relation.schema
    scheme = HorizontalPartitioner(
        schema,
        [
            HorizontalFragment("lo", 0, AttributeRange("quantity", None, 25)),
            HorizontalFragment("hi", 1, AttributeRange("quantity", 25, None)),
        ],
    )
    sess = session(relation).partition(scheme).rules(cfds).strategy("incHor").build()
    with pytest.raises(SessionError, match="hash-family"):
        sess.rebalance()


# -- topology trace ---------------------------------------------------------------------


def test_topology_trace_in_report(generator, relation, cfds):
    sess = (
        session(relation)
        .partition(generator.horizontal_partitioner(3))
        .rules(cfds)
        .strategy("incHor")
        .build()
    )
    sess.apply(generate_updates(relation, generator, 20, seed=6))
    sess.scale(sites=5)
    sess.rebalance()
    report = sess.report()
    assert len(report.topology_trace) == 2
    scale_event, rebalance_event = report.topology_trace
    assert scale_event.kind == "scale-out" and scale_event.trigger == "manual"
    assert rebalance_event.kind == "rebalance"
    assert scale_event.sites_before == 3 and scale_event.sites_after == 5
    assert scale_event.tuples_moved > 0 and scale_event.bytes_shipped > 0
    payload = report.as_dict()["topology_trace"]
    assert payload[0]["kind"] == "scale-out"
    assert payload[0]["tuples_moved"] == scale_event.tuples_moved
    assert "topology trace" in report.summary()
    # Migration traffic is part of the session ledger the report shows.
    assert report.bytes_shipped >= scale_event.bytes_shipped


def test_ibat_migration_keeps_accrued_costs(generator, relation, cfds):
    """Rebinding ibatHor to the session ledger must not lose its history."""
    sess = (
        session(relation)
        .partition(generator.horizontal_partitioner(3))
        .rules(cfds)
        .strategy("ibatHor")
        .build()
    )
    sess.apply(generate_updates(relation, generator, 20, seed=7))
    accrued = sess.report().bytes_shipped
    assert accrued > 0
    event = sess.scale(sites=4)
    after = sess.report().bytes_shipped
    assert after >= accrued + event.bytes_shipped
    sess.close()


# -- skewed update generation (satellite) -----------------------------------------------


def test_skew_zero_matches_legacy_batches(generator, relation):
    a = generate_updates(relation, generator, 40, seed=9)
    b = generate_updates(relation, generator, 40, seed=9, skew=0.0)
    assert [(u.tid, u.kind) for u in a] == [(u.tid, u.kind) for u in b]


def test_skew_concentrates_hot_keys(generator, relation):
    key = relation.schema.key
    skewed = generate_updates(relation, generator, 300, seed=9, skew=1.5)
    uniform = generate_updates(relation, generator, 300, seed=9)

    def hottest_share(batch, n=4):
        hits = {}
        for u in batch:
            site = stable_hash(u.tuple[key]) % n
            hits[site] = hits.get(site, 0) + 1
        return max(hits.values()) / len(batch)

    assert hottest_share(skewed) > hottest_share(uniform) + 0.05
    assert len(skewed) == 300


def test_skew_validates(generator, relation):
    with pytest.raises(ValueError):
        generate_updates(relation, generator, 10, skew=-0.5)
    with pytest.raises(Exception):
        generate_updates(relation, generator, 10, skew=1.0, hot_attribute="nope")


# -- rebalance policy -------------------------------------------------------------------


def test_policy_fires_on_skew_and_not_on_balance():
    policy = RebalancePolicy(threshold=1.3, horizon_batches=50, min_hits=10)
    hot = policy.evaluate(
        n_sites=4,
        hottest_share=0.6,
        total_hits=500,
        hits_per_batch=50.0,
        cardinality=1000,
        avg_tuple_bytes=40.0,
    )
    assert hot.rebalance
    assert hot.skew_cost.local_work > 0 and hot.migrate_cost.bytes > 0
    balanced = policy.evaluate(
        n_sites=4,
        hottest_share=0.27,
        total_hits=500,
        hits_per_batch=50.0,
        cardinality=1000,
        avg_tuple_bytes=40.0,
    )
    assert not balanced.rebalance
    cold_start = policy.evaluate(
        n_sites=4,
        hottest_share=0.9,
        total_hits=3,
        hits_per_batch=3.0,
        cardinality=1000,
        avg_tuple_bytes=40.0,
    )
    assert not cold_start.rebalance and "hit" in cold_start.reason


def test_policy_validates():
    with pytest.raises(ValueError):
        RebalancePolicy(threshold=0.5)
    with pytest.raises(ValueError):
        RebalancePolicy(horizon_batches=0)
    with pytest.raises(ValueError):
        RebalancePolicy(granularity=0)


def test_auto_session_triggers_rebalance_itself(generator, cfds):
    base = generator.relation(200)
    policy = RebalancePolicy(
        threshold=1.05, horizon_batches=500, min_hits=8, local_work_bytes=1e6
    )
    sess = (
        session(base)
        .partition(generator.horizontal_partitioner(3))
        .rules(cfds)
        .strategy("auto")
        .rebalance_policy(policy)
        .build()
    )
    current = base
    for seed in range(3):
        batch = generate_updates(current, generator, 60, seed=seed, skew=1.5)
        sess.apply(batch)
        current = batch.apply_to(current)
        if any(e.trigger == "policy" for e in sess.topology_trace):
            break
    assert any(
        e.trigger == "policy" and e.kind == "rebalance" for e in sess.topology_trace
    )
    # The catalog of the adaptive planner sees the per-site loads.
    catalog = sess.detector.catalog
    assert catalog.site_loads
    # Detection is still correct after the policy-triggered migration.
    fresh = (
        session(current)
        .partition(sess.deployment.horizontal_partitioner)
        .rules(cfds)
        .strategy("incHor")
        .build()
    )
    mine = {t: sess.violations.cfds_of(t) for t in sess.violations.tids()}
    theirs = {t: fresh.violations.cfds_of(t) for t in fresh.violations.tids()}
    assert mine == theirs


def test_policy_parks_after_noop_rebalance(generator, cfds):
    """An unsplittable hot bucket must not trigger a migration per batch."""
    base = generator.relation(150)
    hot = next(iter(base))
    policy = RebalancePolicy(
        threshold=1.0, horizon_batches=500, min_hits=4, local_work_bytes=1e9
    )
    sess = (
        session(base)
        .partition(generator.horizontal_partitioner(3))
        .rules(cfds)
        .strategy("incHor")
        .rebalance_policy(policy)
        .build()
    )
    from repro.core.tuples import Tuple
    from repro.core.updates import Update, UpdateBatch

    next_tid = 10_000
    for _ in range(6):
        # Every update carries the same key value: one bucket takes 100%
        # of the load and no reassignment can improve anything.
        batch = UpdateBatch(
            [
                Update.insert(Tuple(next_tid + i, dict(hot)))
                for i in range(4)
            ]
        )
        next_tid += 4
        sess.apply(batch)
    noop_events = [e for e in sess.topology_trace if e.tuples_moved == 0]
    assert noop_events, "the policy should have tried (and recorded) one attempt"
    # Parking doubles the hit threshold after each fruitless attempt, so
    # attempts are log-spaced — far fewer than one per batch.
    assert len(sess.topology_trace) < 4, (
        f"policy kept re-firing no-op rebalances: {len(sess.topology_trace)} events"
    )
    fired_at = [e.batch_index for e in sess.topology_trace]
    assert fired_at == sorted(set(fired_at))
    assert 5 not in fired_at, "the last batch should fall inside the parked window"
    sess.close()


def test_scale_same_size_labeled_scale(generator, relation, cfds):
    sess = (
        session(relation)
        .partition(generator.horizontal_partitioner(3))
        .rules(cfds)
        .strategy("incHor")
        .build()
    )
    event = sess.scale(sites=3)
    assert event.kind == "scale"
    assert event.sites_before == event.sites_after == 3
    assert event.tuples_moved == 0
    sess.close()


def test_site_load_tracker_units():
    tracker = SiteLoadTracker("k", 8)
    for value in [0, 0, 1, 8, 9]:
        tracker.note_update({"k": value})
    assert tracker.total_hits == 5
    assert tracker.bucket_loads == {0: 3, 1: 2}
    owner = {0: 0, 1: 1}
    assert tracker.site_hits(owner) == {0: 3, 1: 2}
    assert tracker.hottest_share(owner) == pytest.approx(0.6)
    with pytest.raises(ValueError):
        SiteLoadTracker("k", 0)
