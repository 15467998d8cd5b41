"""Hash layouts route with one bucket lookup; the answer is the predicate sweep's.

``HorizontalPartitioner.route_tuple`` looks a hash-family scheme's site
up in a bucket -> site table instead of calling every fragment's
predicate.  These tests hold that table to the sweep it replaces, on the
layouts a deployment goes through (``HashBucket`` schemes, and the
``BucketMap`` schemes that ``replan(n_sites=...)`` and
``rebalance_plan(...)`` produce), and check that schemes that are not an
exact bucket cover keep the sweep and its ``PartitionError``s.
"""

import pytest

from repro.core.schema import Schema
from repro.core.tuples import Tuple
from repro.partition.horizontal import (
    HorizontalFragment,
    HorizontalPartitioner,
    hash_horizontal_scheme,
)
from repro.partition.predicates import AttributeRange, BucketMap, HashBucket
from repro.partition.vertical import PartitionError
from repro.workloads.tpch import TPCHGenerator

N_TUPLES = 1200


@pytest.fixture(scope="module")
def relation():
    return TPCHGenerator(seed=7).relation(N_TUPLES)


def sweep(partitioner, t):
    """Every site whose fragment predicate accepts ``t``."""
    return [frag.site for frag in partitioner.fragments if frag.predicate(t)]


def assert_routes_like_sweep(partitioner, relation):
    assert partitioner.hash_family() is not None
    routed = 0
    for t in relation:
        assert sweep(partitioner, t) == [partitioner.route_tuple(t)]
        routed += 1
    assert routed >= 1000


def _key_scheme(relation):
    return hash_horizontal_scheme(relation.schema, 8)


def _string_scheme(relation):
    return hash_horizontal_scheme(relation.schema, 5, attribute="cname")


LAYOUTS = {
    "hash-bucket-key": _key_scheme,
    "hash-bucket-string": _string_scheme,
    "replan-in": lambda r: _key_scheme(r).replan(n_sites=3).target,
    "replan-out": lambda r: _key_scheme(r).replan(n_sites=13).target,
    "replan-string": lambda r: _string_scheme(r).replan(n_sites=7).target,
    "rebalance": lambda r: _key_scheme(r).rebalance_plan(
        {b: (100.0 if b % 8 == 0 else 1.0) for b in range(32)}, n_buckets=32
    ).target,
    "rebalance-after-replan": lambda r: _key_scheme(r)
    .replan(n_sites=5)
    .target.rebalance_plan({b: float(b) for b in range(40)}, n_buckets=40)
    .target,
}


@pytest.mark.parametrize("layout", sorted(LAYOUTS))
def test_route_equals_predicate_sweep(layout, relation):
    assert_routes_like_sweep(LAYOUTS[layout](relation), relation)


def test_bucket_map_layouts_are_bucket_maps(relation):
    for layout in ("replan-in", "replan-out", "rebalance"):
        partitioner = LAYOUTS[layout](relation)
        assert all(isinstance(f.predicate, BucketMap) for f in partitioner.fragments)


def test_fragment_splits_by_route(relation):
    partitioner = LAYOUTS["rebalance"](relation)
    partition = partitioner.fragment(relation)
    for site in partitioner.sites():
        predicate = partitioner.fragment_for_site(site).predicate
        assert partition.fragment_at(site).tids() == {t.tid for t in relation if predicate(t)}


# -- schemes that are not an exact bucket cover keep the sweep ---------------------------


def row(tid, x):
    return Tuple(tid, {"k": tid, "x": x})


@pytest.fixture
def schema():
    return Schema("R", ["k", "x"], key="k")


def test_predicate_scheme_uncovered_raises(schema):
    partitioner = HorizontalPartitioner(
        schema, [AttributeRange("x", 0, 10), AttributeRange("x", 10, 20)]
    )
    assert partitioner.hash_family() is None
    assert partitioner.route_tuple(row(1, 15)) == 1
    with pytest.raises(PartitionError):
        partitioner.route_tuple(row(2, 25))


def test_predicate_scheme_covered_twice_raises(schema):
    partitioner = HorizontalPartitioner(
        schema, [AttributeRange("x", 0, 10), AttributeRange("x", 5, 20)]
    )
    with pytest.raises(PartitionError):
        partitioner.route_tuple(row(1, 7))


def test_hash_scheme_missing_a_bucket_raises(schema):
    partitioner = HorizontalPartitioner(
        schema, [HashBucket("k", 3, 0), HashBucket("k", 3, 1)]
    )
    assert partitioner.hash_family() is None
    assert partitioner.route_tuple(row(3, 0)) == 0
    with pytest.raises(PartitionError):
        partitioner.route_tuple(row(2, 0))


def test_hash_scheme_owning_a_bucket_twice_raises(schema):
    partitioner = HorizontalPartitioner(
        schema,
        [
            HorizontalFragment("H1", 0, BucketMap("k", 4, {0, 1})),
            HorizontalFragment("H2", 1, BucketMap("k", 4, {1, 2, 3})),
        ],
    )
    assert partitioner.hash_family() is None
    assert partitioner.route_tuple(row(4, 0)) == 0
    with pytest.raises(PartitionError):
        partitioner.route_tuple(row(5, 0))
