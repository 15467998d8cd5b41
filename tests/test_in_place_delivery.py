"""In-place update delivery: a batch lands in the live relation or fragments.

``UpdateBatch.apply_in_place`` mutates the logical relation and
``Cluster.deliver_updates`` the site fragments; both end in the same
state as applying the batch to a copy (and re-fragmenting it), keep the
relation and fragment objects alive, and reject a duplicate insertion
before anything mutates.
"""

import pytest

from repro.core.relation import Relation, RelationError
from repro.core.schema import Schema
from repro.core.tuples import Tuple
from repro.core.updates import Update, UpdateBatch
from repro.distributed.cluster import Cluster
from repro.distributed.network import Network
from repro.partition.horizontal import hash_horizontal_scheme
from repro.partition.vertical import even_vertical_scheme


@pytest.fixture
def schema():
    return Schema("R", ["id", "a", "b", "c"], key="id")


def make_relation(schema, n=20, storage="columnar"):
    return Relation.from_rows(
        schema,
        [{"id": i, "a": i % 3, "b": f"b{i % 4}", "c": f"c{i % 2}"} for i in range(n)],
        storage=storage,
    )


def _rows_of(relation):
    return sorted((t.tid, t["a"], t["b"], t["c"]) for t in relation)


def _batch(relation, schema):
    return UpdateBatch(
        [
            Update.delete(relation.get(1)),
            Update.insert(Tuple(40, {"id": 40, "a": 1, "b": "b1", "c": "c1"})),
            Update.insert(Tuple(41, {"id": 41, "a": 2, "b": "b2", "c": "c0"})),
            Update.delete(relation.get(5)),
        ]
    )


class TestInPlaceDelivery:
    def test_apply_in_place_matches_apply_to(self, schema):
        relation = make_relation(schema, n=10, storage="rows")
        batch = _batch(relation, schema)
        expected = batch.apply_to(relation)
        store_before = relation.store
        result = batch.apply_in_place(relation)
        assert result is relation
        assert relation.store is store_before
        assert _rows_of(relation) == _rows_of(expected)

    def test_duplicate_insert_leaves_relation_untouched(self, schema):
        relation = make_relation(schema, n=5, storage="rows")
        before = _rows_of(relation)
        bad = UpdateBatch(
            [
                Update.insert(Tuple(30, {"id": 30, "a": 0, "b": "b0", "c": "c0"})),
                Update.insert(Tuple(2, {"id": 2, "a": 0, "b": "b0", "c": "c0"})),
            ]
        )
        with pytest.raises(RelationError, match="duplicate tid"):
            bad.apply_in_place(relation)
        assert _rows_of(relation) == before

    def test_delete_then_reinsert_same_tid_is_fine(self, schema):
        relation = make_relation(schema, n=5, storage="rows")
        mod = UpdateBatch.modification(
            relation.get(2), Tuple(2, {"id": 2, "a": 9, "b": "bX", "c": "c0"})
        )
        mod.apply_in_place(relation)
        assert relation.get(2)["a"] == 9

    @pytest.mark.parametrize("storage", ["rows", "columnar"])
    def test_horizontal_delivery_matches_refragmenting(self, schema, storage):
        relation = make_relation(schema, n=20, storage=storage)
        partitioner = hash_horizontal_scheme(schema, 3)
        cluster = Cluster.from_horizontal(partitioner, relation, network=Network())
        batch = _batch(relation, schema)
        expected = Cluster.from_horizontal(
            partitioner, batch.apply_to(relation), network=Network()
        )
        stores_before = [site.fragment.store for site in cluster]
        cluster.deliver_updates(batch)
        for site, store in zip(cluster, stores_before):
            assert site.fragment.store is store  # fragments survive in place
        for site, ref in zip(cluster.sites(), expected.sites()):
            assert _rows_of(site.fragment) == _rows_of(ref.fragment)

    @pytest.mark.parametrize("storage", ["rows", "columnar"])
    def test_vertical_delivery_matches_refragmenting(self, schema, storage):
        relation = make_relation(schema, n=20, storage=storage)
        partitioner = even_vertical_scheme(schema, 2)
        cluster = Cluster.from_vertical(partitioner, relation, network=Network())
        batch = _batch(relation, schema)
        expected = Cluster.from_vertical(
            partitioner, batch.apply_to(relation), network=Network()
        )
        stores_before = [site.fragment.store for site in cluster]
        cluster.deliver_updates(batch)
        for site, store in zip(cluster, stores_before):
            assert site.fragment.store is store
        for site, ref in zip(cluster.sites(), expected.sites()):
            tids = sorted(t.tid for t in site.fragment)
            ref_tids = sorted(t.tid for t in ref.fragment)
            assert tids == ref_tids
            for tid in tids:
                assert dict(site.fragment.get(tid)) == dict(ref.fragment.get(tid))

    def test_horizontal_duplicate_insert_is_atomic(self, schema):
        relation = make_relation(schema, n=10)
        cluster = Cluster.from_horizontal(
            hash_horizontal_scheme(schema, 3), relation, network=Network()
        )
        before = [_rows_of(site.fragment) for site in cluster]
        bad = UpdateBatch(
            [
                Update.insert(Tuple(60, {"id": 60, "a": 0, "b": "b0", "c": "c0"})),
                Update.insert(Tuple(3, {"id": 3, "a": 0, "b": "b0", "c": "c0"})),
            ]
        )
        with pytest.raises(RelationError, match="duplicate tid"):
            cluster.deliver_updates(bad)
        assert [_rows_of(site.fragment) for site in cluster] == before
