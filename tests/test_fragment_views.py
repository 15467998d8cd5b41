"""Vertical fragments are views over one resident relation.

A vertical deployment holds one copy of the caller's relation; each site
reads it through a :class:`~repro.core.storage.ProjectionView` of its
fragment's attributes.  Pinned here, on rows, columnar and sql:

* site isolation — a tuple read through a fragment lacks the attributes
  outside it, a detection operation asked for one raises, and writes
  through a fragment raise (they go through the deployment);
* the views price, scan and pickle exactly as the per-site copies they
  replace, and ``reconstruct()`` is the resident relation itself;
* the memory win: an incVer session adds under 900 B per tuple (each
  fragment used to hold its own projected copy of every tuple).
"""

import gc
import pickle
import tracemalloc

import pytest

import repro
from repro.core.cfd import CFD
from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.core.storage import ProjectionView, StorageError
from repro.core.tuples import Tuple
from repro.core.updates import Update, UpdateBatch
from repro.distributed.cluster import Cluster
from repro.distributed.serialization import PriceTable
from repro.indexes.idx import CFDIndex
from repro.partition.vertical import VerticalPartitioner
from repro.rulefuse import compile_rule_set

STORAGES = ["rows", "columnar", "sql"]

SCHEMA = Schema("R", ["k", "a", "b", "c", "d"], key="k")

#: Site 1 stores ``(k, c)``: ``a`` is outside it.
LAYOUT = [["a", "b"], ["c"], ["d"]]


def make_relation(storage):
    rows = [
        {"k": i, "a": f"a{i % 3}", "b": f"b{i % 2}", "c": f"c{i % 4}", "d": i * 10}
        for i in range(1, 13)
    ]
    return Relation.from_rows(SCHEMA, rows).with_storage(storage)


@pytest.fixture(params=STORAGES)
def storage(request):
    return request.param


@pytest.fixture
def cluster(storage):
    return Cluster.from_vertical(VerticalPartitioner(SCHEMA, LAYOUT), make_relation(storage))


class TestOneResidentStore:
    def test_every_fragment_views_the_reconstructed_relation(self, cluster, storage):
        resident = cluster.reconstruct()
        assert resident is cluster.partition.resident
        assert resident is cluster.reconstruct()
        assert resident.storage == storage
        for site in cluster:
            assert isinstance(site.fragment.store, ProjectionView)
            assert site.fragment.store.resident is resident
            assert site.fragment.storage == storage

    def test_the_resident_relation_is_a_copy_of_the_callers(self, storage):
        relation = make_relation(storage)
        cluster = Cluster.from_vertical(VerticalPartitioner(SCHEMA, LAYOUT), relation)
        cluster.deliver_updates(UpdateBatch.of(Update.delete(relation[1])))
        assert 1 in relation and 1 not in cluster.reconstruct()

    def test_one_delivered_write_shows_through_every_fragment(self, cluster):
        new = Tuple(40, {"k": 40, "a": "a9", "b": "b9", "c": "c9", "d": 400})
        cluster.deliver_updates(
            UpdateBatch([Update.insert(new), Update.delete(cluster.reconstruct()[2])])
        )
        for site in cluster:
            fragment = site.fragment
            assert 40 in fragment and 2 not in fragment
            assert dict(fragment[40]) == {a: new[a] for a in fragment.schema.attribute_names}

    def test_views_scan_and_price_as_the_projections_did(self, cluster):
        prices = PriceTable()
        for site in cluster:
            view = site.fragment
            copy = cluster.reconstruct().project(view.schema.attribute_names)
            attrs = view.schema.attribute_names
            assert [t.as_dict() for t in view] == [t.as_dict() for t in copy]
            assert view.store.estimate_bytes() == copy.store.estimate_bytes()
            assert view.store.estimate_bytes(attrs[1:]) == copy.store.estimate_bytes(attrs[1:])
            assert view.store.distinct_counts() == copy.store.distinct_counts()
            pinned = {attrs[-1]: next(iter(copy))[attrs[-1]]}
            assert view.store.ship_scan(attrs, pinned, prices) == copy.store.ship_scan(
                attrs, pinned, prices
            )


class TestSiteIsolation:
    def test_reading_an_attribute_outside_the_fragment_raises(self, cluster):
        fragment = cluster.site(1).fragment
        assert fragment[3]["c"] == "c3"
        with pytest.raises(KeyError):
            fragment[3]["a"]
        assert all("a" not in t for t in fragment)

    def test_a_kernel_asked_for_an_outside_attribute_raises(self, cluster):
        store = cluster.site(1).fragment.store
        outside = CFD(["a"], "c", name="a_c")
        with pytest.raises(StorageError, match="outside this fragment"):
            store.ship_scan(["k", "a"], {}, PriceTable())
        with pytest.raises(StorageError, match="outside this fragment"):
            store.estimate_bytes(["a"])
        with pytest.raises(StorageError, match="outside this fragment"):
            store.check(compile_rule_set([outside]))
        with pytest.raises(StorageError, match="outside this fragment"):
            store.build_indexes([CFDIndex(outside)])
        with pytest.raises(StorageError, match="outside this fragment"):
            store.project(["k", "a"])

    def test_writes_through_a_fragment_raise(self, cluster):
        fragment = cluster.site(1).fragment
        before = [t.as_dict() for t in cluster.reconstruct()]
        with pytest.raises(StorageError, match="read-only view"):
            fragment.insert(Tuple(50, {"k": 50, "c": "c0"}))
        with pytest.raises(StorageError, match="read-only view"):
            fragment.delete(3)
        with pytest.raises(StorageError, match="read-only view"):
            fragment.discard(3)
        assert [t.as_dict() for t in cluster.reconstruct()] == before


class TestMigrationIsMetadata:
    def test_scale_re_views_the_same_resident_relation(self, cluster):
        resident = cluster.reconstruct()
        before = cluster.network.stats()
        result = cluster.apply_migration(cluster.vertical_partitioner.replan(n_sites=2))
        assert cluster.reconstruct() is resident
        assert result.bytes_shipped == cluster.network.stats().diff(before).bytes > 0
        assert result.tuples_moved == len(resident) * len(result.moved)
        for site in cluster:
            assert site.fragment.store.resident is resident


def test_a_fragment_pickles_as_its_projection(cluster):
    fragment = cluster.site(1).fragment
    clone = pickle.loads(pickle.dumps(fragment))
    assert not isinstance(clone.store, ProjectionView)
    assert clone.store.attributes == ("k", "c")
    assert [t.as_dict() for t in clone] == [t.as_dict() for t in fragment]
    with pytest.raises(TypeError):
        pickle.dumps(fragment.store)


def test_an_incver_session_adds_under_900_bytes_per_tuple():
    """At |D| = 2*10^4 it used to add 2 031 B: one projected copy of every
    tuple per fragment, on top of the IDX."""
    n = 20_000
    generator = repro.TPCHGenerator(seed=7)
    relation = generator.relation(n)
    cfds = repro.generate_cfds(generator.fd_specs(), 10, seed=7)
    partitioner = generator.vertical_partitioner(8)
    gc.collect()
    tracemalloc.start()
    try:
        sess = (
            repro.session(relation).partition(partitioner).rules(cfds)
            .strategy("incVer").storage("rows").build()
        )
        gc.collect()
        added, _peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    sess.close()
    assert added / n <= 900
