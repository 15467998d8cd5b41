"""Tests for vertical fragmentation."""

import pytest

from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.core.tuples import Tuple
from repro.partition.vertical import (
    PartitionError,
    VerticalFragment,
    VerticalPartitioner,
    even_vertical_scheme,
)


@pytest.fixture
def schema():
    return Schema("R", ["k", "a", "b", "c", "d"], key="k")


@pytest.fixture
def partitioner(schema):
    return VerticalPartitioner(schema, [["a", "b"], ["c"], ["d"]])


@pytest.fixture
def relation(schema):
    rows = [
        {"k": i, "a": f"a{i}", "b": f"b{i % 2}", "c": f"c{i}", "d": i * 10}
        for i in range(1, 6)
    ]
    return Relation.from_rows(schema, rows)


class TestSchemeConstruction:
    def test_key_added_to_every_fragment(self, partitioner, schema):
        for frag in partitioner.fragments:
            assert schema.key in frag.attributes

    def test_sites_are_distinct(self, partitioner):
        assert sorted(partitioner.sites()) == [0, 1, 2]

    def test_all_attributes_must_be_covered(self, schema):
        with pytest.raises(PartitionError):
            VerticalPartitioner(schema, [["a"], ["b"]])

    def test_unknown_attribute_rejected(self, schema):
        from repro.core.schema import SchemaError

        with pytest.raises(SchemaError):
            VerticalPartitioner(schema, [["a", "zzz"], ["b", "c", "d"]])

    def test_explicit_fragments_with_duplicate_sites_rejected(self, schema):
        with pytest.raises(PartitionError):
            VerticalPartitioner(
                schema,
                [
                    VerticalFragment("F1", 0, ("k", "a", "b")),
                    VerticalFragment("F2", 0, ("k", "c", "d")),
                ],
            )

    def test_empty_fragment_rejected(self):
        with pytest.raises(PartitionError):
            VerticalFragment("F", 0, ())

    def test_replication_allowed(self, schema):
        partitioner = VerticalPartitioner(schema, [["a", "b"], ["b", "c", "d"]])
        assert partitioner.sites_with_attribute("b") == [0, 1]


class TestLookups:
    def test_fragment_for_site(self, partitioner):
        assert partitioner.fragment_for_site(1).attributes == ("k", "c")
        with pytest.raises(PartitionError):
            partitioner.fragment_for_site(99)

    def test_home_site(self, partitioner):
        assert partitioner.home_site("c") == 1
        with pytest.raises(PartitionError):
            partitioner.home_site("zzz")

    def test_is_local(self, partitioner):
        assert partitioner.is_local(["a", "b"]) == 0
        assert partitioner.is_local(["a", "c"]) is None
        assert partitioner.is_local(["k", "d"]) == 2


class TestFragmentation:
    def test_fragment_and_reconstruct(self, partitioner, relation):
        partition = partitioner.fragment(relation)
        rebuilt = partition.reconstruct()
        assert rebuilt.tids() == relation.tids()
        for t in relation:
            assert dict(rebuilt[t.tid]) == dict(t)

    def test_fragment_shapes(self, partitioner, relation):
        partition = partitioner.fragment(relation)
        frag0 = partition.fragment_at(0)
        assert set(frag0.schema.attribute_names) == {"k", "a", "b"}
        assert len(frag0) == len(relation)

    def test_fragment_unknown_site(self, partitioner, relation):
        partition = partitioner.fragment(relation)
        with pytest.raises(PartitionError):
            partition.fragment_at(7)

    def test_total_tuples(self, partitioner, relation):
        partition = partitioner.fragment(relation)
        assert partition.total_tuples() == 3 * len(relation)

    def test_wrong_schema_rejected(self, partitioner):
        other = Relation(Schema("S", ["k", "x"], key="k"))
        with pytest.raises(PartitionError):
            partitioner.fragment(other)


def _join_fold(fragments, schema):
    """The reference reconstruction: pairwise ``Relation.join`` in order,
    then every tuple re-ordered to the schema."""
    joined = fragments[0]
    for fragment in fragments[1:]:
        joined = joined.join(fragment)
    return [(t.tid, t.project(schema.attribute_names).as_dict()) for t in joined]


def _rows(relation):
    return [(t.tid, t.as_dict()) for t in relation]


def _projections(relation, partitioner):
    """One independently built projection of ``relation`` per fragment."""
    return [relation.project(frag.attributes) for frag in partitioner.fragments]


def _key_join(fragments, schema):
    """The n-ary key join, in one call to the first fragment's store."""
    first, *rest = fragments
    return Relation(
        schema, storage=first.store.join([f.store for f in rest], schema.attribute_names)
    )


class TestOnePassReconstruction:
    @pytest.mark.parametrize("storage", ["rows", "sql"])
    @pytest.mark.parametrize("replicate", [None, {"a": [1, 2], "d": [0]}])
    def test_equals_the_join_fold(self, schema, relation, storage, replicate):
        partitioner = even_vertical_scheme(schema, 3, replicate=replicate)
        partition = partitioner.fragment(relation.with_storage(storage))
        rebuilt = partition.reconstruct()
        assert rebuilt.storage == storage
        fragments = [partition.fragment_at(site) for site in partition.sites()]
        assert _rows(rebuilt) == _join_fold(fragments, schema)
        assert _rows(rebuilt) == _rows(relation)

    @pytest.mark.parametrize("storage", ["rows", "sql"])
    def test_attributes_come_out_in_schema_order(self, schema, relation, storage):
        partitioner = VerticalPartitioner(schema, [["d", "b"], ["c", "a"], ["b"]])
        rebuilt = partitioner.fragment(relation.with_storage(storage)).reconstruct()
        assert rebuilt.schema.attribute_names == schema.attribute_names
        for t in rebuilt:
            assert tuple(t) == schema.attribute_names

    def test_conflicting_replicated_value_raises(self, schema, relation):
        partitioner = even_vertical_scheme(schema, 2, replicate={"a": [1]})
        fragments = _projections(relation, partitioner)
        replica = fragments[1]
        replica.insert(replica.delete(3).with_values(a="other"))
        with pytest.raises(ValueError, match="conflicting values for attribute 'a'"):
            _key_join(fragments, schema)

    def test_tid_missing_from_one_fragment_drops_out(self, schema, relation):
        partitioner = VerticalPartitioner(schema, [["a", "b"], ["c"], ["d"]])
        fragments = _projections(relation, partitioner)
        fragments[1].delete(2)
        rebuilt = _key_join(fragments, schema)
        assert list(rebuilt.tids()) == [1, 3, 4, 5]
        assert _rows(rebuilt) == _join_fold(fragments, schema)

    def test_tuples_inserted_in_another_attribute_order(self, schema, relation):
        partitioner = even_vertical_scheme(schema, 2, replicate={"a": [1]})
        fragments = _projections(relation, partitioner)
        extra = Tuple(9, {"k": 9, "a": "A", "b": "B", "c": "C", "d": "D"})
        for frag, fragment in zip(partitioner.fragments, fragments):
            # The scheme lists a replica after the fragment's own attributes;
            # the fragment relation keeps schema order.  Both layouts mix.
            fragment.insert(extra.project(frag.attributes))
        rebuilt = _key_join(fragments, schema)
        assert rebuilt[9].as_dict() == extra.as_dict()
        assert _rows(rebuilt) == _join_fold(fragments, schema)

    def test_columnar_path_unchanged(self, schema, relation):
        partitioner = even_vertical_scheme(schema, 3, replicate={"a": [1]})
        rebuilt = partitioner.fragment(relation.with_storage("columnar")).reconstruct()
        assert rebuilt.storage == "columnar"
        assert _rows(rebuilt) == _rows(relation)


class TestEvenScheme:
    def test_covers_all_attributes(self, schema):
        partitioner = even_vertical_scheme(schema, 3)
        covered = {a for f in partitioner.fragments for a in f.attributes}
        assert covered == set(schema.attribute_names)

    def test_caps_fragments_at_attribute_count(self, schema):
        partitioner = even_vertical_scheme(schema, 50)
        assert partitioner.n_fragments == len(schema.non_key_attributes())

    def test_replication_argument(self, schema):
        partitioner = even_vertical_scheme(schema, 2, replicate={"a": [1]})
        assert sorted(partitioner.sites_with_attribute("a")) == [0, 1]

    def test_invalid_replication_site(self, schema):
        with pytest.raises(PartitionError):
            even_vertical_scheme(schema, 2, replicate={"a": [9]})

    def test_zero_fragments_rejected(self, schema):
        with pytest.raises(PartitionError):
            even_vertical_scheme(schema, 0)
