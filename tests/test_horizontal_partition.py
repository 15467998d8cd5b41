"""Tests for horizontal fragmentation."""

import pytest

from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.core.tuples import Tuple
from repro.partition.horizontal import (
    HorizontalFragment,
    HorizontalPartitioner,
    hash_horizontal_scheme,
)
from repro.partition.predicates import AttributeEquals, AttributeRange
from repro.partition.vertical import PartitionError


@pytest.fixture
def schema():
    return Schema("R", ["k", "grade", "x"], key="k")


@pytest.fixture
def partitioner(schema):
    return HorizontalPartitioner(
        schema,
        [
            HorizontalFragment("H1", 0, AttributeEquals("grade", "A")),
            HorizontalFragment("H2", 1, AttributeEquals("grade", "B")),
        ],
    )


def row(tid, grade, x=0):
    return Tuple(tid, {"k": tid, "grade": grade, "x": x})


@pytest.fixture
def relation(schema):
    return Relation(schema, [row(1, "A"), row(2, "B"), row(3, "A"), row(4, "B")])


class TestSchemeConstruction:
    def test_predicates_without_explicit_fragments(self, schema):
        partitioner = HorizontalPartitioner(
            schema, [AttributeEquals("grade", "A"), AttributeEquals("grade", "B")]
        )
        assert partitioner.n_fragments == 2
        assert partitioner.fragments[0].name.endswith("H1")

    def test_empty_scheme_rejected(self, schema):
        with pytest.raises(PartitionError):
            HorizontalPartitioner(schema, [])

    def test_duplicate_sites_rejected(self, schema):
        with pytest.raises(PartitionError):
            HorizontalPartitioner(
                schema,
                [
                    HorizontalFragment("H1", 0, AttributeEquals("grade", "A")),
                    HorizontalFragment("H2", 0, AttributeEquals("grade", "B")),
                ],
            )

    def test_fragment_for_site(self, partitioner):
        assert partitioner.fragment_for_site(1).name == "H2"
        with pytest.raises(PartitionError):
            partitioner.fragment_for_site(5)


class TestRouting:
    def test_route_tuple(self, partitioner):
        assert partitioner.route_tuple(row(1, "A")) == 0
        assert partitioner.route_tuple(row(2, "B")) == 1

    def test_route_no_match_raises(self, partitioner):
        with pytest.raises(PartitionError):
            partitioner.route_tuple(row(3, "C"))

    def test_route_overlapping_predicates_raise(self, schema):
        partitioner = HorizontalPartitioner(
            schema,
            [AttributeRange("x", 0, 10), AttributeRange("x", 5, 20)],
        )
        with pytest.raises(PartitionError):
            partitioner.route_tuple(row(1, "A", x=7))


class TestFragmentation:
    def test_fragment_and_reconstruct(self, partitioner, relation):
        partition = partitioner.fragment(relation)
        assert partition.fragment_at(0).tids() == {1, 3}
        assert partition.fragment_at(1).tids() == {2, 4}
        rebuilt = partition.reconstruct()
        assert rebuilt.tids() == relation.tids()
        for t in relation:
            assert dict(rebuilt[t.tid]) == dict(t)

    def test_total_tuples_preserved(self, partitioner, relation):
        assert partitioner.fragment(relation).total_tuples() == len(relation)

    def test_unknown_site(self, partitioner, relation):
        with pytest.raises(PartitionError):
            partitioner.fragment(relation).fragment_at(9)


class TestHashScheme:
    def test_hash_scheme_is_total(self, schema):
        partitioner = hash_horizontal_scheme(schema, 4)
        relation = Relation(schema, [row(i, "A") for i in range(1, 40)])
        partition = partitioner.fragment(relation)
        assert partition.total_tuples() == 39
        assert partition.reconstruct().tids() == relation.tids()

    def test_hash_scheme_on_named_attribute(self, schema):
        partitioner = hash_horizontal_scheme(schema, 3, attribute="grade")
        assert partitioner.fragments[0].predicate.attributes() == frozenset({"grade"})

    def test_zero_fragments_rejected(self, schema):
        with pytest.raises(PartitionError):
            hash_horizontal_scheme(schema, 0)
