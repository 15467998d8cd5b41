"""Tests for repro.core.relation."""

import pickle

import pytest

from repro.core.relation import Relation, RelationError
from repro.core.schema import Schema, SchemaError
from repro.core.tuples import Tuple


@pytest.fixture
def schema() -> Schema:
    return Schema("R", ["k", "a", "b"], key="k")


def row(tid, a, b):
    return Tuple(tid, {"k": tid, "a": a, "b": b})


class TestRelationBasics:
    def test_empty_relation(self, schema):
        rel = Relation(schema)
        assert len(rel) == 0
        assert list(rel) == []

    def test_insert_and_lookup(self, schema):
        rel = Relation(schema)
        rel.insert(row(1, "x", "y"))
        assert 1 in rel
        assert rel[1]["a"] == "x"
        assert rel.get(1) is not None
        assert rel.get(99) is None

    def test_duplicate_tid_rejected(self, schema):
        rel = Relation(schema, [row(1, "x", "y")])
        with pytest.raises(RelationError):
            rel.insert(row(1, "z", "w"))

    def test_missing_attributes_rejected(self, schema):
        rel = Relation(schema)
        with pytest.raises(RelationError):
            rel.insert(Tuple(1, {"k": 1, "a": "only a"}))

    def test_extra_attributes_rejected(self, schema):
        rel = Relation(schema)
        with pytest.raises(RelationError):
            rel.insert(Tuple(1, {"k": 1, "a": "x", "b": "y", "z": "extra"}))

    def test_bad_attributes_rejected_after_a_good_layout_passed(self, schema):
        """The check is remembered per attribute list, never per relation."""
        rel = Relation(schema)
        rel.insert(row(1, "x", "y"))
        rel.insert(row(2, "x", "y"))  # same layout: the remembered verdict
        for survivor in (rel, pickle.loads(pickle.dumps(rel))):
            with pytest.raises(RelationError, match="missing"):
                survivor.insert(Tuple(3, {"k": 3, "a": "x"}))
            with pytest.raises(RelationError, match="not in schema"):
                survivor.insert(Tuple(3, {"k": 3, "a": "x", "b": "y", "zzz": 0}))
            survivor.insert(Tuple(3, {"b": "y", "a": "x", "k": 3}))  # other order: fine
            survivor.insert(row(4, "x", "y"))
            with pytest.raises(RelationError, match="missing"):
                survivor.insert(Tuple(5, {"k": 5, "b": "y"}))
            assert sorted(survivor.tids()) == [1, 2, 3, 4]

    def test_delete(self, schema):
        rel = Relation(schema, [row(1, "x", "y")])
        deleted = rel.delete(1)
        assert deleted.tid == 1
        assert 1 not in rel

    def test_delete_unknown_raises(self, schema):
        rel = Relation(schema)
        with pytest.raises(RelationError):
            rel.delete(42)

    def test_discard_is_silent(self, schema):
        rel = Relation(schema)
        assert rel.discard(42) is None

    def test_getitem_unknown_raises(self, schema):
        rel = Relation(schema)
        with pytest.raises(RelationError):
            rel[5]

    def test_tids(self, schema):
        rel = Relation(schema, [row(1, "x", "y"), row(2, "p", "q")])
        assert rel.tids() == {1, 2}

    def test_from_rows(self, schema):
        rel = Relation.from_rows(schema, [{"k": 3, "a": "u", "b": "v"}])
        assert rel[3]["b"] == "v"

    def test_copy_is_independent(self, schema):
        rel = Relation(schema, [row(1, "x", "y")])
        clone = rel.copy()
        clone.delete(1)
        assert 1 in rel
        assert 1 not in clone


class TestRelationAlgebra:
    @pytest.fixture
    def rel(self, schema):
        return Relation(schema, [row(1, "x", "y"), row(2, "x", "z"), row(3, "w", "y")])

    def test_project_keeps_key_and_attrs(self, rel):
        projected = rel.project(["a"])
        assert set(projected.schema.attribute_names) == {"k", "a"}
        assert len(projected) == 3
        assert projected[2]["a"] == "x"

    def test_select(self, rel):
        selected = rel.select(lambda t: t["a"] == "x")
        assert selected.tids() == {1, 2}

    def test_join_reconstructs(self, rel, schema):
        left = rel.project(["a"])
        right = rel.project(["b"])
        joined = left.join(right, name="R")
        assert joined.tids() == rel.tids()
        for t in rel:
            assert joined[t.tid]["a"] == t["a"]
            assert joined[t.tid]["b"] == t["b"]

    def test_join_only_common_tids(self, schema, rel):
        other = Relation(schema.project(["b"]), [Tuple(1, {"k": 1, "b": "y"})])
        joined = rel.project(["a"]).join(other)
        assert joined.tids() == {1}

    def test_union(self, schema):
        left = Relation(schema, [row(1, "x", "y")])
        right = Relation(schema, [row(2, "p", "q")])
        combined = left.union(right)
        assert combined.tids() == {1, 2}

    def test_union_requires_same_attributes(self, schema, rel):
        other = Relation(Schema("S", ["k", "a"], key="k"))
        with pytest.raises(SchemaError):
            rel.union(other)

    def test_union_duplicate_tid_raises(self, schema):
        left = Relation(schema, [row(1, "x", "y")])
        right = Relation(schema, [row(1, "x", "y")])
        with pytest.raises(RelationError):
            left.union(right)
