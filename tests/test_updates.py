"""Tests for the update/delta model."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.core.tuples import Tuple
from repro.core.updates import Update, UpdateBatch, UpdateKind


@pytest.fixture
def schema():
    return Schema("R", ["k", "a", "b"], key="k")


def row(tid, a="x", b="y"):
    return Tuple(tid, {"k": tid, "a": a, "b": b})


class TestUpdate:
    def test_insert_constructor(self):
        u = Update.insert(row(1))
        assert u.is_insert() and not u.is_delete()
        assert u.kind is UpdateKind.INSERT
        assert u.tid == 1

    def test_delete_constructor(self):
        u = Update.delete(row(2))
        assert u.is_delete()
        assert u.tuple["a"] == "x"


class TestUpdateBatchBasics:
    def test_of_and_len(self):
        batch = UpdateBatch.of(Update.insert(row(1)), Update.delete(row(2)))
        assert len(batch) == 2
        assert batch[0].is_insert()

    def test_inserts_and_deletes_factories(self):
        ins = UpdateBatch.inserts([row(1), row(2)])
        assert len(ins.insertions) == 2 and not ins.deletions
        dels = UpdateBatch.deletes([row(3)])
        assert len(dels.deletions) == 1 and not dels.insertions

    def test_modification_is_delete_then_insert(self):
        batch = UpdateBatch.modification(row(1, a="old"), row(1, a="new"))
        assert [u.kind for u in batch] == [UpdateKind.DELETE, UpdateKind.INSERT]

    def test_sublists_preserve_order(self):
        batch = UpdateBatch.of(
            Update.insert(row(1)), Update.delete(row(2)), Update.insert(row(3))
        )
        assert [u.tid for u in batch.insertions] == [1, 3]
        assert [u.tid for u in batch.deletions] == [2]

    def test_inserted_and_deleted_tuples(self):
        batch = UpdateBatch.of(Update.insert(row(1)), Update.delete(row(2)))
        assert [t.tid for t in batch.inserted_tuples()] == [1]
        assert [t.tid for t in batch.deleted_tuples()] == [2]

    def test_tids(self):
        batch = UpdateBatch.of(Update.insert(row(1)), Update.delete(row(2)))
        assert batch.tids() == {1, 2}

    def test_append_and_extend(self):
        batch = UpdateBatch()
        batch.append(Update.insert(row(1)))
        batch.extend([Update.delete(row(2))])
        assert len(batch) == 2


class TestNormalization:
    def test_insert_then_delete_cancels(self):
        batch = UpdateBatch.of(Update.insert(row(1)), Update.delete(row(1)))
        assert len(batch.normalized()) == 0

    def test_delete_then_insert_is_preserved(self):
        batch = UpdateBatch.of(Update.delete(row(1, a="old")), Update.insert(row(1, a="new")))
        normalized = batch.normalized()
        assert [u.kind for u in normalized] == [UpdateKind.DELETE, UpdateKind.INSERT]

    def test_repeated_same_kind_collapsed(self):
        batch = UpdateBatch.of(Update.insert(row(1, a="v1")), Update.insert(row(1, a="v2")))
        normalized = batch.normalized()
        assert len(normalized) == 1
        assert normalized[0].tuple["a"] == "v2"

    def test_unrelated_updates_untouched(self):
        batch = UpdateBatch.of(Update.insert(row(1)), Update.delete(row(2)))
        assert len(batch.normalized()) == 2

    def test_insert_delete_insert_keeps_last_insert(self):
        batch = UpdateBatch.of(
            Update.insert(row(1, a="v1")),
            Update.delete(row(1, a="v1")),
            Update.insert(row(1, a="v2")),
        )
        normalized = batch.normalized()
        assert len(normalized) == 1
        assert normalized[0].is_insert()
        assert normalized[0].tuple["a"] == "v2"


def quadratic_normalized(updates):
    """The backward-scanning ``normalized()`` this module used to have (oracle)."""
    surviving = []
    for update in updates:
        cancelled = False
        if update.is_delete():
            for i in range(len(surviving) - 1, -1, -1):
                prior = surviving[i]
                if prior.tid == update.tid:
                    if prior.is_insert():
                        del surviving[i]
                        cancelled = True
                    break
        if not cancelled:
            for i in range(len(surviving) - 1, -1, -1):
                prior = surviving[i]
                if prior.tid == update.tid and prior.kind == update.kind:
                    del surviving[i]
                    break
            surviving.append(update)
    return surviving


class TestNormalizationMatchesQuadraticOracle:
    # Few tids and many updates: long insert/delete histories per tid.
    @given(
        st.lists(
            st.tuples(st.booleans(), st.integers(1, 4), st.integers(0, 50)),
            max_size=40,
        )
    )
    def test_same_updates_in_the_same_order(self, draws):
        updates = [
            (Update.insert if inserting else Update.delete)(row(tid, a=version))
            for inserting, tid, version in draws
        ]
        normalized = list(UpdateBatch(updates).normalized())
        expected = quadratic_normalized(updates)
        assert len(normalized) == len(expected)
        # the very same Update objects, element for element
        assert all(got is want for got, want in zip(normalized, expected))

    def test_linear_in_the_batch_size(self):
        # 20 000 updates on distinct tids took tens of seconds quadratically.
        batch = UpdateBatch.inserts(row(tid) for tid in range(20_000))
        batch.extend(Update.delete(row(tid)) for tid in range(0, 20_000, 2))
        assert [u.tid for u in batch.normalized()] == list(range(1, 20_000, 2))


class TestApplication:
    def test_apply_to_inserts_and_deletes(self, schema):
        base = Relation(schema, [row(1), row(2)])
        batch = UpdateBatch.of(Update.delete(row(2)), Update.insert(row(3)))
        updated = batch.apply_to(base)
        assert updated.tids() == {1, 3}
        assert base.tids() == {1, 2}

    def test_repr_counts(self):
        batch = UpdateBatch.of(Update.insert(row(1)), Update.delete(row(2)))
        assert "+1" in repr(batch) and "-1" in repr(batch)
