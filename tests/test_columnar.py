"""Unit tests for the columnar storage backend and its kernels."""

import pickle
import random
import time

import pytest

from repro.columnar import ColumnStore, ValueDictionary, column_store_of
from repro.columnar.masks import FEW_BITS, iter_mask_rows, mask_to_tids, rows_to_mask
from repro.core.cfd import CFD
from repro.core.detector import CentralizedDetector
from repro.core.relation import Relation, RelationError
from repro.core.schema import Schema
from repro.core.storage import StorageError, make_storage, storage_backend_names
from repro.core.tuples import Tuple
from repro.distributed.network import Network
from repro.distributed.serialization import (
    encode_relation_columns,
    estimate_column_bytes,
    estimate_relation_bytes,
    ship_fragment,
)
from repro.indexes.idx import CFDIndex


@pytest.fixture
def schema():
    return Schema("R", ["id", "a", "b", "c"], key="id")


def make_relation(schema, n=20, storage="rows"):
    return Relation.from_rows(
        schema,
        [
            {"id": i, "a": i % 3, "b": f"b{i % 4}", "c": f"c{i % 2}"}
            for i in range(n)
        ],
        storage=storage,
    )


class TestValueDictionary:
    def test_equal_values_share_a_code(self):
        d = ValueDictionary()
        assert d.intern("x") == d.intern("x")
        assert d.intern("x") != d.intern("y")
        assert len(d) == 2

    def test_decode_returns_representative(self):
        d = ValueDictionary()
        code = d.intern("hello")
        assert d.value(code) == "hello"
        assert d.code_of("hello") == code
        assert d.code_of("absent") is None

    def test_byte_sizes_are_cached_per_code(self):
        d = ValueDictionary()
        assert d.byte_size(d.intern("abc")) == 3
        assert d.byte_size(d.intern(7)) == 8
        assert d.byte_size(d.intern(None)) == 1

    def test_unhashable_values_fall_back_to_equality_scan(self):
        d = ValueDictionary()
        c1 = d.intern([1, 2])
        c2 = d.intern([1, 2])
        c3 = d.intern([3])
        assert c1 == c2 and c1 != c3
        assert d.value(c1) == [1, 2]
        assert d.code_of([3]) == c3
        assert d.code_of([9]) is None


class TestStorageRegistry:
    def test_builtin_names(self):
        assert "rows" in storage_backend_names()
        assert "columnar" in storage_backend_names()

    def test_unknown_backend_raises(self, schema):
        with pytest.raises(StorageError, match="unknown storage backend"):
            make_storage("parquet", schema)

    def test_relation_storage_property(self, schema):
        assert Relation(schema).storage == "rows"
        assert Relation(schema, storage="columnar").storage == "columnar"


class TestColumnStoreRelation:
    """The columnar backend must be observably identical to the row backend."""

    def test_roundtrip_preserves_tuples_and_order(self, schema):
        rows = make_relation(schema)
        cols = rows.with_storage("columnar")
        assert cols.storage == "columnar"
        assert [t.tid for t in cols] == [t.tid for t in rows]
        assert list(cols) == list(rows)
        assert cols.with_storage("rows").storage == "rows"
        assert list(cols.with_storage("rows")) == list(rows)

    def test_with_storage_same_backend_is_identity(self, schema):
        rows = make_relation(schema)
        assert rows.with_storage("rows") is rows

    def test_lookup_and_membership(self, schema):
        cols = make_relation(schema, storage="columnar")
        assert 3 in cols and 99 not in cols
        assert cols.get(3)["a"] == 0
        assert cols[4].tid == 4
        with pytest.raises(RelationError, match="no tuple with tid"):
            cols[99]

    def test_duplicate_tid_rejected(self, schema):
        cols = make_relation(schema, storage="columnar")
        dup = Tuple(3, {"id": 3, "a": 0, "b": "x", "c": "y"})
        with pytest.raises(RelationError, match="duplicate tid"):
            cols.insert(dup)

    def test_delete_and_reinsert_moves_to_end(self, schema):
        for storage in ("rows", "columnar"):
            rel = make_relation(schema, n=5, storage=storage)
            t = rel.delete(1)
            assert t.tid == 1 and 1 not in rel
            rel.insert(t)
            assert [u.tid for u in rel] == [0, 2, 3, 4, 1]

    def test_delete_unknown_raises_discard_does_not(self, schema):
        cols = make_relation(schema, storage="columnar")
        with pytest.raises(RelationError, match="cannot delete unknown"):
            cols.delete(999)
        assert cols.discard(999) is None

    def test_tids_is_a_live_setlike_view(self, schema):
        cols = make_relation(schema, n=4, storage="columnar")
        view = cols.tids()
        assert view == {0, 1, 2, 3}
        cols.delete(2)
        assert view == {0, 1, 3}
        assert sorted(view | {9}) == [0, 1, 3, 9]

    def test_copy_is_independent(self, schema):
        cols = make_relation(schema, n=6, storage="columnar")
        clone = cols.copy()
        clone.delete(0)
        clone.insert(Tuple(100, {"id": 100, "a": 9, "b": "z", "c": "w"}))
        assert 0 in cols and 100 not in cols
        assert 0 not in clone and 100 in clone

    def test_compaction_after_many_deletes(self, schema):
        cols = make_relation(schema, n=200, storage="columnar")
        for tid in range(0, 200, 2):
            cols.delete(tid)
        assert len(cols) == 100
        assert [t.tid for t in cols] == list(range(1, 200, 2))
        assert cols.get(101)["b"] == f"b{101 % 4}"

    def test_pickle_roundtrip(self, schema):
        cols = make_relation(schema, storage="columnar")
        cols.delete(5)
        restored = pickle.loads(pickle.dumps(cols))
        assert list(restored) == list(cols)
        assert restored.storage == "columnar"

    def test_non_hashable_values_are_supported(self):
        schema = Schema("L", ["id", "tags"], key="id")
        rel = Relation(schema, storage="columnar")
        rel.insert(Tuple(1, {"id": 1, "tags": ["x", "y"]}))
        rel.insert(Tuple(2, {"id": 2, "tags": ["x", "y"]}))
        rel.insert(Tuple(3, {"id": 3, "tags": ["z"]}))
        store = column_store_of(rel)
        assert store.codes("tags")[0] == store.codes("tags")[1]
        assert rel.get(3)["tags"] == ["z"]


class TestColumnarAlgebra:
    def test_project_matches_row_backend(self, schema):
        rows = make_relation(schema)
        cols = rows.with_storage("columnar")
        p_rows = rows.project(["a", "b"], name="F")
        p_cols = cols.project(["a", "b"], name="F")
        assert p_cols.storage == "columnar"
        assert p_cols.schema.attribute_names == p_rows.schema.attribute_names
        assert list(p_cols) == list(p_rows)

    def test_select_matches_row_backend(self, schema):
        rows = make_relation(schema)
        cols = rows.with_storage("columnar")
        pred = lambda t: t["a"] == 1  # noqa: E731
        assert list(cols.select(pred)) == list(rows.select(pred))
        assert cols.select(pred).storage == "columnar"

    def test_select_predicates_get_tuple_conveniences(self, schema):
        # Predicates written against the row backend (Tuple API) keep
        # working on the columnar row views.
        rows = make_relation(schema)
        cols = rows.with_storage("columnar")
        pred = lambda t: t.values_for(["a", "c"]) == (0, "c0") and t.tid >= 0  # noqa: E731
        assert list(cols.select(pred)) == list(rows.select(pred))
        view = next(iter(cols.store.row_view(r) for r in cols.store.iter_rows()))
        assert view.as_dict() == dict(rows.get(view.tid))
        assert view.materialize() == rows.get(view.tid)

    def test_join_matches_row_backend(self, schema):
        rows = make_relation(schema)
        cols = rows.with_storage("columnar")
        j_rows = rows.project(["a"]).join(rows.project(["b", "c"]))
        j_cols = cols.project(["a"]).join(cols.project(["b", "c"]))
        assert list(j_cols) == list(j_rows)

    def test_join_conflicting_shared_attribute_raises(self, schema):
        left = Relation(schema.project(["a"]), storage="columnar")
        right = Relation(schema.project(["a"]), storage="columnar")
        left.insert(Tuple(1, {"id": 1, "a": "x"}))
        right.insert(Tuple(1, {"id": 1, "a": "y"}))
        with pytest.raises(ValueError, match="conflicting values"):
            left.join(right)

    def test_union_matches_row_backend_and_rejects_duplicates(self, schema):
        rows = make_relation(schema)
        cols = rows.with_storage("columnar")
        pred = lambda t: t["a"] == 0  # noqa: E731
        neg = lambda t: t["a"] != 0  # noqa: E731
        u_rows = rows.select(pred).union(rows.select(neg))
        u_cols = cols.select(pred).union(cols.select(neg))
        assert sorted(t.tid for t in u_cols) == sorted(t.tid for t in u_rows)
        with pytest.raises(RelationError, match="duplicate tid"):
            cols.select(pred).union(cols.select(pred))


class TestKernels:
    CFDS = [
        CFD(["a"], "b"),
        CFD(["a", "c"], "b"),
        CFD(["a"], "b", {"a": 1}),
        CFD(["a"], "b", {"a": 1, "b": "b1"}),
        CFD(["b"], "c", {"b": "b2", "c": "c0"}),
        CFD(["a"], "c", {"a": 77}),  # constant absent from the data
    ]

    def test_bulk_index_build_matches_row_build(self, schema):
        rows = make_relation(schema, n=40)
        cols = rows.with_storage("columnar")
        for cfd in self.CFDS:
            if cfd.is_constant():
                continue
            by_rows = CFDIndex(cfd)
            by_rows.build_from(list(rows))
            by_cols = CFDIndex(cfd)
            by_cols.build_from(cols)
            assert dict(by_rows.groups()) == dict(by_cols.groups())

    def test_detector_dispatches_on_columnar_relations(self, schema):
        rows = make_relation(schema, n=40)
        cols = rows.with_storage("columnar")
        cfds = [c for c in self.CFDS]
        assert (
            CentralizedDetector(cfds).detect(cols).as_dict()
            == CentralizedDetector(cfds).detect(rows).as_dict()
        )


def bit_by_bit(mask):
    """The reference decode: strip the lowest set bit until none is left."""
    rows = []
    while mask:
        low = mask & -mask
        rows.append(low.bit_length() - 1)
        mask ^= low
    return rows


class TestMaskDecoding:
    """``iter_mask_rows`` scans a mask's binary form once (linear time)
    beyond a few set bits; every density decodes like the bit loop."""

    FULL = (1 << 200_000) - 1

    @pytest.mark.parametrize(
        "rows",
        [
            [],
            [0],
            [199_999],
            [70_000, 150_000, 199_998],
            list(range(FEW_BITS)),
            list(range(FEW_BITS + 1)),
        ],
        ids=["empty", "bit_zero", "one_high_bit", "few_high_bits", "few_bits", "one_more"],
    )
    def test_small_masks_match_the_bit_loop(self, rows):
        mask = rows_to_mask(rows)
        assert list(iter_mask_rows(mask)) == bit_by_bit(mask) == rows

    @pytest.mark.parametrize("density", [0.001, 0.01, 0.1, 0.125, 0.2, 0.5, 0.9])
    def test_random_masks_match_the_bit_loop(self, density):
        rng = random.Random(int(density * 1000))
        rows = [r for r in range(20_000) if rng.random() < density]
        mask = rows_to_mask(rows)
        assert list(iter_mask_rows(mask)) == bit_by_bit(mask) == rows

    def test_full_mask_matches_the_bit_loop(self):
        assert list(iter_mask_rows(self.FULL)) == list(range(200_000))
        top = self.FULL >> 180_000  # the bit loop is quadratic: check a slice
        assert list(iter_mask_rows(top)) == bit_by_bit(top)

    def test_full_mask_decodes_in_linear_time(self):
        start = time.perf_counter()
        decoded = sum(1 for _ in iter_mask_rows(self.FULL))
        elapsed = time.perf_counter() - start
        assert decoded == 200_000
        assert elapsed < 0.25, elapsed

    def test_mask_to_tids_skips_tombstoned_rows(self, schema):
        relation = make_relation(schema, n=60, storage="columnar")
        for tid in range(0, 60, 7):
            relation.delete(tid)
        store = relation.store
        assert store.dead_rows(), "the deletes must leave tombstones, not compact"
        live = list(store.live_rows())
        assert mask_to_tids(store, rows_to_mask(sorted(live))) == set(relation.tids())
        some = sorted(live)[::3]
        assert mask_to_tids(store, rows_to_mask(some)) == {store.tid_of_row(r) for r in some}
        assert mask_to_tids(store, 0) == set()

    def test_set_algebra_matches_row_sets(self):
        a, b = {1, 5, 9, 70}, {5, 9, 200}
        ma, mb = rows_to_mask(sorted(a)), rows_to_mask(sorted(b))
        assert set(iter_mask_rows(ma & mb)) == a & b
        assert set(iter_mask_rows(ma | mb)) == a | b
        assert set(iter_mask_rows(ma & ~mb)) == a - b

    def test_grouped_masks_match_grouped_rows(self, schema):
        store = make_relation(schema, n=12, storage="columnar").store
        masks = store.grouped_masks(("a", "b"))
        rows = store.grouped_rows(("a", "b"))
        assert set(masks) == set(rows)
        for key, mask in masks.items():
            assert list(iter_mask_rows(mask)) == sorted(rows[key])


class TestColumnSerialization:
    def test_encode_decode_roundtrip(self, schema):
        rel = make_relation(schema, n=10)
        tids, blocks = encode_relation_columns(rel)
        assert tids == [t.tid for t in rel]
        for i, t in enumerate(rel):
            assert dict(t) == {b.attribute: b.values[b.codes[i]] for b in blocks}

    def test_columnar_estimate_beats_rows_on_repetitive_data(self, schema):
        rel = make_relation(schema, n=200)
        row_bytes = estimate_relation_bytes(rel, encoding="rows")
        col_bytes = estimate_relation_bytes(rel, encoding="columnar")
        assert col_bytes < row_bytes
        # The backend's own estimate agrees with the generic encoder.
        cols = rel.with_storage("columnar")
        tids, blocks = encode_relation_columns(rel)
        assert estimate_relation_bytes(cols) == estimate_column_bytes(tids, blocks)

    def test_fragment_estimate_counts_only_present_values(self, schema):
        # A fragment shares dictionaries with its base relation; its
        # shipment estimate must only count values the fragment holds.
        rel = make_relation(schema, n=100, storage="columnar")
        frag = rel.select(lambda t: t["a"] == 0)
        assert estimate_relation_bytes(frag) == estimate_relation_bytes(
            frag.with_storage("rows"), encoding="columnar"
        )

    def test_ship_fragment_charges_the_network(self, schema):
        rel = make_relation(schema, n=50, storage="columnar")
        network = Network()
        nbytes = ship_fragment(network, 0, 1, rel)
        stats = network.stats()
        assert stats.bytes == nbytes == estimate_relation_bytes(rel)
        assert stats.messages == 1
        # Row-hosted fragments ship the paper's per-tuple encoding.
        assert ship_fragment(Network(), 0, 1, rel.with_storage("rows")) > nbytes
