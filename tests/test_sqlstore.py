"""Unit tests for the SQL pushdown storage backend.

The store must be a drop-in dict-of-tuples: insertion order, overwrite
and pop semantics, copy/pickle independence.  The engine decides some
semantics of its pushed-down checks itself — int/float grouping, text
never equal to numbers, NULL as a class of its own — and those are
pinned here, along with the statement cache and the byte/statistics
surfaces, which must reproduce the row cost model number for number.
Every detection operation is held to the row store in
``tests/test_storage_protocol.py``.
"""

import os
import pickle

import pytest

from repro.core.cfd import CFD
from repro.core.detector import CentralizedDetector
from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.core.storage import StorageError, make_storage, storage_backend_names
from repro.core.tuples import Tuple
from repro.distributed.serialization import (
    TID_BYTES,
    estimate_relation_bytes,
    estimate_value_bytes,
)
from repro.rulefuse import compile_rule_set
from repro.sqlstore import (
    SqlStore,
    configure,
    configured_directory,
    decode_value,
    encode_value,
    sql_store_of,
)

SCHEMA = Schema("R", ("k", "a", "b", "c"), key="k")


def tup(tid, a, b, c):
    return Tuple(tid, {"k": tid, "a": a, "b": b, "c": c})


def fill(store, rows):
    for t in rows:
        store.insert(t)
    return store


def pushdown(cfd, store):
    """``V(cfd)`` from the store's pushed-down check."""
    (found,) = store.check(compile_rule_set([cfd]))
    return found


@pytest.fixture
def rows():
    out = [tup(f"t{i}", f"a{i % 3}", f"b{i % 2}", i % 4) for i in range(12)]
    out.append(tup("tn", None, None, None))
    out.append(tup("tf", 3.5, 2.5, "x"))
    # Bools encode as tagged pickles; keep them off numeric groups the
    # row oracle would merge via Python's True == 1 (documented caveat).
    out.append(tup("tb", True, False, "y"))
    return out


@pytest.fixture
def store(rows):
    s = fill(SqlStore(SCHEMA), rows)
    yield s
    s.close()


class TestEncoding:
    @pytest.mark.parametrize(
        "value", ["s", "", 0, -7, 3.5, None, True, False, (1, "x"), b"raw"]
    )
    def test_round_trip_is_exact(self, value):
        assert decode_value(encode_value(value)) == value
        assert type(decode_value(encode_value(value))) is type(value)

    def test_native_values_stay_native(self):
        assert encode_value("s") == "s"
        assert encode_value(7) == 7
        assert encode_value(2.5) == 2.5
        assert encode_value(None) is None

    def test_bools_are_tagged_not_ints(self):
        # type(True) is bool, and sqlite would collapse True to 1 —
        # so bools ship as tagged pickles and round-trip exactly.
        assert isinstance(encode_value(True), bytes)
        assert decode_value(encode_value(True)) is True


class TestDictSemantics:
    def test_len_contains_tids(self, store, rows):
        assert len(store) == len(rows)
        assert "t0" in store and "missing" not in store
        assert list(store.tids()) == [t.tid for t in rows]

    def test_iteration_preserves_insertion_order(self, store, rows):
        assert [t.tid for t in store] == [t.tid for t in rows]
        assert [dict(t) for t in store] == [dict(t) for t in rows]

    def test_overwrite_keeps_position(self, store, rows):
        store.insert(tup("t0", "Z", "Z", "Z"))
        assert len(store) == len(rows)
        assert [t.tid for t in store][0] == "t0"
        assert dict(store.get("t0"))["a"] == "Z"

    def test_pop_and_reinsert_moves_to_end(self, store, rows):
        popped = store.pop("t0")
        assert popped.tid == "t0"
        assert "t0" not in store
        assert store.pop("t0") is None
        store.insert(popped)
        assert [t.tid for t in store][-1] == "t0"

    def test_get_missing_returns_none(self, store):
        assert store.get("missing") is None

    def test_copy_is_independent(self, store, rows):
        clone = store.copy()
        clone.insert(tup("fresh", 1, 2, 3))
        clone.pop("t1")
        assert len(store) == len(rows)
        assert "fresh" not in store and "t1" in store
        assert [dict(t) for t in clone][:1] == [dict(rows[0])]
        clone.close()

    def test_pickle_round_trip(self, store):
        clone = pickle.loads(pickle.dumps(store))
        assert [dict(t) for t in clone] == [dict(t) for t in store]
        assert clone.path is None  # replicas always rebuild in memory
        clone.close()

    def test_bulk_load(self, rows):
        s = SqlStore(SCHEMA)
        s.bulk_load(rows)
        assert [t.tid for t in s] == [t.tid for t in rows]
        s.close()


class TestPushdownParity:
    def test_mixed_int_float_group_as_python_does(self):
        # Python dicts group 1 and 1.0 under one key (1 == 1.0); sqlite's
        # numeric affinity agrees — pin it so an engine change shows up.
        s = fill(
            SqlStore(SCHEMA),
            [tup("i", 1, "x", "p"), tup("f", 1.0, "y", "p"), tup("o", 2, "x", "p")],
        )
        cfd = CFD(("a",), "b", name="fd")
        assert pushdown(cfd, s) == {"i", "f"}
        s.close()

    def test_text_never_equals_number(self):
        s = fill(
            SqlStore(SCHEMA),
            [tup("i", 1, "x", "p"), tup("s", "1", "y", "p")],
        )
        assert pushdown(cfd := CFD(("a",), "b", name="fd"), s) == set()
        assert CentralizedDetector.violations_of(cfd, list(s)) == set()
        s.close()

    def test_null_groups_count_as_distinct_class(self):
        # Two tuples sharing a LHS where one RHS is NULL: two classes.
        s = fill(
            SqlStore(SCHEMA),
            [tup("x", "a", None, "p"), tup("y", "a", "b0", "p")],
        )
        assert pushdown(CFD(("a",), "b", name="fd"), s) == {"x", "y"}
        s.close()

    def test_statement_cache_hits_on_repeat(self, store):
        cfd = CFD(("a",), "b", name="var")
        pushdown(cfd, store)
        before = store.statement_cache_info()
        pushdown(cfd, store)
        after = store.statement_cache_info()
        assert after["hits"] > before["hits"]
        assert after["misses"] == before["misses"]


class TestScansAndByteModel:
    def test_estimate_bytes_matches_row_model(self, store, rows):
        expected = sum(
            TID_BYTES + sum(estimate_value_bytes(t[a]) for a in ("a", "b", "c"))
            for t in rows
        )
        assert store.estimate_bytes(["a", "b", "c"]) == expected

    def test_relation_level_bytes_parity(self, rows):
        r_rows = Relation(SCHEMA, storage="rows")
        r_sql = Relation(SCHEMA, storage="sql")
        for t in rows:
            r_rows.insert(t)
            r_sql.insert(t)
        assert estimate_relation_bytes(r_sql) == estimate_relation_bytes(r_rows)
        assert estimate_relation_bytes(r_sql, ["a", "c"]) == estimate_relation_bytes(
            r_rows, ["a", "c"]
        )

    def test_distinct_counts_match_python(self, store, rows):
        expected = {
            attr: len({t[attr] for t in rows}) for attr in ("k", "a", "b", "c")
        }
        assert store.distinct_counts() == expected


class TestFileBacked:
    def test_configure_directory_and_cleanup(self, rows, tmp_path):
        configure(directory=str(tmp_path))
        try:
            assert configured_directory() == str(tmp_path)
            s = fill(SqlStore(SCHEMA), rows)
            assert s.path is not None and os.path.exists(s.path)
            assert s.path.startswith(str(tmp_path))
            assert [t.tid for t in s] == [t.tid for t in rows]
            path = s.path
            s.close()
            assert not os.path.exists(path)
        finally:
            configure(directory=None)
        assert configured_directory() is None

    def test_copy_of_file_backed_store_gets_own_file(self, rows, tmp_path):
        configure(directory=str(tmp_path))
        try:
            s = fill(SqlStore(SCHEMA), rows)
            clone = s.copy()
            assert clone.path != s.path
            clone.insert(tup("fresh", 1, 2, 3))
            assert len(s) == len(rows)
            s.close()
            clone.close()
        finally:
            configure(directory=None)


class TestRegistry:
    def test_sql_is_registered(self):
        assert "sql" in storage_backend_names()
        store = make_storage("sql", SCHEMA)
        assert isinstance(store, SqlStore)
        store.close()

    def test_relation_conversion_round_trip(self, rows):
        r = Relation(SCHEMA, storage="rows")
        for t in rows:
            r.insert(t)
        r_sql = r.with_storage("sql")
        assert r_sql.storage == "sql"
        assert sql_store_of(r_sql) is not None
        assert sql_store_of(r) is None
        back = r_sql.with_storage("rows")
        assert [dict(t) for t in back] == [dict(t) for t in r]

    def test_duckdb_unavailable_raises_clean_storage_error(self):
        # An unregistered backend name fails with the registered names.
        with pytest.raises(
            StorageError, match=r"'duckdb'; registered: columnar, rows, sql$"
        ):
            make_storage("duckdb", SCHEMA)
