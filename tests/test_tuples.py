"""Tests for repro.core.tuples."""

import pickle

import pytest

from repro.core.tuples import Tuple


@pytest.fixture
def t() -> Tuple:
    return Tuple(1, {"k": 1, "a": "x", "b": 10})


class TestTupleBasics:
    def test_tid(self, t):
        assert t.tid == 1

    def test_getitem(self, t):
        assert t["a"] == "x"
        assert t["b"] == 10

    def test_missing_attribute_raises(self, t):
        with pytest.raises(KeyError):
            t["missing"]

    def test_len_and_iter(self, t):
        assert len(t) == 3
        assert set(t) == {"k", "a", "b"}

    def test_mapping_protocol_get(self, t):
        assert t.get("a") == "x"
        assert t.get("zzz") is None

    def test_equality(self):
        assert Tuple(1, {"a": 1}) == Tuple(1, {"a": 1})
        assert Tuple(1, {"a": 1}) != Tuple(2, {"a": 1})
        assert Tuple(1, {"a": 1}) != Tuple(1, {"a": 2})

    def test_equality_with_other_type(self, t):
        assert t != "not a tuple"

    def test_hashable_and_consistent(self):
        a = Tuple(1, {"a": 1})
        b = Tuple(1, {"a": 1})
        assert hash(a) == hash(b)
        assert len({a, b}) == 1

    def test_as_dict_is_a_copy(self, t):
        d = t.as_dict()
        d["a"] = "changed"
        assert t["a"] == "x"

    def test_repr_contains_tid(self, t):
        assert "tid=1" in repr(t)


class TestTupleOperations:
    def test_values_for(self, t):
        assert t.values_for(["b", "a"]) == (10, "x")

    def test_project(self, t):
        p = t.project(["a"])
        assert p.tid == 1
        assert dict(p) == {"a": "x"}

    def test_with_values(self, t):
        u = t.with_values(a="y")
        assert u["a"] == "y"
        assert t["a"] == "x"
        assert u.tid == t.tid

    def test_merge_fragments(self):
        left = Tuple(7, {"k": 7, "a": "x"})
        right = Tuple(7, {"k": 7, "b": "y"})
        merged = left.merge(right)
        assert dict(merged) == {"k": 7, "a": "x", "b": "y"}

    def test_merge_different_tids_rejected(self):
        with pytest.raises(ValueError):
            Tuple(1, {"a": 1}).merge(Tuple(2, {"b": 2}))

    def test_merge_conflicting_values_rejected(self):
        with pytest.raises(ValueError):
            Tuple(1, {"a": 1}).merge(Tuple(1, {"a": 2}))

    def test_merge_overlapping_consistent_values(self):
        merged = Tuple(1, {"a": 1, "b": 2}).merge(Tuple(1, {"b": 2, "c": 3}))
        assert dict(merged) == {"a": 1, "b": 2, "c": 3}

    def test_merge_lists_left_attributes_then_the_new_right_ones(self):
        left = Tuple(7, {"k": 7, "b": "y", "a": "x"})
        right = Tuple(7, {"d": 4, "k": 7, "c": 3, "a": "x"})
        merged = left.merge(right)
        assert list(merged) == ["k", "b", "a", "d", "c"]
        assert merged.values_for(["k", "b", "a", "d", "c"]) == (7, "y", "x", 4, 3)
        assert merged.tid == 7
        assert list(right.merge(left)) == ["d", "k", "c", "a", "b"]
        assert right.merge(left) == merged  # equality ignores attribute order

    def test_merge_errors_survive_a_cached_plan(self):
        """The plan is cached per pair of attribute lists; the tid and
        conflict checks still run on every pair of tuples."""
        left = Tuple(1, {"k": 1, "a": "x"})
        assert dict(left.merge(Tuple(1, {"k": 1, "b": "y"}))) == {"k": 1, "a": "x", "b": "y"}
        with pytest.raises(ValueError, match="different tids"):
            left.merge(Tuple(2, {"k": 2, "b": "y"}))
        with pytest.raises(ValueError, match="conflicting values for attribute 'k'"):
            left.merge(Tuple(1, {"k": 9, "b": "y"}))


class TestCompactLayout:
    """A tuple is a values tuple plus a layout shared per attribute list."""

    def test_attribute_order_does_not_affect_equality_or_hash(self):
        a = Tuple(1, {"k": 1, "a": "x", "b": 10})
        b = Tuple(1, {"b": 10, "k": 1, "a": "x"})
        assert a == b and hash(a) == hash(b)
        assert len({a, b}) == 1
        assert a != Tuple(1, {"b": 11, "k": 1, "a": "x"})
        assert a != Tuple(1, {"k": 1, "a": "x"})

    def test_same_attribute_list_shares_one_layout(self):
        a = Tuple(1, {"k": 1, "a": "x"})
        b = Tuple(2, {"k": 2, "a": "y"})
        assert a._layout is b._layout
        assert a.project(["a"])._layout is b.project(["a"])._layout

    def test_built_from_a_non_dict_mapping_or_another_tuple(self, t):
        from types import MappingProxyType

        assert Tuple(1, MappingProxyType({"k": 1, "a": "x", "b": 10})) == t
        assert Tuple(1, t) == t
        assert Tuple(2, t).tid == 2 and Tuple(2, t)["a"] == "x"

    def test_project_keeps_the_requested_order_and_drops_repeats(self, t):
        p = t.project(["b", "a", "b"])
        assert list(p) == ["b", "a"]
        assert p == Tuple(1, {"a": "x", "b": 10})

    def test_contains_and_items(self, t):
        assert "a" in t and "zzz" not in t
        assert dict(t.items()) == {"k": 1, "a": "x", "b": 10}
        assert list(t.values()) == [1, "x", 10]

    def test_pickle_round_trip_is_equal_and_reshares_the_layout(self, t):
        other = Tuple(2, {"k": 2, "a": "y", "b": 20})
        hash(t)  # a cached hash must not travel: string hashes differ per process
        loaded_t, loaded_other = pickle.loads(pickle.dumps([t, other]))
        assert loaded_t._hash is None
        assert loaded_t == t and hash(loaded_t) == hash(t)
        assert loaded_other == other
        assert loaded_t._layout is t._layout is loaded_other._layout

    def test_pickle_is_smaller_than_a_dict_per_tuple(self):
        rows = [{f"attr{i}": f"v{tid}_{i}" for i in range(12)} for tid in range(50)]
        as_tuples = pickle.dumps([Tuple(tid, row) for tid, row in enumerate(rows)])
        as_dicts = pickle.dumps([(tid, row) for tid, row in enumerate(rows)])
        assert len(as_tuples) < len(as_dicts)
