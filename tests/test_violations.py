"""Tests for repro.core.violations."""

import pickle

from repro.core.violations import ViolationDelta, ViolationSet, diff_violations


class TestViolationSet:
    def test_add_and_query(self):
        v = ViolationSet()
        assert v.add(1, "phi1")
        assert v.violates(1, "phi1")
        assert not v.violates(1, "phi2")
        assert 1 in v
        assert 2 not in v

    def test_add_is_idempotent(self):
        v = ViolationSet()
        assert v.add(1, "phi1")
        assert not v.add(1, "phi1")
        assert len(v) == 1

    def test_remove(self):
        v = ViolationSet({1: ["phi1", "phi2"]})
        assert v.remove(1, "phi1")
        assert v.cfds_of(1) == {"phi2"}
        assert not v.remove(1, "phi1")

    def test_remove_last_mark_drops_tuple(self):
        v = ViolationSet({1: ["phi1"]})
        v.remove(1, "phi1")
        assert 1 not in v
        assert len(v) == 0

    def test_discard_tuple(self):
        v = ViolationSet({1: ["phi1", "phi2"]})
        assert v.discard_tuple(1) == {"phi1", "phi2"}
        assert 1 not in v
        assert v.discard_tuple(1) == set()

    def test_tids_and_tids_for(self):
        v = ViolationSet({1: ["phi1"], 2: ["phi1", "phi2"], 3: ["phi2"]})
        assert v.tids() == {1, 2, 3}
        assert v.tids_for("phi1") == {1, 2}
        assert v.tids_for("phi2") == {2, 3}

    def test_constructor_from_mapping(self):
        v = ViolationSet({5: ("phi1",)})
        assert v.violates(5, "phi1")

    def test_copy_independent(self):
        v = ViolationSet({1: ["phi1"]})
        clone = v.copy()
        clone.add(2, "phi1")
        assert 2 not in v

    def test_equality(self):
        assert ViolationSet({1: ["a"]}) == ViolationSet({1: ["a"]})
        assert ViolationSet({1: ["a"]}) != ViolationSet({1: ["b"]})

    def test_iteration(self):
        v = ViolationSet({1: ["a"], 2: ["b"]})
        assert set(v) == {1, 2}

    def test_as_dict_copy(self):
        v = ViolationSet({1: ["a"]})
        d = v.as_dict()
        d[1].add("z")
        assert v.cfds_of(1) == {"a"}


class TestViolationDelta:
    def test_add_and_remove_views(self):
        delta = ViolationDelta()
        delta.add(1, "phi1")
        delta.remove(2, "phi1")
        assert delta.added == {1: {"phi1"}}
        assert delta.removed == {2: {"phi1"}}
        assert delta.added_tids() == {1}
        assert delta.removed_tids() == {2}

    def test_net_semantics_add_then_remove_cancels(self):
        delta = ViolationDelta()
        delta.add(1, "phi1")
        delta.remove(1, "phi1")
        assert delta.is_empty()

    def test_net_semantics_remove_then_add_cancels(self):
        delta = ViolationDelta()
        delta.remove(1, "phi1")
        delta.add(1, "phi1")
        assert delta.is_empty()

    def test_size_counts_pairs(self):
        delta = ViolationDelta()
        delta.add(1, "phi1")
        delta.add(1, "phi2")
        delta.remove(2, "phi1")
        assert delta.size() == 3

    def test_pairs_iteration(self):
        delta = ViolationDelta()
        delta.add(1, "phi1")
        delta.remove(2, "phi2")
        assert set(delta.added_pairs()) == {(1, "phi1")}
        assert set(delta.removed_pairs()) == {(2, "phi2")}

    def test_merge_preserves_net_semantics(self):
        left = ViolationDelta()
        left.add(1, "phi1")
        right = ViolationDelta()
        right.remove(1, "phi1")
        left.merge(right)
        assert left.is_empty()

    def test_equality(self):
        a = ViolationDelta()
        a.add(1, "x")
        b = ViolationDelta()
        b.add(1, "x")
        assert a == b
        b.remove(2, "y")
        assert a != b

    def test_apply_to_violation_set(self):
        v = ViolationSet({1: ["phi1"], 2: ["phi1"]})
        delta = ViolationDelta()
        delta.add(3, "phi2")
        delta.remove(2, "phi1")
        v.apply(delta)
        assert v.tids() == {1, 3}
        assert v.violates(3, "phi2")


class TestDiffViolations:
    def test_diff_produces_minimal_delta(self):
        old = ViolationSet({1: ["a"], 2: ["a", "b"]})
        new = ViolationSet({2: ["b"], 3: ["a"]})
        delta = diff_violations(old, new)
        assert delta.added == {3: {"a"}}
        assert delta.removed == {1: {"a"}, 2: {"a"}}

    def test_diff_then_apply_roundtrip(self):
        old = ViolationSet({1: ["a"], 4: ["c"]})
        new = ViolationSet({1: ["a", "b"], 5: ["c"]})
        delta = diff_violations(old, new)
        patched = old.copy()
        patched.apply(delta)
        assert patched == new

    def test_diff_of_identical_sets_is_empty(self):
        v = ViolationSet({1: ["a"]})
        assert diff_violations(v, v.copy()).is_empty()


class TestValueSemantics:
    """Marks are shared immutable values inside; callers get fresh mutable sets."""

    def test_violation_set_accessors_return_fresh_mutable_sets(self):
        v = ViolationSet({1: ["phi1", "phi2"], 2: ["phi1", "phi2"], 3: ["phi1"]})
        v.cfds_of(1).add("bogus")
        v.as_dict()[2].clear()
        v.tids().clear()
        v.tids_for("phi1").clear()
        assert v.as_dict() == {1: {"phi1", "phi2"}, 2: {"phi1", "phi2"}, 3: {"phi1"}}
        dropped = v.discard_tuple(1)
        dropped.add("bogus")
        assert v.cfds_of(2) == {"phi1", "phi2"} and 1 not in v
        assert v.discard_tuple(99) == set()

    def test_mutating_one_tid_leaves_tids_with_equal_marks_alone(self):
        v = ViolationSet({1: ["phi1", "phi2"], 2: ["phi1", "phi2"]})
        v.remove(1, "phi2")
        v.add(1, "phi3")
        assert v.cfds_of(1) == {"phi1", "phi3"}
        assert v.cfds_of(2) == {"phi1", "phi2"}

    def test_copy_is_independent_in_both_directions(self):
        v = ViolationSet({1: ["phi1"], 2: ["phi1"]})
        clone = v.copy()
        clone.add(1, "phi2")
        v.remove(2, "phi1")
        assert v.as_dict() == {1: {"phi1"}}
        assert clone.as_dict() == {1: {"phi1", "phi2"}, 2: {"phi1"}}

    def test_delta_views_return_fresh_mutable_sets(self):
        d = ViolationDelta()
        d.add(1, "phi1")
        d.add(2, "phi1")
        d.remove(3, "phi1")
        d.added[1].add("bogus")
        d.added.clear()
        d.removed[3].clear()
        assert d.added == {1: {"phi1"}, 2: {"phi1"}}
        assert d.removed == {3: {"phi1"}}
        assert d.size() == 3

    def test_equality_ignores_insertion_order(self):
        a = ViolationSet({1: ["phi1", "phi2"], 2: ["phi2"]})
        b = ViolationSet({2: ["phi2"], 1: ["phi2", "phi1"]})
        assert a == b
        b.add(2, "phi1")
        assert a != b

    def test_pickle_round_trip(self):
        v = ViolationSet({tid: ["phi1", "phi2"] for tid in range(100)})
        d = ViolationDelta()
        d.add(1, "phi1")
        d.remove(2, "phi2")
        loaded_v, loaded_d = pickle.loads(pickle.dumps((v, d)))
        assert loaded_v == v and loaded_d == d
        loaded_v.add(0, "phi3")
        loaded_v.remove(1, "phi1")
        assert loaded_v.cfds_of(0) == {"phi1", "phi2", "phi3"}
        assert loaded_v.cfds_of(1) == {"phi2"}
        assert v.cfds_of(0) == {"phi1", "phi2"}
