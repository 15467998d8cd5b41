"""Tests for the IDX group index."""

import pickle

import pytest

from repro.core.cfd import CFD
from repro.core.tuples import Tuple
from repro.indexes.idx import CFDIndex, IndexError_


def t(tid, cc=44, zip_="EH4", street="Mayfield"):
    return Tuple(tid, {"CC": cc, "zip": zip_, "street": street})


@pytest.fixture
def phi1() -> CFD:
    return CFD(["CC", "zip"], "street", {"CC": 44}, name="phi1")


@pytest.fixture
def index(phi1) -> CFDIndex:
    return CFDIndex(phi1)


class TestConstruction:
    def test_constant_cfd_rejected(self):
        constant = CFD(["CC"], "city", {"CC": 44, "city": "EDI"})
        with pytest.raises(ValueError):
            CFDIndex(constant)

    def test_exposes_cfd(self, index, phi1):
        assert index.cfd is phi1


class TestKeyingAndApplicability:
    def test_lhs_key(self, index):
        assert index.lhs_key(t(1)) == (44, "EH4")

    def test_applies_to_respects_pattern(self, index):
        assert index.applies_to(t(1, cc=44))
        assert not index.applies_to(t(1, cc=1))


class TestMaintenance:
    def test_add_tuple_groups_by_lhs_and_rhs(self, index):
        index.add_tuple(t(1, street="Mayfield"))
        index.add_tuple(t(2, street="Mayfield"))
        index.add_tuple(t(3, street="Crichton"))
        classes = index.classes((44, "EH4"))
        assert classes == {"Mayfield": {1, 2}, "Crichton": {3}}
        assert index.class_count((44, "EH4")) == 2
        assert index.group_size((44, "EH4")) == 3

    def test_add_tuple_ignores_non_matching(self, index):
        assert not index.add_tuple(t(1, cc=99))
        assert len(index) == 0

    def test_class_of(self, index):
        index.add_tuple(t(1))
        assert index.class_of((44, "EH4"), "Mayfield") == {1}
        assert index.class_of((44, "EH4"), "Crichton") == set()
        assert index.class_of((44, "ZZZ"), "Mayfield") == set()

    def test_remove_tuple(self, index):
        index.add_tuple(t(1))
        index.add_tuple(t(2, street="Crichton"))
        assert index.remove_tuple(t(1))
        assert index.classes((44, "EH4")) == {"Crichton": {2}}

    def test_remove_last_tuple_drops_group(self, index):
        index.add_tuple(t(1))
        index.remove_tuple(t(1))
        assert len(index) == 0
        assert index.class_count((44, "EH4")) == 0

    def test_remove_unknown_raises(self, index):
        with pytest.raises(IndexError_):
            index.remove((44, "EH4"), "Mayfield", 123)

    def test_remove_non_matching_tuple_is_noop(self, index):
        assert not index.remove_tuple(t(1, cc=99))

    def test_classes_returns_copies(self, index):
        index.add_tuple(t(1))
        snapshot = index.classes((44, "EH4"))
        snapshot["Mayfield"].add(999)
        assert index.class_of((44, "EH4"), "Mayfield") == {1}

    def test_build_from(self, index):
        index.build_from([t(1), t(2, street="Crichton"), t(3, cc=99)])
        assert index.total_tuples() == 2

    def test_groups_iteration(self, index):
        index.add_tuple(t(1))
        index.add_tuple(t(2, zip_="EH2"))
        keys = {key for key, _ in index.groups()}
        assert keys == {(44, "EH4"), (44, "EH2")}

    def test_mixed_groups_are_independent(self, index):
        index.add_tuple(t(1, zip_="EH4"))
        index.add_tuple(t(2, zip_="EH2", street="Crichton"))
        assert index.class_count((44, "EH4")) == 1
        assert index.class_count((44, "EH2")) == 1


class TestReadOnlyViews:
    def test_view_is_live_and_copies_nothing(self, index):
        view = index.view((44, "EH4"))
        assert len(view) == 0 and not view and "Mayfield" not in view
        index.add_tuple(t(1))
        index.add_tuple(t(2, street="Crichton"))
        view = index.view((44, "EH4"))
        assert dict(view.items()) == {"Mayfield": {1}, "Crichton": {2}}
        index.add_tuple(t(3))
        assert view["Mayfield"] == {1, 3} and 3 in view["Mayfield"]
        assert view.get("Preston", ()) == ()

    def test_views_cannot_change_the_index(self, index):
        index.add_tuple(t(1))
        view = index.view((44, "EH4"))
        with pytest.raises(TypeError):
            view["Crichton"] = {9}
        with pytest.raises(TypeError):
            del view["Mayfield"]
        members = view["Mayfield"]
        for mutator in ("add", "discard", "remove", "clear", "update", "pop"):
            assert not hasattr(members, mutator)
        grown = members | {9}
        assert grown == {1, 9} and type(grown) is set
        assert index.class_of((44, "EH4"), "Mayfield") == {1}

    def test_view_of_a_missing_group_stays_empty(self, index):
        missing = index.view((44, "nowhere"))
        index.add_tuple(t(1))
        assert len(missing) == 0 and len(index.view((44, "nowhere"))) == 0

    def test_pickle_round_trip(self, index):
        index.build_from([t(1), t(2, street="Crichton"), t(3, zip_="EH2")])
        loaded = pickle.loads(pickle.dumps(index))
        assert dict(loaded.groups()) == dict(index.groups())
        assert loaded.cfd == index.cfd
        loaded.add_tuple(t(4))
        assert index.total_tuples() == 3 and loaded.total_tuples() == 4
