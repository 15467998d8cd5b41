"""Tests for incVIns / incVDel (single-update logic over the IDX)."""

import pytest

from repro.core.cfd import CFD
from repro.core.detector import CentralizedDetector
from repro.core.tuples import Tuple
from repro.indexes.idx import CFDIndex
from repro.vertical.single import incremental_delete, incremental_insert


def t(tid, zip_="EH4", street="Mayfield", cc=44):
    return Tuple(tid, {"CC": cc, "zip": zip_, "street": street})


@pytest.fixture
def phi1():
    return CFD(["CC", "zip"], "street", {"CC": 44}, name="phi1")


@pytest.fixture
def index(phi1):
    return CFDIndex(phi1)


class TestInsert:
    def test_first_tuple_of_a_group_is_not_a_violation(self, index):
        assert incremental_insert(index, t(1)) == set()

    def test_insert_agreeing_tuple_is_not_a_violation(self, index):
        incremental_insert(index, t(1))
        assert incremental_insert(index, t(2)) == set()

    def test_insert_conflicting_tuple_marks_both_classes(self, index):
        incremental_insert(index, t(1))
        incremental_insert(index, t(2))
        added = incremental_insert(index, t(3, street="Crichton"))
        assert added == {1, 2, 3}

    def test_insert_into_already_conflicting_group_only_adds_itself(self, index):
        for new in (t(1), t(2, street="Crichton")):
            incremental_insert(index, new)
        assert incremental_insert(index, t(3, street="Preston")) == {3}
        assert incremental_insert(index, t(4)) == {4}

    def test_insert_non_matching_tuple_is_ignored(self, index):
        assert incremental_insert(index, t(1, cc=99)) == set()
        assert len(index) == 0

    def test_insert_maintains_index(self, index):
        incremental_insert(index, t(1))
        assert index.class_of((44, "EH4"), "Mayfield") == {1}

    def test_paper_example_insert_t6(self, index):
        """Example 2(1): with t1..t5 indexed, inserting t6 adds only t6."""
        emp_rows = [
            t(1, "EH4 8LE", "Mayfield"),
            t(2, "EH2 4HF", "Preston"),
            t(3, "EH4 8LE", "Mayfield"),
            t(4, "EH4 8LE", "Mayfield"),
            t(5, "EH4 8LE", "Crichton"),
        ]
        index.build_from(emp_rows)
        added = incremental_insert(index, t(6, "EH4 8LE", "Mayfield"))
        assert added == {6}


class TestDelete:
    def test_delete_sole_tuple_no_change(self, index):
        incremental_insert(index, t(1))
        assert incremental_delete(index, t(1)) == set()
        assert len(index) == 0

    def test_delete_from_clean_group_no_change(self, index):
        incremental_insert(index, t(1))
        incremental_insert(index, t(2))
        assert incremental_delete(index, t(2)) == set()

    def test_delete_violation_with_remaining_classmates(self, index):
        for new in (t(1), t(2), t(3, street="Crichton")):
            incremental_insert(index, new)
        assert incremental_delete(index, t(2)) == {2}

    def test_delete_last_member_of_one_of_two_classes(self, index):
        for new in (t(1), t(2), t(3, street="Crichton")):
            incremental_insert(index, new)
        removed = incremental_delete(index, t(3, street="Crichton"))
        assert removed == {1, 2, 3}

    def test_delete_with_three_classes_only_removes_itself(self, index):
        for new in (t(1), t(2, street="Crichton"), t(3, street="Preston")):
            incremental_insert(index, new)
        assert incremental_delete(index, t(3, street="Preston")) == {3}

    def test_delete_non_matching_tuple_is_ignored(self, index):
        assert incremental_delete(index, t(1, cc=99)) == set()

    def test_delete_unindexed_tuple_raises(self, index):
        with pytest.raises(ValueError):
            incremental_delete(index, t(1))

    def test_paper_example_delete_t4(self, index):
        """Example 2(2): after inserting t6, deleting t4 removes only t4."""
        emp_rows = [
            t(1, "EH4 8LE", "Mayfield"),
            t(2, "EH2 4HF", "Preston"),
            t(3, "EH4 8LE", "Mayfield"),
            t(4, "EH4 8LE", "Mayfield"),
            t(5, "EH4 8LE", "Crichton"),
            t(6, "EH4 8LE", "Mayfield"),
        ]
        index.build_from(emp_rows)
        assert incremental_delete(index, t(4, "EH4 8LE", "Mayfield")) == {4}


class TestAgainstCentralizedDetector:
    def test_random_sequence_matches_batch_recomputation(self, phi1, index):
        """Applying a long insert/delete sequence matches recomputation from scratch."""
        import random

        rng = random.Random(13)
        live: dict[int, Tuple] = {}
        violations: set[int] = set()
        for step in range(200):
            if live and rng.random() < 0.4:
                victim = live.pop(rng.choice(sorted(live)))
                removed = incremental_delete(index, victim)
                violations -= removed
            else:
                tid = step + 1
                new = t(
                    tid,
                    zip_=rng.choice(["EH4", "EH2", "EH9"]),
                    street=rng.choice(["Mayfield", "Crichton", "Preston"]),
                    cc=rng.choice([44, 44, 44, 1]),
                )
                live[tid] = new
                violations |= incremental_insert(index, new)
            expected = CentralizedDetector.violations_of(phi1, live.values())
            assert violations == expected


class TestReturnedSetsAreTheCallers:
    def test_mutating_the_returned_sets_leaves_the_index_alone(self, index):
        incremental_insert(index, t(1))
        incremental_insert(index, t(2))
        added = incremental_insert(index, t(3, street="Crichton"))
        assert added == {1, 2, 3}
        added.clear()
        assert index.class_of((44, "EH4"), "Mayfield") == {1, 2}
        assert index.class_of((44, "EH4"), "Crichton") == {3}
        removed = incremental_delete(index, t(3, street="Crichton"))
        assert removed == {1, 2, 3}
        removed.clear()
        assert index.class_of((44, "EH4"), "Mayfield") == {1, 2}
        assert incremental_insert(index, t(4, cc=99)) == set()
