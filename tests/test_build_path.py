"""How an incremental session is built: V(Sigma, D) read off the indexes.

incVer and incHor build their IDX indexes from the database and then
read the initial violation set off them — a group ``set(t[X])`` with two
or more RHS classes is exactly a set of violations — so only constant
CFDs are still scanned.  These tests pin that the result equals a
centralized detection on every storage backend, including the awkward
inputs (NULLs, ``1``/``1.0``/``True``, an empty relation, a horizontal
group split over two sites), that no variable CFD is scanned and that
the build ships nothing.
"""

import gc

import pytest

import repro
from repro.core.cfd import CFD
from repro.core.detector import CentralizedDetector, detect_violations
from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.core.tuples import Tuple
from repro.obs import profile
from repro.partition.horizontal import HorizontalPartitioner
from repro.partition.predicates import AttributeIn
from repro.partition.vertical import even_vertical_scheme

STORAGES = ["rows", "columnar", "sql"]

SCHEMA = Schema("R", ["k", "a", "b", "c", "d"], key="k")

CFDS = [
    CFD(["a"], "b", name="a_b"),
    CFD(["c"], "d", name="c_d"),
    CFD(["a", "c"], "d", {"a": "x"}, name="xc_d"),
    CFD(["a"], "c", {"a": "x", "c": "z"}, name="x_z"),
    CFD(["b"], "d", {"b": "u", "d": "r"}, name="u_r"),
]

ROWS = [
    # a = "x": b values 1 / 1.0 / True are one class; c = "w" breaks x_z.
    (1, "x", 1, "z", "p"),
    (2, "x", 1.0, "z", "p"),
    (3, "x", True, "w", "q"),
    # NULLs group together on both sides.
    (4, None, "m", None, "p"),
    (5, None, "n", None, "q"),
    # a = 1 / True / 1.0 is one group with two b values; c = 1 / 1.0 too.
    (6, 1, "u", 1, "r"),
    (7, True, "u", 1.0, "s"),
    (8, 1.0, "v", "y", "t"),
    # A NULL RHS is a value of its own.
    (9, "y", "k", "z", "t"),
    (10, "y", None, "z", "t"),
    (11, "q", None, "v", "p"),
    (12, "q", None, "v", "p"),
]


def relation_of(rows) -> Relation:
    return Relation(SCHEMA, [Tuple(r[0], dict(zip(SCHEMA.attribute_names, r))) for r in rows])


def two_site_scheme(site0_tids) -> HorizontalPartitioner:
    """Two sites split by tid, so any LHS group may span both."""
    site0 = frozenset(site0_tids)
    return HorizontalPartitioner(
        SCHEMA,
        [AttributeIn("k", site0), AttributeIn("k", set(range(1, 100)) - site0)],
    )


PARTITIONS = {
    "incVer": lambda: even_vertical_scheme(SCHEMA, 3),
    "incHor": lambda: two_site_scheme({1, 4, 6, 9, 11}),
}


@pytest.fixture
def no_variable_scans(monkeypatch):
    """Make ``CentralizedDetector.detect`` refuse any variable CFD."""
    original = CentralizedDetector.detect

    def guarded(self, relation):
        variable = [cfd.name for cfd in self.cfds if not cfd.is_constant()]
        if variable:
            raise AssertionError(f"the build scanned D for variable CFDs {variable}")
        return original(self, relation)

    def build(builder):
        with monkeypatch.context() as patch:
            patch.setattr(CentralizedDetector, "detect", guarded)
            return builder.build()

    return build


def build_session(build, strategy, storage, rows, cfds=CFDS, partitioner=None):
    builder = (
        repro.session(relation_of(rows))
        .partition(partitioner or PARTITIONS[strategy]())
        .rules(cfds)
        .strategy(strategy)
        .storage(storage)
    )
    return build(builder)


@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("strategy", ["incVer", "incHor"])
class TestInitialViolationsFromTheIndex:
    def test_equal_to_centralized_detection(self, no_variable_scans, strategy, storage):
        expected = detect_violations(CFDS, relation_of(ROWS))
        sess = build_session(no_variable_scans, strategy, storage, ROWS)
        try:
            assert sess.violations == expected
            assert sess.initial_violations == expected
            stats = sess.network.stats()
            assert (stats.messages, stats.bytes) == (0, 0)
        finally:
            sess.close()

    def test_equal_marks_are_one_frozenset(self, no_variable_scans, strategy, storage):
        sess = build_session(no_variable_scans, strategy, storage, ROWS)
        try:
            marks = sess.violations._by_tid
            # Each of 4, 5 and 6 violates exactly a_b and c_d.
            assert marks[4] is marks[5] is marks[6]
            assert marks[4] == {"a_b", "c_d"}
        finally:
            sess.close()

    def test_empty_relation(self, no_variable_scans, strategy, storage):
        sess = build_session(no_variable_scans, strategy, storage, [])
        try:
            assert len(sess.violations) == 0
            assert sess.network.stats().messages == 0
        finally:
            sess.close()

    def test_constant_cfds_only(self, no_variable_scans, strategy, storage):
        constant = [cfd for cfd in CFDS if cfd.is_constant()]
        expected = detect_violations(constant, relation_of(ROWS))
        sess = build_session(no_variable_scans, strategy, storage, ROWS, cfds=constant)
        try:
            assert sess.violations == expected
            assert sess.violations.tids() == {3, 7}
        finally:
            sess.close()

    def test_waves_continue_from_it(self, strategy, storage):
        base = relation_of(ROWS)
        sess = build_session(lambda builder: builder.build(), strategy, storage, ROWS)
        try:
            inserted = relation_of([(13, "q", "n", "v", "p")])[13]
            batch = repro.UpdateBatch(
                [repro.Update.delete(base[8]), repro.Update.insert(inserted)]
            )
            sess.apply(batch)
            assert sess.violations == detect_violations(CFDS, batch.apply_to(base))
        finally:
            sess.close()


@pytest.mark.parametrize("storage", STORAGES)
class TestHorizontalGroupOverTwoSites:
    """A general CFD (the partition predicate is on the key, not the LHS):
    one LHS group with a member at each site."""

    RULES = [CFD(["a"], "b", name="a_b")]

    def build(self, build, storage, b_at_site1):
        rows = [(1, "x", "same", "c", "d"), (2, "x", b_at_site1, "c", "d")]
        sess = build_session(
            build, "incHor", storage, rows, cfds=self.RULES,
            partitioner=two_site_scheme({1}),
        )
        assert [sess.deployment.site(s).fragment.tids() for s in (0, 1)] == [{1}, {2}]
        return sess, rows

    def test_one_shared_rhs_value_is_clean(self, no_variable_scans, storage):
        sess, _ = self.build(no_variable_scans, storage, "same")
        try:
            assert len(sess.violations) == 0
        finally:
            sess.close()

    def test_two_rhs_values_violate_at_both_sites(self, no_variable_scans, storage):
        sess, rows = self.build(no_variable_scans, storage, "other")
        try:
            assert sess.violations.tids_for("a_b") == {1, 2}
            assert sess.violations == detect_violations(self.RULES, relation_of(rows))
        finally:
            sess.close()


@pytest.fixture
def profiling():
    """Profiling on for the test body, then back to how it was."""
    was = profile.enabled
    profile.enable()
    yield
    (profile.enable if was else profile.disable)()


class TestBuildIsProfiled:
    def test_reconstruct_and_index_read_are_noted(self, profiling):
        before = profile.snapshot()
        sess = build_session(lambda builder: builder.build(), "incVer", "rows", ROWS)
        sess.close()
        noted = profile.diff(profile.snapshot(), before)
        assert noted["partition.reconstruct"]["items"] == len(ROWS)
        assert noted["idx.violations_from_index"]["calls"] == 1
        assert noted["idx.violations_from_index"]["items"] == len(
            detect_violations(CFDS, relation_of(ROWS))
        )

    def test_gc_pauses_are_noted_only_while_enabled(self, profiling):
        assert profile._gc_hook in gc.callbacks
        before = profile.snapshot()
        gc.collect()
        noted = profile.diff(profile.snapshot(), before)
        assert noted["gc.gen2"]["calls"] >= 1
        assert noted["gc.gen2"]["seconds"] > 0.0
        profile.disable()
        assert profile._gc_hook not in gc.callbacks
        gc.collect()
        assert profile.diff(profile.snapshot(), before) == noted
