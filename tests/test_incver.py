"""Tests for incVer: incremental detection over vertical partitions."""

import pytest

from repro.core.cfd import CFD, UNNAMED
from repro.core.detector import detect_violations
from repro.core.updates import Update, UpdateBatch
from repro.distributed.cluster import Cluster
from repro.distributed.network import Network
from repro.engine.session import session
from repro.indexes.planner import HEVPlanner, hev_plan, naive_chain_plan
from repro.vertical.incver import VerticalIncrementalDetector
from repro.workloads.tpch import TPCHGenerator
from repro.workloads.rules import generate_cfds
from repro.workloads.updates import generate_updates


@pytest.fixture
def emp_vertical(emp, emp_relation):
    cluster = Cluster.from_vertical(emp.vertical_partitioner(), emp_relation)
    return cluster


class TestSetup:
    def test_requires_vertical_cluster(self, emp, emp_relation, emp_cfds):
        horizontal = Cluster.from_horizontal(emp.horizontal_partitioner(), emp_relation)
        with pytest.raises(ValueError):
            VerticalIncrementalDetector(horizontal, emp_cfds)

    def test_initial_violations_computed_when_not_given(self, emp_vertical, emp_cfds):
        detector = VerticalIncrementalDetector(emp_vertical, emp_cfds)
        assert detector.violations.tids_for("phi1") == {1, 3, 4, 5}
        assert detector.violations.tids_for("phi2") == {1}

    def test_given_violations_are_copied(self, emp_vertical, emp_cfds, emp_relation, emp_cfds_copy=None):
        initial = detect_violations(emp_cfds, emp_relation)
        detector = VerticalIncrementalDetector(emp_vertical, emp_cfds, violations=initial)
        detector.violations.add(999, "phi1")
        assert 999 not in initial

    def test_unknown_attribute_in_cfd_rejected(self, emp_vertical):
        with pytest.raises(Exception):
            VerticalIncrementalDetector(emp_vertical, [CFD(["nope"], "street")])

    def test_index_exposed_for_variable_cfds(self, emp_vertical, emp_cfds):
        detector = VerticalIncrementalDetector(emp_vertical, emp_cfds)
        index = detector.index_for("phi1")
        assert index.cfd.name == "phi1"
        with pytest.raises(KeyError):
            detector.index_for("phi2")  # constant CFDs have no IDX


class TestPaperExample:
    def test_insert_t6_then_delete_t4(self, emp, emp_vertical, emp_cfds):
        detector = VerticalIncrementalDetector(emp_vertical, emp_cfds)
        tuples = emp.tuples()
        delta = detector.apply(UpdateBatch.of(Update.insert(tuples["t6"])))
        assert delta.added == {6: {"phi1"}}
        assert delta.removed == {}
        delta = detector.apply(UpdateBatch.of(Update.delete(tuples["t4"])))
        assert delta.removed == {4: {"phi1"}}
        assert delta.added == {}

    def test_constant_cfd_violation_from_insert_and_delete(self, emp, emp_vertical, emp_cfds):
        detector = VerticalIncrementalDetector(emp_vertical, emp_cfds)
        bad = emp.tuples()["t6"].with_values(city="NYC", zip="Z9")
        delta = detector.apply(UpdateBatch.of(Update.insert(bad)))
        assert "phi2" in delta.added[6]
        delta = detector.apply(UpdateBatch.of(Update.delete(bad)))
        assert "phi2" in delta.removed[6]

    def test_fragments_are_maintained(self, emp, emp_vertical, emp_cfds):
        detector = VerticalIncrementalDetector(emp_vertical, emp_cfds)
        tuples = emp.tuples()
        detector.apply(UpdateBatch.of(Update.insert(tuples["t6"]), Update.delete(tuples["t2"])))
        rebuilt = emp_vertical.reconstruct()
        assert rebuilt.tids() == {1, 3, 4, 5, 6}

    def test_eqid_only_shipment_for_variable_cfds(self, emp, emp_relation):
        """Only eqids travel when processing a variable CFD update."""
        network = Network()
        cluster = Cluster.from_vertical(emp.vertical_partitioner(), emp_relation, network)
        detector = VerticalIncrementalDetector(cluster, [emp.phi1()])
        detector.apply(UpdateBatch.of(Update.insert(emp.tuples()["t6"])))
        stats = network.stats()
        assert stats.eqids_shipped > 0
        assert stats.tuples_shipped == 0


class TestEquivalenceWithCentralized:
    @pytest.mark.parametrize("n_partitions", [2, 4, 7])
    def test_matches_centralized_on_tpch(self, n_partitions):
        generator = TPCHGenerator(seed=5, error_rate=0.1)
        cfds = generate_cfds(generator.fd_specs(), 8, seed=2)
        base = generator.relation(120)
        updates = generate_updates(base, generator, 60, seed=9)
        cluster = Cluster.from_vertical(generator.vertical_partitioner(n_partitions), base)
        detector = VerticalIncrementalDetector(cluster, cfds)
        detector.apply(updates)
        expected = detect_violations(cfds, updates.apply_to(base))
        assert detector.violations == expected

    def test_optimized_plan_gives_same_result(self):
        generator = TPCHGenerator(seed=5, error_rate=0.1)
        cfds = generate_cfds(generator.fd_specs(), 10, seed=2)
        base = generator.relation(100)
        updates = generate_updates(base, generator, 50, seed=9)
        partitioner = generator.vertical_partitioner(6)
        plan = HEVPlanner(partitioner).plan(cfds)
        cluster = Cluster.from_vertical(partitioner, base)
        detector = VerticalIncrementalDetector(cluster, cfds, plan=plan)
        detector.apply(updates)
        assert detector.violations == detect_violations(cfds, updates.apply_to(base))

    def test_deletions_only_remove_and_insertions_only_add(self):
        generator = TPCHGenerator(seed=6, error_rate=0.1)
        cfds = generate_cfds(generator.fd_specs(), 6, seed=2)
        base = generator.relation(100)
        cluster = Cluster.from_vertical(generator.vertical_partitioner(5), base)
        detector = VerticalIncrementalDetector(cluster, cfds)

        inserts = UpdateBatch.inserts(generator.tuples(1000, 40))
        delta = detector.apply(inserts)
        assert not delta.removed

        victims = [t for t in base][:30]
        delta = detector.apply(UpdateBatch.deletes(victims))
        assert not delta.added

    def test_delta_applied_to_old_violations_gives_new_violations(self):
        generator = TPCHGenerator(seed=8, error_rate=0.1)
        cfds = generate_cfds(generator.fd_specs(), 6, seed=3)
        base = generator.relation(80)
        updates = generate_updates(base, generator, 50, seed=4)
        old = detect_violations(cfds, base)
        cluster = Cluster.from_vertical(generator.vertical_partitioner(4), base)
        detector = VerticalIncrementalDetector(cluster, cfds, violations=old)
        delta = detector.apply(updates)
        patched = old.copy()
        patched.apply(delta)
        assert patched == detect_violations(cfds, updates.apply_to(base))

    def test_modification_as_delete_plus_insert(self, emp, emp_vertical, emp_cfds):
        detector = VerticalIncrementalDetector(emp_vertical, emp_cfds)
        old = emp.tuples()["t5"]
        new = old.with_values(street="Mayfield")
        delta = detector.apply(UpdateBatch.modification(old, new))
        # With every UK tuple in the EH4 8LE group now agreeing on street,
        # all phi1 violations in that group disappear.
        expected = detect_violations(emp_cfds, emp_vertical.reconstruct())
        assert detector.violations == expected
        assert 5 not in detector.violations.tids_for("phi1")
        assert delta.removed


class TestNaiveChainPlan:
    """The naive chains of Fig. 6(a), run through ``plan=``, stay a working plan."""

    @pytest.mark.parametrize("storage", ["rows", "columnar", "sql"])
    def test_naive_chains_match_the_default_plan_and_ship_their_neqid(self, storage):
        generator = TPCHGenerator(seed=7, error_rate=0.1)
        specs = generator.fd_specs()
        cfds = generate_cfds(specs, len(specs), seed=7)  # the plain FDs: all wildcards
        assert all(cfd.pattern.entry(a) is UNNAMED for cfd in cfds for a in cfd.lhs)
        base = generator.relation(120)
        updates = list(generate_updates(base, generator, 30, seed=7))
        partitioner = generator.vertical_partitioner(8)
        naive = naive_chain_plan(cfds, partitioner)
        assert naive.eqid_shipments_per_update() > hev_plan(
            cfds, partitioner
        ).eqid_shipments_per_update()

        def run(plan):
            sess = (
                session(base)
                .partition(partitioner)
                .rules(cfds)
                .strategy("incVer", plan=plan)
                .storage(storage)
                .build()
            )
            deltas, eqids = [], []
            with sess:
                for update in updates:
                    before = sess.network.stats().eqids_shipped
                    delta = sess.apply(UpdateBatch([update]))
                    deltas.append((delta.added, delta.removed))
                    eqids.append(sess.network.stats().eqids_shipped - before)
                return sess.violations, deltas, eqids

        naive_run, default_run = run(naive), run(None)
        assert len(naive_run[0]) and naive_run[:2] == default_run[:2]
        assert naive_run[2] == [naive.eqid_shipments_per_update()] * len(updates)
