"""Unit tests for the site runtime: scheduler, network ledger, session surface."""

import threading

import pytest

from repro.distributed.message import MessageKind
from repro.distributed.network import Network
from repro.runtime.scheduler import SiteScheduler, SiteTask


def square(x):
    return x * x


def boom():
    raise ValueError("task exploded")


class TestScheduler:
    def test_results_keep_task_order(self):
        scheduler = SiteScheduler()
        results = scheduler.run([SiteTask(i, square, (i,)) for i in range(8)])
        assert [r.value for r in results] == [i * i for i in range(8)]
        assert [r.site for r in results] == list(range(8))
        assert all(r.seconds >= 0.0 for r in results)

    def test_task_exception_propagates_and_the_round_is_not_counted(self):
        scheduler = SiteScheduler()
        with pytest.raises(ValueError, match="task exploded"):
            scheduler.run([SiteTask(0, square, (2,)), SiteTask(1, boom)])
        timings = scheduler.timings()
        assert timings.rounds == 0 and timings.tasks == 0
        assert timings.busy_seconds == 0.0

    def test_timing_ledger_accumulates(self):
        scheduler = SiteScheduler()
        scheduler.run([SiteTask(0, square, (2,)), SiteTask(1, square, (3,))])
        scheduler.run([SiteTask(0, square, (4,))])
        timings = scheduler.timings()
        assert timings.rounds == 2
        assert timings.tasks == 3
        assert set(timings.seconds_by_site) == {0, 1}
        assert timings.busy_seconds >= timings.critical_seconds >= 0.0
        assert timings.parallelism >= 1.0

    def test_empty_round_is_not_counted(self):
        scheduler = SiteScheduler()
        assert scheduler.run([]) == []
        assert scheduler.timings().rounds == 0

    def test_reset_timings(self):
        scheduler = SiteScheduler()
        scheduler.run([SiteTask(0, square, (2,))])
        scheduler.reset_timings()
        timings = scheduler.timings()
        assert timings.rounds == 0 and timings.tasks == 0
        assert timings.seconds_by_site == {}


class TestNetworkLedger:
    def ship(self, network, n, kind=MessageKind.EQID, size=8):
        for _ in range(n):
            network.send(0, 1, kind, None, size, units=1)

    def test_reset_zeroes_and_returns_final_snapshot(self):
        network = Network()
        self.ship(network, 3)
        final = network.reset()
        assert final.messages == 3
        assert final.bytes == 24
        assert network.stats().messages == 0
        assert network.stats().units_by_kind == {}

    def test_diff_is_total_across_resets(self):
        network = Network()
        self.ship(network, 3)
        before = network.stats()
        network.reset()
        self.ship(network, 1, kind=MessageKind.TUPLE, size=100)
        after = network.stats()
        delta = after.diff(before)
        # Keys only present in the earlier snapshot yield negative deltas
        # instead of silently disappearing.
        assert delta.messages == -2
        assert delta.units_by_kind == {MessageKind.TUPLE.value: 1, MessageKind.EQID.value: -3}
        assert delta.bytes == 100 - 24

    def test_diff_of_equal_snapshots_is_empty(self):
        network = Network()
        self.ship(network, 2)
        stats = network.stats()
        delta = stats.diff(network.stats())
        assert delta.messages == 0
        assert delta.units_by_kind == {}
        assert delta.messages_by_pair == {}

    def test_concurrent_shipping_is_consistent(self):
        network = Network()
        n_threads, per_thread = 8, 500

        def worker():
            for _ in range(per_thread):
                network.send(0, 1, MessageKind.EQID, None, 8, units=1)

        threads = [threading.Thread(target=worker) for _ in range(n_threads)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        stats = network.stats()
        assert stats.messages == n_threads * per_thread
        assert stats.bytes == n_threads * per_thread * 8
        assert stats.units_by_kind == {MessageKind.EQID.value: n_threads * per_thread}


class TestCrossSiteModification:
    def test_modification_moving_a_tid_across_sites_folds_in_batch_order(self):
        """Regression: a delete+insert pair that re-routes a tid must fold
        its unmark/mark ops in batch order, not site order."""
        from repro.core.cfd import CFD
        from repro.core.detector import CentralizedDetector
        from repro.core.relation import Relation
        from repro.core.schema import Schema
        from repro.core.tuples import Tuple
        from repro.core.updates import Update, UpdateBatch
        from repro.distributed.cluster import Cluster
        from repro.horizontal.inchor import HorizontalIncrementalDetector
        from repro.partition.horizontal import hash_horizontal_scheme

        schema = Schema("R", ["k", "a", "b"], key="k")
        # Constant CFD: a = 1 requires b = 0.
        cfd = CFD(["a"], "b", {"a": 1, "b": 0}, name="phi")
        old = Tuple(1, {"k": 1, "a": 1, "b": 5})
        relation = Relation(schema, [old])
        # Hash-partition on b: changing b moves the tuple to another site.
        partitioner = hash_horizontal_scheme(schema, 2, "b")
        cluster = Cluster.from_horizontal(partitioner, relation)
        new = Tuple(1, {"k": 1, "a": 1, "b": 4})
        assert partitioner.route_tuple(old) != partitioner.route_tuple(new)

        detector = HorizontalIncrementalDetector(cluster, [cfd])
        assert detector.violations.tids() == {1}
        detector.apply(UpdateBatch([Update.delete(old), Update.insert(new)]))
        reference = CentralizedDetector([cfd]).detect(cluster.reconstruct())
        assert detector.violations == reference
        assert detector.violations.tids() == {1}


class TestSessionRuntimeSurface:
    def test_reset_costs_between_batches(self):
        from repro.engine.session import session
        from repro.workloads.tpch import TPCHGenerator
        from repro.workloads.rules import generate_cfds
        from repro.workloads.updates import generate_updates

        generator = TPCHGenerator(seed=3)
        relation = generator.relation(60)
        cfds = list(generate_cfds(generator.fd_specs(), 4, seed=3))
        updates = generate_updates(relation, generator, 30, seed=3)
        sess = (
            session(relation)
            .partition(generator.vertical_partitioner(3))
            .rules(cfds)
            .strategy("incVer")
            .build()
        )
        sess.apply(updates)
        shipped = sess.network.stats().messages
        first = sess.reset_costs()
        # The returned snapshot keeps the discarded pre-reset totals.
        assert first.messages == shipped > 0
        assert sess.network.stats().messages == 0
        assert sess.report().messages == 0
        sess.close()

    def test_closed_session_rejects_apply(self):
        from repro.engine.session import SessionError, session
        from repro.workloads.tpch import TPCHGenerator
        from repro.workloads.rules import generate_cfds
        from repro.workloads.updates import generate_updates
        import pytest as _pytest

        generator = TPCHGenerator(seed=4)
        relation = generator.relation(40)
        cfds = list(generate_cfds(generator.fd_specs(), 3, seed=4))
        updates = generate_updates(relation, generator, 10, seed=4)
        with session(relation).partition(
            generator.horizontal_partitioner(2)
        ).rules(cfds).strategy("batHor").build() as sess:
            sess.apply(updates)
        with _pytest.raises(SessionError, match="closed"):
            sess.apply(updates)
        # Reads stay available after close.
        assert sess.report().batches_applied == 1

    def test_default_session_serves_the_benchmark_harness_surface(self):
        """``benchmarks/harness`` reads these fields of every session it runs."""
        from repro.engine.session import session
        from repro.workloads.tpch import TPCHGenerator
        from repro.workloads.rules import generate_cfds
        from repro.workloads.updates import generate_updates

        generator = TPCHGenerator(seed=5)
        relation = generator.relation(60)
        cfds = list(generate_cfds(generator.fd_specs(), 4, seed=5))
        updates = generate_updates(relation, generator, 20, seed=5)
        with (
            session(relation)
            .partition(generator.horizontal_partitioner(3))
            .rules(cfds)
            .strategy("batHor")
            .build()
        ) as sess:
            sess.apply(updates)
            assert sess.timings().bytes_pickled == 0
            info = sess.explain()
            assert info["runtime"]["rounds"] > 0
            assert info["runtime"]["tasks"] >= info["runtime"]["rounds"]
            assert "executor" not in info
            assert not hasattr(sess, "executor")

        scheduler = SiteScheduler()
        results = scheduler.run([SiteTask(i, square, (i,)) for i in (3, 1, 2)])
        assert [r.value for r in results] == [9, 1, 4]
        assert scheduler.timings().rounds == 1
