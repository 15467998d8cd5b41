"""Concurrency hardening: thread-safe close, locked stats, hammer tests."""

import random
import threading

import pytest

from repro.core.updates import UpdateBatch
from repro.engine.session import SessionError, session
from repro.service import DetectionService, TenantQuota
from repro.stats.collector import (
    BatchProfile,
    SiteLoadTracker,
    StatsCatalog,
    StrategyFeedback,
)
from repro.workloads.rules import generate_cfds
from repro.workloads.updates import generate_updates


def run_threads(n, target):
    threads = [threading.Thread(target=target, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


@pytest.fixture
def workload(tpch):
    base = tpch.relation(80)
    cfds = list(generate_cfds(tpch.fd_specs(), 4, seed=3))
    return base, cfds


class TestSessionCloseThreadSafety:
    def test_concurrent_double_close_never_raises(self, tpch, workload):
        base, cfds = workload
        sess = session(base).rules(cfds).build()
        errors = []
        barrier = threading.Barrier(8)

        def close(_i):
            barrier.wait()
            try:
                sess.close()
            except BaseException as exc:  # pragma: no cover - the regression
                errors.append(exc)

        run_threads(8, close)
        assert errors == []
        with pytest.raises(SessionError, match="closed"):
            sess.apply(UpdateBatch())

    def test_serial_double_close(self, tpch, workload):
        base, cfds = workload
        sess = session(base).rules(cfds).build()
        sess.close()
        sess.close()  # the service drain path double-closes; must not raise


class TestStatsLocking:
    N_THREADS = 4
    N_OPS = 500

    def test_site_load_tracker_hammer_loses_no_hits(self):
        tracker = SiteLoadTracker("k", n_buckets=16)
        rows = [{"k": f"key-{i % 40}"} for i in range(self.N_OPS)]

        def hammer(_i):
            for row in rows:
                tracker.note_update(row)

        run_threads(self.N_THREADS, hammer)
        expected = self.N_THREADS * self.N_OPS
        assert tracker.total_hits == expected
        assert sum(tracker.bucket_loads.values()) == expected

    def test_site_load_tracker_batch_hammer(self, tpch):
        base = tpch.relation(40)
        tracker = SiteLoadTracker(base.schema.key, n_buckets=32)
        batches = [
            generate_updates(base, tpch, 50, rng=random.Random(i)) for i in range(4)
        ]

        def hammer(i):
            for batch in batches:
                tracker.note_batch(batch)

        run_threads(self.N_THREADS, hammer)
        assert tracker.total_hits == self.N_THREADS * 4 * 50
        assert sum(tracker.bucket_loads.values()) == tracker.total_hits

    def test_strategy_feedback_hammer_loses_no_observations(self):
        from repro.planner.cost import CostVector

        feedback = StrategyFeedback(alpha=0.5)
        cost = CostVector(bytes=100.0, messages=2.0, eqids=1.0, local_work=5.0)

        def hammer(_i):
            for _ in range(self.N_OPS):
                feedback.observe(driver=10.0, cost=cost, seconds=0.01)

        run_threads(self.N_THREADS, hammer)
        assert feedback.n_observations == self.N_THREADS * self.N_OPS
        # All observations are identical, so no interleaving can move the
        # EWMA off the fixed point: a torn read/write would.
        assert feedback.bytes_per_unit.value == pytest.approx(10.0)
        assert feedback.messages_per_unit.value == pytest.approx(0.2)

    def test_stats_catalog_hammer_keeps_cardinality_exact(self, tpch, workload):
        base, cfds = workload
        catalog = StatsCatalog.collect(base, cfds, partitioning="single")
        start = catalog.relation.cardinality
        profile = BatchProfile(
            size=1, n_inserts=1, n_deletes=0, normalized_size=1, net_growth=1
        )

        def hammer(i):
            for _ in range(self.N_OPS):
                catalog.note_batch(profile)
                catalog.feedback_for(f"strategy-{i % 2}")

        run_threads(self.N_THREADS, hammer)
        assert catalog.relation.cardinality == start + self.N_THREADS * self.N_OPS
        assert set(catalog._feedback) == {"strategy-0", "strategy-1"}

    def test_catalog_site_loads_snapshot_consistent_under_writes(self):
        from repro.stats.collector import RelationStats, RuleProfile, SiteLoad

        catalog = StatsCatalog(
            relation=RelationStats(10, 2, {}, 8.0),
            rules=RuleProfile(0, 0, 0, 0, 1.0),
            partitioning="horizontal",
            n_sites=4,
        )
        stop = threading.Event()
        errors = []

        def writer():
            i = 0
            while not stop.is_set():
                catalog.update_site_loads(
                    [SiteLoad(site=s, update_hits=i) for s in range(4)]
                )
                i += 1

        def reader():
            try:
                for _ in range(2000):
                    catalog.hottest_site_share()
                    catalog.as_dict()
            except BaseException as exc:  # pragma: no cover - the regression
                errors.append(exc)

        w = threading.Thread(target=writer)
        r = threading.Thread(target=reader)
        w.start()
        r.start()
        r.join()
        stop.set()
        w.join()
        assert errors == []


class TestServiceConcurrentIngestion:
    def test_many_submitter_threads_nothing_lost(self, tpch, workload):
        base, cfds = workload
        quota = TenantQuota(max_pending=100_000, max_batch=32, max_delay=0.002)
        with DetectionService() as svc:
            svc.register("a", session(base).rules(cfds), quota=quota)
            svc.register("b", session(base).rules(cfds), quota=quota)
            per_client = 60
            # One generation pass per tenant (tids stay unique), dealt
            # round-robin to that tenant's 3 simulated clients.
            streams = {}
            for j, tenant in enumerate(("a", "b")):
                stream = list(
                    generate_updates(
                        base, tpch, 3 * per_client, rng=random.Random(1000 + j)
                    )
                )
                for c in range(3):
                    streams[(tenant, c)] = stream[c::3]

            def client(i):
                tenant = "a" if i % 2 == 0 else "b"
                for update in streams[(tenant, i // 2)]:
                    svc.submit(tenant, update)

            run_threads(6, client)
            svc.drain()
            metrics = svc.metrics()
            assert metrics.submitted == 6 * per_client
            assert metrics.rejected == 0
            assert metrics.applied_updates == metrics.accepted == metrics.submitted
            for tenant_metrics in metrics.tenants:
                assert tenant_metrics.queue_depth == 0
                assert tenant_metrics.applied_updates == 3 * per_client

    def test_concurrent_service_close_is_safe(self, tpch, workload):
        base, cfds = workload
        svc = DetectionService()
        svc.register("a", session(base).rules(cfds))
        svc.submit("a", generate_updates(base, tpch, 20, rng=random.Random(2)))
        errors = []
        barrier = threading.Barrier(4)

        def close(_i):
            barrier.wait()
            try:
                svc.close()
            except BaseException as exc:  # pragma: no cover - the regression
                errors.append(exc)

        run_threads(4, close)
        assert errors == []
        assert svc.closed
        assert svc.metrics("a").applied_updates == 20
