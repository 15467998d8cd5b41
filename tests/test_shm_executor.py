"""Units for the shared-memory backend stack.

Covers the integer-bitset mask helpers, the column store's mutation
journal, the shm export/attach/delta codec, the
:class:`SharedMemoryExecutor`'s warm worker pool and round protocol, its
residency protocol (publish once, delta
thereafter, republish on overflow/crash, unlink everything at close)
and the in-place update delivery that keeps fragment stores alive
across batches.

Task functions are module-level on purpose: a function defined inside a
test body after the pool forked is not resolvable in the workers.
"""

import os
import pickle
import signal
import subprocess
import sys
import threading
from array import array
from pathlib import Path
from multiprocessing.shared_memory import SharedMemory

import pytest

import repro.columnar.store as store_mod
from repro.columnar.masks import iter_mask_rows, mask_to_tids, rows_to_mask
from repro.columnar.shmcol import (
    AttachedColumnStore,
    CodeColumn,
    apply_delta,
    attach_relation,
    export_payload,
    typecode_for,
)
from repro.columnar.store import ColumnStore
from repro.core.relation import Relation, RelationError
from repro.core.schema import Schema
from repro.core.tuples import Tuple
from repro.core.updates import Update, UpdateBatch
from repro.distributed.cluster import Cluster
from repro.distributed.network import Network
from repro.distributed.serialization import IpcLedger
from repro.obs.trace import Tracer
from repro.partition.horizontal import hash_horizontal_scheme
from repro.partition.vertical import even_vertical_scheme
from repro.runtime.executor import (
    ExecutorError,
    SerialExecutor,
    SiteTask,
)
from repro.runtime.shm import SharedMemoryExecutor


@pytest.fixture
def schema():
    return Schema("R", ["id", "a", "b", "c"], key="id")


def make_relation(schema, n=20, storage="columnar"):
    return Relation.from_rows(
        schema,
        [{"id": i, "a": i % 3, "b": f"b{i % 4}", "c": f"c{i % 2}"} for i in range(n)],
        storage=storage,
    )


# -- module-level task functions (picklable by reference in workers) ------------------


def _double(x):
    return 2 * x


def _boom(msg):
    raise ValueError(f"task exploded: {msg}")


def _worker_pid(_=None):
    return os.getpid()


def _die(_=None):
    os._exit(3)


def _rows_of(relation):
    return sorted((t.tid, t["a"], t["b"], t["c"]) for t in relation)


def _store_kind(relation):
    return type(relation.store).__name__


# -- masks ----------------------------------------------------------------------------


class TestMasks:
    def test_round_trip(self):
        rows = [0, 3, 5, 64, 100]
        mask = rows_to_mask(rows)
        assert list(iter_mask_rows(mask)) == rows
        assert mask.bit_count() == len(rows)

    def test_empty(self):
        assert rows_to_mask([]) == 0
        assert list(iter_mask_rows(0)) == []

    def test_set_algebra_matches_row_sets(self):
        a, b = {1, 5, 9, 70}, {5, 9, 200}
        ma, mb = rows_to_mask(sorted(a)), rows_to_mask(sorted(b))
        assert set(iter_mask_rows(ma & mb)) == a & b
        assert set(iter_mask_rows(ma | mb)) == a | b
        assert set(iter_mask_rows(ma & ~mb)) == a - b

    def test_mask_to_tids(self, schema):
        relation = make_relation(schema, n=6)
        store = relation.store
        mask = rows_to_mask([1, 4])
        assert mask_to_tids(store, mask) == {store.tid_of_row(1), store.tid_of_row(4)}


# -- the mutation journal --------------------------------------------------------------


class TestStoreJournal:
    def test_uids_are_unique_and_versions_bump(self, schema):
        s1 = make_relation(schema, n=3).store
        s2 = make_relation(schema, n=3).store
        assert s1.uid != s2.uid
        v = s1.version
        s1.insert(Tuple(99, {"id": 99, "a": 0, "b": "b0", "c": "c0"}))
        assert s1.version == v + 1
        s1.pop(99)
        assert s1.version == v + 2

    def test_journal_records_decoded_values(self, schema):
        store = make_relation(schema, n=2).store
        store.enable_journal()
        v = store.version
        store.insert(Tuple(7, {"id": 7, "a": 1, "b": "b1", "c": "c1"}))
        store.pop(0)
        ops = store.journal_since(v)
        assert ops == [("i", 7, (7, 1, "b1", "c1")), ("d", 0)]
        # A later cursor sees only the tail; the current version sees nothing.
        assert store.journal_since(v + 1) == [("d", 0)]
        assert store.journal_since(store.version) == []

    def test_journal_disabled_until_enabled(self, schema):
        store = make_relation(schema, n=2).store
        assert store.journal_since(store.version) is None
        store.enable_journal()
        assert store.journal_since(store.version) == []

    def test_pre_enable_versions_are_unreadable(self, schema):
        store = make_relation(schema, n=2).store
        before = store.version
        store.insert(Tuple(7, {"id": 7, "a": 1, "b": "b1", "c": "c1"}))
        store.enable_journal()
        assert store.journal_since(before) is None

    def test_overflow_disables_the_journal(self, schema, monkeypatch):
        monkeypatch.setattr(store_mod, "_JOURNAL_CAP", 3)
        store = make_relation(schema, n=1).store
        store.enable_journal()
        v = store.version
        for i in range(10, 15):
            store.insert(Tuple(i, {"id": i, "a": 0, "b": "b0", "c": "c0"}))
        assert store.journal_since(v) is None
        # Re-enabling starts a fresh journal at the current version.
        store.enable_journal()
        assert store.journal_since(store.version) == []

    def test_trim_drops_seen_entries(self, schema):
        store = make_relation(schema, n=1).store
        store.enable_journal()
        v = store.version
        store.insert(Tuple(5, {"id": 5, "a": 0, "b": "b0", "c": "c0"}))
        store.insert(Tuple(6, {"id": 6, "a": 0, "b": "b0", "c": "c0"}))
        store.trim_journal(v + 1)
        assert store.journal_since(v) is None
        assert store.journal_since(v + 1) == [("i", 6, (6, 0, "b0", "c0"))]

    def test_grouped_masks_match_grouped_rows(self, schema):
        store = make_relation(schema, n=12).store
        masks = store.grouped_masks(("a", "b"))
        rows = store.grouped_rows(("a", "b"))
        assert set(masks) == set(rows)
        for key, mask in masks.items():
            assert list(iter_mask_rows(mask)) == sorted(rows[key])


# -- the shm codec ---------------------------------------------------------------------


class TestShmCodec:
    def test_typecode_widths(self):
        assert typecode_for(1) == "B"
        assert typecode_for(256) == "B"
        assert typecode_for(257) == "H"
        assert typecode_for(1 << 16) == "H"
        assert typecode_for((1 << 16) + 1) == "I"
        assert typecode_for(1 << 33) == "Q"
        with pytest.raises(ValueError, match="too large"):
            typecode_for((1 << 64) + 1)

    def test_code_column_list_surface(self):
        col = CodeColumn(array("B", [1, 2, 3]))
        col.append(4)
        col.extend([5])
        assert len(col) == 5
        assert list(col) == [1, 2, 3, 4, 5]
        assert col[0] == 1 and col[3] == 4 and col[-1] == 5
        assert col[1:3] == [2, 3]
        assert col.copy() == [1, 2, 3, 4, 5]
        assert pickle.loads(pickle.dumps(col)) == [1, 2, 3, 4, 5]

    def test_inline_round_trip(self, schema):
        relation = make_relation(schema, n=10)
        meta, buffers, total = export_payload(relation.store, schema)
        assert total == sum(len(b) for b in buffers)
        replica, views = attach_relation(meta, None, buffers)
        assert views == []
        assert isinstance(replica.store, AttachedColumnStore)
        assert _rows_of(replica) == _rows_of(relation)

    def test_shm_round_trip_is_zero_copy(self, schema):
        relation = make_relation(schema, n=10)
        meta, buffers, total = export_payload(relation.store, schema)
        shm = SharedMemory(create=True, size=total)
        try:
            offset = 0
            for buf in buffers:
                shm.buf[offset : offset + len(buf)] = buf
                offset += len(buf)
            replica, views = attach_relation(meta, shm.buf)
            assert _rows_of(replica) == _rows_of(relation)
            assert views  # typed casts straight into the segment
            for view in views:
                view.release()
        finally:
            shm.close()
            shm.unlink()

    def test_export_preserves_physical_layout(self, schema):
        # Tombstoned rows are exported too: compact row-space results
        # require row index r to name the same tuple on both sides.
        relation = make_relation(schema, n=8)
        relation.discard(3)
        relation.discard(6)
        meta, buffers, _total = export_payload(relation.store, schema)
        replica, _views = attach_relation(meta, None, buffers)
        assert _rows_of(replica) == _rows_of(relation)
        assert replica.store.tids_list() == relation.store.tids_list()
        assert replica.store.dead_rows() == relation.store.dead_rows()
        assert list(replica.store.live_rows()) == list(relation.store.live_rows())

    def test_delta_replay_matches_direct_mutation(self, schema):
        relation = make_relation(schema, n=6)
        store = relation.store
        store.enable_journal()
        v = store.version
        meta, buffers, _total = export_payload(store, schema)
        replica, _views = attach_relation(meta, None, buffers)
        # Mutate the coordinator side, including a value the replica's
        # dictionaries have never seen.
        relation.insert(Tuple(50, {"id": 50, "a": 9, "b": "fresh", "c": "c0"}))
        relation.discard(1)
        apply_delta(replica, store.journal_since(v))
        assert _rows_of(replica) == _rows_of(relation)
        # Replay drives the replica through the same insert/pop paths, so
        # physical row indices stay aligned, not just logical contents.
        assert replica.store.tids_list() == store.tids_list()
        assert replica.store.dead_rows() == store.dead_rows()


# -- the warm process pool -------------------------------------------------------------


class TestProcessExecutorPool:
    """The one process executor's warm pool and its round protocol."""

    def test_workers_survive_across_runs(self):
        executor = SharedMemoryExecutor(workers=1)
        try:
            first = executor.run([SiteTask(0, _worker_pid)])
            second = executor.run([SiteTask(0, _worker_pid)])
            assert first[0].value == second[0].value  # same warm process
            assert first[0].value != os.getpid()
        finally:
            executor.close()

    def test_explicit_spawn_context(self):
        executor = SharedMemoryExecutor(workers=1, context="spawn")
        try:
            results = executor.run([SiteTask(0, _double, (21,))])
            assert results[0].value == 42
        finally:
            executor.close()

    def test_results_keep_submission_order(self):
        executor = SharedMemoryExecutor(workers=2)
        try:
            results = executor.run([SiteTask(i, _double, (i,)) for i in range(6)])
            assert [r.value for r in results] == [0, 2, 4, 6, 8, 10]
            assert executor.run([]) == []
        finally:
            executor.close()

    def test_large_replies_with_fewer_workers_than_tasks_complete(self):
        """Four 4 MiB echoes on two workers: every reply outgrows the pipe
        buffer, so a round that sent a worker its next task before reading
        its reply would block both ends forever.  The round runs in a child
        process group; the timeout is the hang guard and kills the group."""
        code = (
            "from repro.runtime.shm import SharedMemoryExecutor\n"
            "from repro.runtime.executor import SiteTask\n"
            "payloads = [bytes([i]) * (4 << 20) for i in range(4)]\n"
            "tasks = [SiteTask(i, bytes, (p,)) for i, p in enumerate(payloads)]\n"
            "with SharedMemoryExecutor(workers=2) as executor:\n"
            "    results = executor.run(tasks)\n"
            "assert [r.value for r in results] == payloads\n"
            "print(len(results))\n"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        child = subprocess.Popen(
            [sys.executable, "-c", code],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = child.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            os.killpg(child.pid, signal.SIGKILL)
            child.communicate()
            pytest.fail("the round hung: 4 large replies on 2 workers")
        assert child.returncode == 0, err
        assert out.strip() == "4"

    def test_the_lowest_index_task_error_wins(self):
        executor = SharedMemoryExecutor(workers=2)
        try:
            tasks = [SiteTask(i, _double, (i,)) for i in range(4)]
            tasks[3] = SiteTask(3, _boom, ("late",))
            tasks[2] = SiteTask(2, _boom, ("early",))
            with pytest.raises(ValueError, match="task exploded: early"):
                executor.run(tasks)
        finally:
            executor.close()

    def test_a_crash_drains_the_round_and_the_next_round_is_in_step(self):
        executor = SharedMemoryExecutor(workers=2)
        try:
            tasks = [SiteTask(i, _double, (i,)) for i in range(4)]
            tasks[0] = SiteTask(0, _die)
            with pytest.raises(ExecutorError, match="worker 0"):
                executor.run(tasks)
            results = executor.run([SiteTask(i, _double, (10 + i,)) for i in range(4)])
            assert [r.value for r in results] == [20, 22, 24, 26]
        finally:
            executor.close()

    def test_an_unpicklable_argument_fails_its_task_not_the_next_round(self):
        executor = SharedMemoryExecutor(workers=2)
        try:
            with pytest.raises(TypeError):
                executor.run(
                    [SiteTask(0, _double, (1,)), SiteTask(1, _double, (threading.Lock(),))]
                )
            results = executor.run([SiteTask(0, _double, (5,)), SiteTask(1, _double, (7,))])
            assert [r.value for r in results] == [10, 14]
        finally:
            executor.close()

    def test_bytes_pickled_meters_real_traffic(self):
        executor = SharedMemoryExecutor(workers=1)
        try:
            assert executor.bytes_pickled == 0
            executor.run([SiteTask(0, _double, (4,))])
            after_one = executor.bytes_pickled
            assert after_one > 0
            executor.run([SiteTask(0, _double, (5,))])
            assert executor.bytes_pickled > after_one
            stats = executor.ipc_stats()
            assert stats["by_kind"]["task"]["messages"] == 2
            assert stats["by_kind"]["result"]["messages"] == 2
        finally:
            executor.close()

    def test_in_process_backends_report_zero(self):
        assert SerialExecutor().bytes_pickled == 0

    def test_task_errors_keep_their_type(self):
        executor = SharedMemoryExecutor(workers=1)
        try:
            with pytest.raises(ValueError, match="task exploded: bad"):
                executor.run([SiteTask(0, _boom, ("bad",))])
            # The pool is still usable after a task error.
            assert executor.run([SiteTask(0, _double, (1,))])[0].value == 2
        finally:
            executor.close()

    def test_worker_crash_fails_the_round_then_respawns(self):
        executor = SharedMemoryExecutor(workers=1)
        try:
            with pytest.raises(ExecutorError, match="worker"):
                executor.run([SiteTask(0, _die)])
            assert executor.run([SiteTask(0, _double, (3,))])[0].value == 6
        finally:
            executor.close()

    def test_pool_is_recreated_after_close(self):
        executor = SharedMemoryExecutor(workers=1)
        try:
            before = executor.run([SiteTask(0, _worker_pid)])[0].value
            executor.close()
            after = executor.run([SiteTask(0, _worker_pid)])[0].value
            assert before != after
            # The IPC ledger is cumulative across pools.
            assert executor.ipc_stats()["by_kind"]["task"]["messages"] == 2
        finally:
            executor.close()

    def test_worker_lifetime_spans(self):
        tracer = Tracer()
        executor = SharedMemoryExecutor(workers=1)
        executor.attach_observability(tracer)
        try:
            executor.run([SiteTask(0, _double, (1,))])
        finally:
            executor.close()
        lifetimes = [s for s in tracer.spans() if s.name == "worker.lifetime"]
        assert len(lifetimes) == 1
        assert lifetimes[0].attrs["backend"] == "shm"

    def test_invalid_worker_counts_raise(self):
        for workers in (0, -1):
            with pytest.raises(ExecutorError):
                SharedMemoryExecutor(workers=workers)

    def test_ledger_counts_every_kind(self):
        ledger = IpcLedger()
        ledger.count("task", 10)
        ledger.count("task", 5)
        ledger.count("result", 7)
        assert ledger.bytes_pickled == 22
        assert ledger.messages == 3
        snap = ledger.snapshot()
        assert snap["by_kind"]["task"] == {"messages": 2, "bytes": 15}


# -- shared-memory residency -----------------------------------------------------------


class TestShmResidency:
    def test_publish_once_then_nothing(self, schema):
        relation = make_relation(schema, n=16)
        executor = SharedMemoryExecutor(workers=1)
        try:
            for _ in range(3):
                results = executor.run([SiteTask(0, _rows_of, (relation,))])
                assert results[0].value == _rows_of(relation)
            stats = executor.ipc_stats()
            assert stats["by_kind"]["publish"]["messages"] == 1
            assert stats["shm_segments_created"] == 1
            assert stats["shm_segments_active"] == 1
            assert "delta" not in stats["by_kind"]
        finally:
            executor.close()

    def test_worker_sees_an_attached_store(self, schema):
        relation = make_relation(schema, n=8)
        executor = SharedMemoryExecutor(workers=1)
        try:
            kind = executor.run([SiteTask(0, _store_kind, (relation,))])[0].value
            assert kind == "AttachedColumnStore"
        finally:
            executor.close()

    def test_mutations_ship_as_deltas(self, schema):
        relation = make_relation(schema, n=16)
        executor = SharedMemoryExecutor(workers=1)
        try:
            executor.run([SiteTask(0, _rows_of, (relation,))])
            relation.insert(Tuple(90, {"id": 90, "a": 7, "b": "new", "c": "c1"}))
            relation.discard(2)
            results = executor.run([SiteTask(0, _rows_of, (relation,))])
            assert results[0].value == _rows_of(relation)
            stats = executor.ipc_stats()
            assert stats["by_kind"]["publish"]["messages"] == 1
            assert stats["by_kind"]["delta"]["messages"] == 1
            assert stats["shm_segments_created"] == 1
            # The delta is far smaller than the publish.
            assert (
                stats["by_kind"]["delta"]["bytes"]
                < stats["by_kind"]["publish"]["bytes"]
            )
        finally:
            executor.close()

    def test_journal_overflow_republishes(self, schema, monkeypatch):
        monkeypatch.setattr(store_mod, "_JOURNAL_CAP", 4)
        relation = make_relation(schema, n=8)
        executor = SharedMemoryExecutor(workers=1)
        try:
            executor.run([SiteTask(0, _rows_of, (relation,))])
            for i in range(100, 110):  # blow straight past the cap
                relation.insert(
                    Tuple(i, {"id": i, "a": 0, "b": "b0", "c": "c0"})
                )
            results = executor.run([SiteTask(0, _rows_of, (relation,))])
            assert results[0].value == _rows_of(relation)
            stats = executor.ipc_stats()
            assert stats["by_kind"]["publish"]["messages"] == 2
            assert stats["shm_segments_active"] == 1  # stale segment unlinked
        finally:
            executor.close()

    def test_rows_storage_falls_back_to_pickling(self, schema):
        relation = make_relation(schema, n=8, storage="rows")
        executor = SharedMemoryExecutor(workers=1)
        try:
            results = executor.run([SiteTask(0, _rows_of, (relation,))])
            assert results[0].value == _rows_of(relation)
            stats = executor.ipc_stats()
            assert stats["shm_segments_created"] == 0
            assert "publish" not in stats["by_kind"]
        finally:
            executor.close()

    def test_equal_fragment_shared_across_workers(self, schema):
        relation = make_relation(schema, n=12)
        executor = SharedMemoryExecutor(workers=2)
        try:
            executor.run(
                [SiteTask(0, _rows_of, (relation,)), SiteTask(1, _rows_of, (relation,))]
            )
            stats = executor.ipc_stats()
            # Two publishes (one per worker) but a single refcounted segment.
            assert stats["by_kind"]["publish"]["messages"] == 2
            assert stats["shm_segments_created"] == 1
        finally:
            executor.close()

    def test_close_unlinks_every_segment(self, schema):
        relation = make_relation(schema, n=8)
        executor = SharedMemoryExecutor(workers=1)
        executor.run([SiteTask(0, _rows_of, (relation,))])
        names = executor.active_segments()
        assert names
        executor.close()
        assert executor.active_segments() == []
        for name in names:
            with pytest.raises(FileNotFoundError):
                SharedMemory(name=name)

    def test_no_leak_after_worker_crash(self, schema):
        relation = make_relation(schema, n=8)
        executor = SharedMemoryExecutor(workers=1)
        executor.run([SiteTask(0, _rows_of, (relation,))])
        names = executor.active_segments()
        with pytest.raises(ExecutorError):
            executor.run([SiteTask(0, _die)])
        executor.close()
        for name in names:
            with pytest.raises(FileNotFoundError):
                SharedMemory(name=name)

    def test_respawned_worker_gets_a_republish(self, schema):
        relation = make_relation(schema, n=8)
        executor = SharedMemoryExecutor(workers=1)
        try:
            executor.run([SiteTask(0, _rows_of, (relation,))])
            with pytest.raises(ExecutorError):
                executor.run([SiteTask(0, _die)])
            results = executor.run([SiteTask(0, _rows_of, (relation,))])
            assert results[0].value == _rows_of(relation)
            assert executor.ipc_stats()["by_kind"]["publish"]["messages"] == 2
        finally:
            executor.close()

    def test_replaced_store_object_republishes(self, schema):
        relation = make_relation(schema, n=8)
        executor = SharedMemoryExecutor(workers=1)
        try:
            executor.run([SiteTask(0, _rows_of, (relation,))])
            rebuilt = make_relation(schema, n=8)  # fresh store, same content
            results = executor.run([SiteTask(0, _rows_of, (rebuilt,))])
            assert results[0].value == _rows_of(relation)
            assert executor.ipc_stats()["by_kind"]["publish"]["messages"] == 2
        finally:
            executor.close()

    def test_collected_store_releases_its_segment(self, schema):
        executor = SharedMemoryExecutor(workers=1)
        try:
            relation = make_relation(schema, n=8)
            executor.run([SiteTask(0, _rows_of, (relation,))])
            assert executor.ipc_stats()["shm_segments_active"] == 1
            del relation
            import gc

            gc.collect()
            # The next round flushes the invalidation and drops the segment.
            other = make_relation(schema, n=4)
            executor.run([SiteTask(0, _rows_of, (other,))])
            stats = executor.ipc_stats()
            assert stats["shm_segments_active"] == 1  # only the live store
            assert stats["by_kind"]["drop"]["messages"] == 1
        finally:
            executor.close()

    def test_nested_arguments_are_rewritten(self, schema):
        relation = make_relation(schema, n=6)
        executor = SharedMemoryExecutor(workers=1)
        try:
            results = executor.run(
                [SiteTask(0, _nested_rows, (("x", [relation]), {"r": relation}))]
            )
            assert results[0].value == _rows_of(relation)
            assert executor.ipc_stats()["by_kind"]["publish"]["messages"] == 1
        finally:
            executor.close()


def _nested_rows(pair, mapping):
    tag, (relation,) = pair
    assert tag == "x" and mapping["r"] is not None
    return _rows_of(relation)


# -- in-place update delivery ----------------------------------------------------------


def _batch(relation, schema):
    return UpdateBatch(
        [
            Update.delete(relation.get(1)),
            Update.insert(Tuple(40, {"id": 40, "a": 1, "b": "b1", "c": "c1"})),
            Update.insert(Tuple(41, {"id": 41, "a": 2, "b": "b2", "c": "c0"})),
            Update.delete(relation.get(5)),
        ]
    )


class TestInPlaceDelivery:
    def test_apply_in_place_matches_apply_to(self, schema):
        relation = make_relation(schema, n=10, storage="rows")
        batch = _batch(relation, schema)
        expected = batch.apply_to(relation)
        store_before = relation.store
        result = batch.apply_in_place(relation)
        assert result is relation
        assert relation.store is store_before
        assert _rows_of(relation) == _rows_of(expected)

    def test_duplicate_insert_leaves_relation_untouched(self, schema):
        relation = make_relation(schema, n=5, storage="rows")
        before = _rows_of(relation)
        bad = UpdateBatch(
            [
                Update.insert(Tuple(30, {"id": 30, "a": 0, "b": "b0", "c": "c0"})),
                Update.insert(Tuple(2, {"id": 2, "a": 0, "b": "b0", "c": "c0"})),
            ]
        )
        with pytest.raises(RelationError, match="duplicate tid"):
            bad.apply_in_place(relation)
        assert _rows_of(relation) == before

    def test_delete_then_reinsert_same_tid_is_fine(self, schema):
        relation = make_relation(schema, n=5, storage="rows")
        mod = UpdateBatch.modification(
            relation.get(2), Tuple(2, {"id": 2, "a": 9, "b": "bX", "c": "c0"})
        )
        mod.apply_in_place(relation)
        assert relation.get(2)["a"] == 9

    @pytest.mark.parametrize("storage", ["rows", "columnar"])
    def test_horizontal_delivery_matches_refragmenting(self, schema, storage):
        relation = make_relation(schema, n=20, storage=storage)
        partitioner = hash_horizontal_scheme(schema, 3)
        cluster = Cluster.from_horizontal(partitioner, relation, network=Network())
        batch = _batch(relation, schema)
        expected = Cluster.from_horizontal(
            partitioner, batch.apply_to(relation), network=Network()
        )
        stores_before = [site.fragment.store for site in cluster]
        cluster.deliver_updates(batch)
        for site, store in zip(cluster, stores_before):
            assert site.fragment.store is store  # fragments survive in place
        for site, ref in zip(cluster.sites(), expected.sites()):
            assert _rows_of(site.fragment) == _rows_of(ref.fragment)

    @pytest.mark.parametrize("storage", ["rows", "columnar"])
    def test_vertical_delivery_matches_refragmenting(self, schema, storage):
        relation = make_relation(schema, n=20, storage=storage)
        partitioner = even_vertical_scheme(schema, 2)
        cluster = Cluster.from_vertical(partitioner, relation, network=Network())
        batch = _batch(relation, schema)
        expected = Cluster.from_vertical(
            partitioner, batch.apply_to(relation), network=Network()
        )
        stores_before = [site.fragment.store for site in cluster]
        cluster.deliver_updates(batch)
        for site, store in zip(cluster, stores_before):
            assert site.fragment.store is store
        for site, ref in zip(cluster.sites(), expected.sites()):
            tids = sorted(t.tid for t in site.fragment)
            ref_tids = sorted(t.tid for t in ref.fragment)
            assert tids == ref_tids
            for tid in tids:
                assert dict(site.fragment.get(tid)) == dict(ref.fragment.get(tid))

    def test_horizontal_duplicate_insert_is_atomic(self, schema):
        relation = make_relation(schema, n=10)
        cluster = Cluster.from_horizontal(
            hash_horizontal_scheme(schema, 3), relation, network=Network()
        )
        before = [_rows_of(site.fragment) for site in cluster]
        bad = UpdateBatch(
            [
                Update.insert(Tuple(60, {"id": 60, "a": 0, "b": "b0", "c": "c0"})),
                Update.insert(Tuple(3, {"id": 3, "a": 0, "b": "b0", "c": "c0"})),
            ]
        )
        with pytest.raises(RelationError, match="duplicate tid"):
            cluster.deliver_updates(bad)
        assert [_rows_of(site.fragment) for site in cluster] == before
