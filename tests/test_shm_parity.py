"""Shared-memory backend parity: every strategy, identical results, no leaks.

The shm executor's contract is the process backend's plus residency:
for every registered strategy (and the adaptive planner), on both
storage layouts, the violation set, the per-wave ``delta-V`` and every
network shipment counter must be identical to serial execution — while
fragments stay resident in the workers and only deltas cross the pipe.
Topology changes mid-stream (scale-out, skew rebalance, scale-in) must
not disturb that parity, and closing the executor must unlink every
shared-memory segment it ever created.
"""

import os

import pytest

from repro.engine.session import session
from repro.runtime.executor import SerialExecutor
from repro.runtime.shm import SharedMemoryExecutor
from repro.similarity.md import MatchingDependency
from repro.similarity.predicates import NormalizedStringMatch, NumericTolerance
from repro.workloads.rules import generate_cfds
from repro.workloads.tpch import TPCHGenerator
from repro.workloads.updates import generate_updates

SEED = 11
N_BASE = 100
N_UPDATES = 50
N_CFDS = 5
N_SITES = 3

#: Every registered strategy (plus the adaptive planner on both layouts).
STRATEGIES = [
    ("incVer", "vertical"),
    ("batVer", "vertical"),
    ("ibatVer", "vertical"),
    ("auto", "vertical"),
    ("incHor", "horizontal"),
    ("batHor", "horizontal"),
    ("ibatHor", "horizontal"),
    ("auto", "horizontal"),
    ("centralized", "single"),
    ("md", "single"),
    ("incMD", "single"),
]

STORAGES = ["rows", "columnar"]


def _shm_names():
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except FileNotFoundError:  # pragma: no cover - non-POSIX-shm platform
        return set()


@pytest.fixture(scope="module")
def generator():
    return TPCHGenerator(seed=SEED)


@pytest.fixture(scope="module")
def relation(generator):
    return generator.relation(N_BASE)


@pytest.fixture(scope="module")
def cfds(generator):
    return list(generate_cfds(generator.fd_specs(), N_CFDS, seed=SEED))


@pytest.fixture(scope="module")
def updates(generator, relation):
    return generate_updates(relation, generator, N_UPDATES, seed=SEED)


@pytest.fixture(scope="module")
def mds():
    return [
        MatchingDependency(
            [("pname", NormalizedStringMatch())], ["sname"], name="md_name"
        ),
        MatchingDependency(
            [("quantity", NumericTolerance(1))], ["shipmode"], name="md_qty"
        ),
    ]


@pytest.fixture(scope="module")
def executors():
    """One serial reference plus one shared warm shm pool for the matrix."""
    before = _shm_names()
    pools = {"serial": SerialExecutor(), "shm": SharedMemoryExecutor(workers=2)}
    yield pools
    for pool in pools.values():
        pool.close()
    leaked = _shm_names() - before
    assert not leaked, f"shm executor leaked segments: {sorted(leaked)}"


def run_strategy(
    strategy, partitioning, storage, executor, generator, relation, cfds, updates, mds
):
    builder = session(relation)
    if partitioning == "vertical":
        builder = builder.partition(generator.vertical_partitioner(N_SITES))
    elif partitioning == "horizontal":
        builder = builder.partition(generator.horizontal_partitioner(N_SITES))
    rules = mds if strategy in ("md", "incMD") else cfds
    sess = (
        builder.rules(rules)
        .strategy(strategy)
        .storage(storage)
        .executor(executor)
        .build()
    )
    delta = sess.apply(updates)
    report = sess.report()
    sess.close()
    return {
        "initial": sess.initial_violations.as_dict(),
        "violations": sess.violations.as_dict(),
        "added": delta.added,
        "removed": delta.removed,
        "messages": report.network.messages,
        "bytes": report.network.bytes,
        "units_by_kind": report.network.units_by_kind,
        "bytes_by_kind": report.network.bytes_by_kind,
        "messages_by_pair": report.network.messages_by_pair,
        "bytes_pickled": report.bytes_pickled,
    }


@pytest.fixture(scope="module")
def serial_outcomes(executors, generator, relation, cfds, updates, mds):
    return {
        (strategy, partitioning, storage): run_strategy(
            strategy,
            partitioning,
            storage,
            executors["serial"],
            generator,
            relation,
            cfds,
            updates,
            mds,
        )
        for strategy, partitioning in STRATEGIES
        for storage in STORAGES
    }


class TestShmParity:
    @pytest.mark.parametrize("strategy,partitioning", STRATEGIES)
    @pytest.mark.parametrize("storage", STORAGES)
    def test_shm_matches_serial(
        self,
        strategy,
        partitioning,
        storage,
        executors,
        serial_outcomes,
        generator,
        relation,
        cfds,
        updates,
        mds,
    ):
        expected = serial_outcomes[(strategy, partitioning, storage)]
        actual = run_strategy(
            strategy,
            partitioning,
            storage,
            executors["shm"],
            generator,
            relation,
            cfds,
            updates,
            mds,
        )
        assert actual["violations"] == expected["violations"]
        assert actual["initial"] == expected["initial"]
        assert actual["added"] == expected["added"]
        assert actual["removed"] == expected["removed"]
        assert actual["messages"] == expected["messages"]
        assert actual["bytes"] == expected["bytes"]
        assert actual["units_by_kind"] == expected["units_by_kind"]
        assert actual["bytes_by_kind"] == expected["bytes_by_kind"]
        assert actual["messages_by_pair"] == expected["messages_by_pair"]

    def test_serial_produces_violations_to_compare(self, serial_outcomes):
        assert any(o["violations"] for o in serial_outcomes.values())
        assert any(o["messages"] for o in serial_outcomes.values())

    def test_serial_sessions_record_zero_ipc(self, serial_outcomes):
        # The scheduler ledger meters real pickled bytes: in-process
        # backends must report exactly 0 for every strategy.
        assert all(o["bytes_pickled"] == 0 for o in serial_outcomes.values())


class TestShmSessionSemantics:
    def test_report_meters_real_ipc_bytes(
        self, executors, generator, relation, cfds, updates
    ):
        sess = (
            session(relation)
            .partition(generator.horizontal_partitioner(N_SITES))
            .rules(cfds)
            .strategy("batHor")
            .storage("columnar")
            .executor(executors["shm"])
            .build()
        )
        sess.apply(updates)
        report = sess.report()
        sess.close()
        assert report.executor == "shm"
        assert report.bytes_pickled > 0
        assert report.as_dict()["runtime"]["bytes_pickled"] == report.bytes_pickled
        assert "bytes pickled" in report.summary()

    def test_fragments_stay_warm_across_waves(
        self, generator, relation, cfds
    ):
        """After the first detection, further waves ship deltas, not fragments."""
        executor = SharedMemoryExecutor(workers=2)
        first = generate_updates(relation, generator, 10, seed=31)
        second = generate_updates(first.apply_to(relation), generator, 10, seed=32)
        waves = [first, second]
        try:
            sess = (
                session(relation)
                .partition(generator.horizontal_partitioner(N_SITES))
                .rules(cfds)
                .strategy("batHor")
                .storage("columnar")
                .executor(executor)
                .build()
            )
            sess.apply(waves[0])
            mid = executor.ipc_stats()
            sess.apply(waves[1])
            end = executor.ipc_stats()
            sess.close()
            assert mid["by_kind"]["publish"]["messages"] > 0
            # The second wave re-used every resident fragment: deltas
            # grew, publishes did not.
            assert (
                end["by_kind"]["publish"]["messages"]
                == mid["by_kind"]["publish"]["messages"]
            )
            assert (
                end["by_kind"]["delta"]["messages"]
                > mid["by_kind"]["delta"]["messages"]
            )
            assert end["shm_segments_created"] == mid["shm_segments_created"]
        finally:
            executor.close()
        assert executor.active_segments() == []


SCALE_OUT = 5
SCALE_IN = 2
WAVE_SIZES = [(18, 41), (24, 42), (16, 43)]

ELASTIC_STRATEGIES = [
    ("incVer", "vertical"),
    ("batVer", "vertical"),
    ("incHor", "horizontal"),
    ("batHor", "horizontal"),
    ("auto", "horizontal"),
]


@pytest.fixture(scope="module")
def waves(generator, relation):
    batches = []
    current = relation
    for size, seed in WAVE_SIZES:
        batch = generate_updates(
            current, generator, size, insert_fraction=0.6, seed=seed, skew=1.2
        )
        batches.append(batch)
        current = batch.apply_to(current)
    return batches


def _viol_key(violations):
    return {tid: frozenset(violations.cfds_of(tid)) for tid in violations.tids()}


def _delta_key(delta):
    return (
        {tid: frozenset(names) for tid, names in delta.added.items()},
        {tid: frozenset(names) for tid, names in delta.removed.items()},
    )


def run_elastic(
    strategy, partitioning, storage, executor, generator, relation, cfds, waves
):
    """Three waves with a scale-out, a rebalance and a scale-in between."""
    builder = session(relation)
    if partitioning == "vertical":
        builder = builder.partition(generator.vertical_partitioner(N_SITES))
    else:
        builder = builder.partition(generator.horizontal_partitioner(N_SITES))
    sess = (
        builder.rules(cfds)
        .strategy(strategy)
        .storage(storage)
        .executor(executor)
        .build()
    )
    records = []
    with sess:
        for i, wave in enumerate(waves):
            if i == 1:
                sess.scale(sites=SCALE_OUT)
            if i == 2:
                if partitioning == "horizontal":
                    sess.rebalance()
                sess.scale(sites=SCALE_IN)
            delta = sess.apply(wave)
            records.append((_delta_key(delta), _viol_key(sess.violations)))
    return records


@pytest.fixture(scope="module")
def elastic_expected(executors, generator, relation, cfds, waves):
    return {
        (strategy, partitioning): run_elastic(
            strategy,
            partitioning,
            "columnar",
            executors["serial"],
            generator,
            relation,
            cfds,
            waves,
        )
        for strategy, partitioning in ELASTIC_STRATEGIES
    }


class TestShmElasticity:
    @pytest.mark.parametrize("strategy,partitioning", ELASTIC_STRATEGIES)
    def test_scale_and_rebalance_preserve_parity(
        self,
        strategy,
        partitioning,
        executors,
        elastic_expected,
        generator,
        relation,
        cfds,
        waves,
    ):
        records = run_elastic(
            strategy,
            partitioning,
            "columnar",
            executors["shm"],
            generator,
            relation,
            cfds,
            waves,
        )
        expected = elastic_expected[(strategy, partitioning)]
        for i, ((delta_key, viol_key), (exp_delta, exp_viol)) in enumerate(
            zip(records, expected)
        ):
            assert delta_key == exp_delta, f"wave {i}: delta-V diverged on shm"
            assert viol_key == exp_viol, f"wave {i}: violations diverged on shm"
