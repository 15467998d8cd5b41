"""Executor parity: every strategy, every backend, identical results.

The runtime's contract is that the execution backend is invisible in
everything except wall-clock: for each registered strategy the thread
and process executors must produce the identical violation set and the
identical network shipment counts as serial execution — per message
kind, per (sender, receiver) pair, byte for byte.  This module runs the
full matrix.
"""

import pytest

from repro.engine.session import session
from repro.runtime.executor import ProcessExecutor, SerialExecutor, ThreadExecutor
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

#: Every registered strategy with the partitioning it needs.
STRATEGIES = [
    ("incVer", "vertical"),
    ("batVer", "vertical"),
    ("ibatVer", "vertical"),
    ("incHor", "horizontal"),
    ("batHor", "horizontal"),
    ("ibatHor", "horizontal"),
    ("centralized", "single"),
    ("md", "single"),
    ("incMD", "single"),
]

BACKENDS = ["threads", "processes"]


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
    """One shared pool per backend so the matrix does not churn workers."""
    pools = {
        "serial": SerialExecutor(),
        "threads": ThreadExecutor(workers=4),
        "processes": ProcessExecutor(workers=2),
    }
    yield pools
    for pool in pools.values():
        pool.close()


def run_strategy(strategy, partitioning, executor, generator, relation, cfds, updates, mds):
    builder = session(relation)
    if partitioning == "vertical":
        builder = builder.partition(generator.vertical_partitioner(N_SITES))
    elif partitioning == "horizontal":
        builder = builder.partition(generator.horizontal_partitioner(N_SITES))
    rules = mds if strategy in ("md", "incMD") else cfds
    sess = builder.rules(rules).strategy(strategy).executor(executor).build()
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
    }


@pytest.fixture(scope="module")
def serial_outcomes(executors, generator, relation, cfds, updates, mds):
    return {
        (strategy, partitioning): run_strategy(
            strategy,
            partitioning,
            executors["serial"],
            generator,
            relation,
            cfds,
            updates,
            mds,
        )
        for strategy, partitioning in STRATEGIES
    }


class TestExecutorParity:
    @pytest.mark.parametrize("strategy,partitioning", STRATEGIES)
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_backend_matches_serial(
        self,
        strategy,
        partitioning,
        backend,
        executors,
        serial_outcomes,
        generator,
        relation,
        cfds,
        updates,
        mds,
    ):
        expected = serial_outcomes[(strategy, partitioning)]
        actual = run_strategy(
            strategy,
            partitioning,
            executors[backend],
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
        # The parity matrix must not be vacuous: the workload has to
        # produce violations and (for the distributed strategies) traffic.
        assert any(o["violations"] for o in serial_outcomes.values())
        assert any(o["messages"] for o in serial_outcomes.values())


class TestExecutorSemantics:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_report_names_the_backend(
        self, backend, executors, generator, relation, cfds, updates, mds
    ):
        sess = (
            session(relation)
            .partition(generator.horizontal_partitioner(N_SITES))
            .rules(cfds)
            .strategy("batHor")
            .executor(executors[backend])
            .build()
        )
        sess.apply(updates)
        report = sess.report()
        sess.close()
        assert report.executor == backend
        assert report.timings.tasks > 0
        assert report.wall_seconds > 0.0

    def test_caller_owned_executor_survives_session_close(self, executors, generator,
                                                          relation, cfds):
        pool = executors["threads"]
        sess = (
            session(relation)
            .partition(generator.vertical_partitioner(N_SITES))
            .rules(cfds)
            .executor(pool)
            .build()
        )
        sess.close()
        # The shared pool still runs tasks afterwards.
        from repro.runtime.executor import SiteTask

        results = pool.run([SiteTask(0, len, (("a", "b"),))])
        assert results[0].value == 2
