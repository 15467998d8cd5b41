"""Executor semantics a session sees: the report names the backend, and
a caller-owned executor outlives the sessions that run on it.

The parity matrix itself (every strategy on every storage, shm against
serial, byte for byte) lives in ``test_shm_parity.py``.
"""

import pytest

from repro.engine.session import session
from repro.runtime.executor import SiteTask
from repro.runtime.shm import SharedMemoryExecutor
from repro.workloads.rules import generate_cfds
from repro.workloads.tpch import TPCHGenerator
from repro.workloads.updates import generate_updates

SEED = 11
N_BASE = 100
N_UPDATES = 50
N_CFDS = 5
N_SITES = 3


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
def executor():
    """One shared warm pool for the module."""
    with SharedMemoryExecutor(workers=2) as pool:
        yield pool


class TestExecutorSemantics:
    def test_report_names_the_backend(self, executor, generator, relation, cfds, updates):
        sess = (
            session(relation)
            .partition(generator.horizontal_partitioner(N_SITES))
            .rules(cfds)
            .strategy("batHor")
            .executor(executor)
            .build()
        )
        sess.apply(updates)
        report = sess.report()
        sess.close()
        assert report.executor == "shm"
        assert report.timings.tasks > 0
        assert report.wall_seconds > 0.0

    def test_caller_owned_executor_survives_session_close(
        self, executor, generator, relation, cfds
    ):
        sess = (
            session(relation)
            .partition(generator.vertical_partitioner(N_SITES))
            .rules(cfds)
            .executor(executor)
            .build()
        )
        sess.close()
        # The shared pool still runs tasks afterwards.
        results = executor.run([SiteTask(0, len, (("a", "b"),))])
        assert results[0].value == 2
