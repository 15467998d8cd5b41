"""Storage parity: every strategy, both backends, identical results.

The storage layer's contract mirrors the runtime's: the backend is
invisible in everything except wall-clock.  For each registered strategy
the columnar backend must produce the identical violation set, identical
ΔV and identical network shipment counters as the row backend — per
message kind, per (sender, receiver) pair, byte for byte.  The matrix
runs every strategy on the serial executor; ``test_shm_parity.py`` runs
the same cells on the process executor.
"""

import pytest

from repro.engine.session import session
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
    assert report.storage == storage
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
def row_outcomes(generator, relation, cfds, updates, mds):
    return {
        (strategy, partitioning): run_strategy(
            strategy,
            partitioning,
            "rows",
            "serial",
            generator,
            relation,
            cfds,
            updates,
            mds,
        )
        for strategy, partitioning in STRATEGIES
    }


def assert_identical(actual, expected):
    assert actual["violations"] == expected["violations"]
    assert actual["initial"] == expected["initial"]
    assert actual["added"] == expected["added"]
    assert actual["removed"] == expected["removed"]
    assert actual["messages"] == expected["messages"]
    assert actual["bytes"] == expected["bytes"]
    assert actual["units_by_kind"] == expected["units_by_kind"]
    assert actual["bytes_by_kind"] == expected["bytes_by_kind"]
    assert actual["messages_by_pair"] == expected["messages_by_pair"]


class TestStorageParity:
    @pytest.mark.parametrize("strategy,partitioning", STRATEGIES)
    def test_columnar_matches_rows_serial(
        self,
        strategy,
        partitioning,
        row_outcomes,
        generator,
        relation,
        cfds,
        updates,
        mds,
    ):
        actual = run_strategy(
            strategy,
            partitioning,
            "columnar",
            "serial",
            generator,
            relation,
            cfds,
            updates,
            mds,
        )
        assert_identical(actual, row_outcomes[(strategy, partitioning)])

    def test_rows_produce_violations_to_compare(self, row_outcomes):
        # The parity matrix must not be vacuous: the workload has to
        # produce violations and (for the distributed strategies) traffic.
        assert any(o["violations"] for o in row_outcomes.values())
        assert any(o["messages"] for o in row_outcomes.values())


class TestStorageSemantics:
    def test_report_names_the_storage_backend(
        self, generator, relation, cfds, updates, mds
    ):
        outcome = run_strategy(
            "batHor",
            "horizontal",
            "columnar",
            "serial",
            generator,
            relation,
            cfds,
            updates,
            mds,
        )
        assert outcome["violations"]  # ran for real

    def test_unknown_storage_is_rejected_at_configuration_time(self, relation):
        from repro.engine.session import SessionError

        with pytest.raises(SessionError, match="no storage backend"):
            session(relation).storage("parquet")

    def test_one_registry_names_the_backends_of_both_paths(
        self, monkeypatch, generator, relation, cfds, updates
    ):
        from repro.core import storage
        from repro.core.storage import RowStore, register_storage_backend
        from repro.engine.adaptive import AdaptiveStrategyError
        from repro.engine.session import SessionError

        monkeypatch.setitem(storage._BACKENDS, "rows2", None)  # undone on teardown
        register_storage_backend("rows2", RowStore, replace=True)

        def build(backend, strategy, **options):
            builder = session(relation).partition(generator.vertical_partitioner(N_SITES))
            if backend is not None:
                builder = builder.storage(backend)
            return builder.rules(cfds).strategy(strategy, **options).build()

        outcomes = []
        for sess in (
            build("rows2", "incVer"),
            build(None, "auto", backends=["rows2"]),
            build(None, "incVer"),
        ):
            with sess:
                delta = sess.apply(updates)
                outcomes.append((sess.violations.as_dict(), delta.added, delta.removed))
        assert outcomes[0] == outcomes[1] == outcomes[2]
        with pytest.raises(SessionError, match="no storage backend"):
            session(relation).storage("rows3")
        with pytest.raises(AdaptiveStrategyError, match="unknown storage backend"):
            build(None, "auto", backends=["rows3"])

    def test_columnar_relation_is_used_without_explicit_storage(
        self, generator, relation, cfds
    ):
        # Passing an already-columnar relation engages the backend even
        # without .storage(...), and the report records it.
        colrel = relation.with_storage("columnar")
        sess = (
            session(colrel)
            .partition(generator.horizontal_partitioner(N_SITES))
            .rules(cfds)
            .strategy("batHor")
            .executor("serial")
            .build()
        )
        report = sess.report()
        sess.close()
        assert report.storage == "columnar"
        assert sess.storage == "columnar"
