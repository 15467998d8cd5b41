"""SQL backend parity: every strategy, identical results and counters.

Same contract as ``tests/test_storage_parity.py``, for the ``sql``
backend: for each registered strategy (plus the adaptive ``auto``
planner) the pushed-down SQL backend must produce the identical
violation set, identical ΔV and identical network shipment counters as
the row backend — per message kind, per (sender, receiver) pair, byte
for byte — and across mid-stream ``scale()``/``rebalance()`` topology
events.
"""

import pytest

from repro.core.updates import UpdateBatch
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
    ("auto", "vertical"),
    ("auto", "horizontal"),
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


def run_strategy(strategy, partitioning, storage, generator, relation, cfds, updates, mds):
    builder = session(relation)
    if partitioning == "vertical":
        builder = builder.partition(generator.vertical_partitioner(N_SITES))
    elif partitioning == "horizontal":
        builder = builder.partition(generator.horizontal_partitioner(N_SITES))
    rules = mds if strategy in ("md", "incMD") else cfds
    sess = builder.rules(rules).strategy(strategy).storage(storage).build()
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


class TestSqlParity:
    @pytest.mark.parametrize("strategy,partitioning", STRATEGIES)
    def test_sql_matches_rows_serial(
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
            "sql",
            generator,
            relation,
            cfds,
            updates,
            mds,
        )
        assert_identical(actual, row_outcomes[(strategy, partitioning)])

    def test_rows_produce_violations_to_compare(self, row_outcomes):
        assert any(o["violations"] for o in row_outcomes.values())
        assert any(o["messages"] for o in row_outcomes.values())


def _viol_key(violations):
    return {tid: frozenset(violations.cfds_of(tid)) for tid in violations.tids()}


def _delta_key(delta):
    return (
        {tid: frozenset(names) for tid, names in delta.added.items()},
        {tid: frozenset(names) for tid, names in delta.removed.items()},
    )


def _run_elastic_script(storage, strategy, partitioning, generator, relation, cfds, waves):
    """Stream waves with a scale-out, a rebalance and a scale-in between them."""
    builder = session(relation)
    if partitioning == "vertical":
        builder = builder.partition(generator.vertical_partitioner(N_SITES))
    else:
        builder = builder.partition(generator.horizontal_partitioner(N_SITES))
    sess = builder.rules(cfds).strategy(strategy).storage(storage).build()
    records = []
    with sess:
        for i, wave in enumerate(waves):
            if i == 1:
                sess.scale(sites=N_SITES + 2)
            if i == 2:
                if partitioning == "horizontal":
                    sess.rebalance()
                sess.scale(sites=2)
            delta = sess.apply(wave)
            records.append((_delta_key(delta), _viol_key(sess.violations)))
    return records


@pytest.fixture(scope="module")
def waves(generator, relation):
    all_updates = generate_updates(relation, generator, 30, seed=SEED + 1)
    chunk = max(1, len(all_updates) // 3)
    updates = list(all_updates)
    out = []
    for i in range(0, len(updates), chunk):
        batch = UpdateBatch()
        for u in updates[i : i + chunk]:
            batch.append(u)
        out.append(batch)
    return out[:3]


class TestSqlElasticity:
    @pytest.mark.parametrize(
        "strategy,partitioning", [("incHor", "horizontal"), ("incVer", "vertical")]
    )
    def test_scale_and_rebalance_mid_stream(
        self, strategy, partitioning, generator, relation, cfds, waves
    ):
        expected = _run_elastic_script(
            "rows", strategy, partitioning, generator, relation, cfds, waves
        )
        actual = _run_elastic_script(
            "sql", strategy, partitioning, generator, relation, cfds, waves
        )
        assert actual == expected


class TestSqlEmptyBatch:
    @pytest.mark.parametrize("strategy,partitioning", STRATEGIES[:7])
    def test_empty_batch_is_a_no_op(
        self, strategy, partitioning, generator, relation, cfds, mds
    ):
        builder = session(relation)
        if partitioning == "vertical":
            builder = builder.partition(generator.vertical_partitioner(N_SITES))
        elif partitioning == "horizontal":
            builder = builder.partition(generator.horizontal_partitioner(N_SITES))
        sess = builder.rules(cfds).strategy(strategy).storage("sql").build()
        before_viol = sess.violations.as_dict()
        before_stats = sess.network.stats()
        delta = sess.apply(UpdateBatch())
        sess.close()
        assert not delta.added and not delta.removed
        assert sess.violations.as_dict() == before_viol
        assert sess.network.stats().bytes == before_stats.bytes
        assert sess.network.stats().messages == before_stats.messages
