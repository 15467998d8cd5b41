"""Span/ledger reconciliation: traced bytes equal the NetworkStats ledger.

For every registered strategy (plus ``auto``), on both storage backends,
the bytes and messages summed from the trace's ledger-marked spans
(``session.build`` and each ``wave.apply``; nested ledger spans such as
a mid-wave migration are excluded by :meth:`Tracer.ledger_totals`) must
equal the session's own network ledger *exactly* — not approximately.
This holds because all shipments are charged by the coordinator on the
session thread: the build and wave spans bracket every charge.

Every strategy charges its deployment's one ledger — ``ibatVer``/``ibatHor``
bind their rebuild detector to it at setup — so no span needs to fold in
a private ledger.
"""

import pytest

from repro.engine.session import session
from repro.obs import Observability
from repro.similarity.md import MatchingDependency
from repro.similarity.predicates import NormalizedStringMatch, NumericTolerance
from repro.workloads.rules import generate_cfds
from repro.workloads.tpch import TPCHGenerator
from repro.workloads.updates import generate_updates

SEED = 23
N_BASE = 90
N_UPDATES = 45
N_CFDS = 5
N_SITES = 3

#: All ten registered strategies plus the adaptive planner.
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
    ("auto", "horizontal"),
    ("auto", "vertical"),
]

STORAGES = ["rows", "columnar"]


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


@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize("strategy,partitioning", STRATEGIES)
def test_span_ledger_matches_network_ledger_exactly(
    strategy, partitioning, storage, generator, relation, cfds, updates, mds
):
    obs = Observability()
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
        .observability(obs, name=f"reconcile-{strategy}-{partitioning}-{storage}")
        .build()
    )
    sess.apply(updates)
    report = sess.report()
    sess.close()

    assert obs.tracer.ledger_totals() == (
        report.network.bytes,
        report.network.messages,
    )


def test_ledger_spans_split_build_from_waves(generator, relation, cfds, updates):
    # The reconciliation must not be vacuous: at least one strategy has
    # to ship during setup AND during the wave, on separate spans.
    obs = Observability()
    sess = (
        session(relation)
        .partition(generator.vertical_partitioner(N_SITES))
        .rules(cfds)
        .strategy("incVer")
        .observability(obs, name="split")
        .build()
    )
    sess.apply(updates)
    report = sess.report()
    sess.close()

    (build,) = obs.tracer.find("session.build")
    (wave,) = obs.tracer.find("wave.apply")
    assert build.attrs["ledger"] and wave.attrs["ledger"]
    assert wave.attrs["net_messages"] > 0
    assert (
        build.attrs["net_bytes"] + wave.attrs["net_bytes"] == report.network.bytes
    )
    assert (
        build.attrs["net_messages"] + wave.attrs["net_messages"]
        == report.network.messages
    )


def test_multi_wave_ledger_accumulates(generator, relation, cfds):
    obs = Observability()
    sess = (
        session(relation)
        .partition(generator.horizontal_partitioner(N_SITES))
        .rules(cfds)
        .strategy("batHor")
        .observability(obs, name="multiwave")
        .build()
    )
    gen2 = TPCHGenerator(seed=SEED)
    sess.apply(generate_updates(relation, gen2, 30, seed=SEED))
    sess.apply([u for u in generate_updates(relation, gen2, 0, seed=SEED)] or [])
    report = sess.report()
    sess.close()
    waves = obs.tracer.find("wave.apply")
    assert len(waves) == 2
    assert obs.tracer.ledger_totals() == (
        report.network.bytes,
        report.network.messages,
    )
