"""An empty ``UpdateBatch`` must be a no-op for every strategy.

Zero updates mean zero ``delta-V`` *and* zero new shipments: the batch
baselines used to re-detect (and re-ship the whole database) even when
nothing changed.  The matrix covers all 10 fixed strategies plus
``auto``.
"""

import pytest

from repro.core.updates import UpdateBatch
from repro.core.violations import ViolationDelta
from repro.engine.session import session
from repro.similarity.md import MatchingDependency
from repro.similarity.predicates import NormalizedStringMatch, NumericTolerance
from repro.workloads.rules import generate_cfds
from repro.workloads.tpch import TPCHGenerator

SEED = 13
N_BASE = 60
N_CFDS = 4
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
    ("auto", "single"),
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
def mds():
    return [
        MatchingDependency(
            [("pname", NormalizedStringMatch())], ["sname"], name="md_name"
        ),
        MatchingDependency(
            [("quantity", NumericTolerance(1))], ["shipmode"], name="md_qty"
        ),
    ]


@pytest.mark.parametrize("strategy,partitioning", STRATEGIES)
def test_empty_batch_is_a_noop(strategy, partitioning, generator, relation, cfds, mds):
    builder = session(relation)
    if partitioning == "vertical":
        builder = builder.partition(generator.vertical_partitioner(N_SITES))
    elif partitioning == "horizontal":
        builder = builder.partition(generator.horizontal_partitioner(N_SITES))
    rules = mds if strategy in ("md", "incMD") else cfds
    with builder.rules(rules).strategy(strategy).build() as sess:
        before_violations = sess.violations.as_dict()
        before = sess.network.stats()
        delta = sess.apply(UpdateBatch())
        moved = sess.network.stats().diff(before)
        assert delta == ViolationDelta()
        assert delta.is_empty()
        assert moved.messages == 0
        assert moved.bytes == 0
        assert sess.violations.as_dict() == before_violations


def test_empty_batch_leaves_the_adaptive_plan_trace_empty(generator, relation, cfds):
    with (
        session(relation)
        .partition(generator.vertical_partitioner(N_SITES))
        .rules(cfds)
        .strategy("auto")
        .build()
    ) as sess:
        sess.apply(UpdateBatch())
        assert sess.plan_trace == ()
