"""Elasticity parity: scale/rebalance events are invisible in the results.

Every distributed strategy (plus ``auto``), on both storage backends
and the serial/shm executors, streams three update waves with live
topology changes in between — scale-out after wave 1, a skew-aware
rebalance plus scale-in before wave 3.  The per-wave ``delta-V`` and the
maintained violations must be identical across the whole matrix, and —
the warm-migration guarantee — identical to a *freshly built* session on
the target layout at every stage.  Shipment counters differ (the scaled
sessions pay migration traffic); detection results may not.
"""

import pytest

from repro.engine.session import SessionError, session
from repro.workloads.rules import generate_cfds
from repro.workloads.tpch import TPCHGenerator
from repro.workloads.updates import generate_updates

SEED = 23
N_BASE = 80
N_CFDS = 4
N_SITES = 3
SCALE_OUT = 5
SCALE_IN = 2
WAVE_SIZES = [(18, 31), (24, 32), (16, 33)]

VERTICAL_STRATEGIES = ["incVer", "batVer", "ibatVer", "auto"]
HORIZONTAL_STRATEGIES = ["incHor", "batHor", "ibatHor", "auto"]
SINGLE_STRATEGIES = ["centralized", "md", "incMD"]

STORAGES = ["rows", "columnar"]
EXECUTORS = ["serial", "shm"]


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


def _partitioner_of(sess):
    deployment = sess.deployment
    if deployment.is_vertical():
        return deployment.vertical_partitioner
    return deployment.horizontal_partitioner


def run_script(
    strategy, partitioning, storage, executor, generator, relation, cfds, waves
):
    """Stream the waves with topology events between them.

    Returns one record per wave: the wave's delta, the violations after
    it, and the partitioner the session was deployed on while applying
    it (so fresh baseline sessions can be built on the same layout).
    """
    builder = session(relation)
    if partitioning == "vertical":
        builder = builder.partition(generator.vertical_partitioner(N_SITES))
    else:
        builder = builder.partition(generator.horizontal_partitioner(N_SITES))
    executor_options = {} if executor == "serial" else {"workers": 2}
    sess = (
        builder.rules(cfds)
        .strategy(strategy)
        .storage(storage)
        .executor(executor, **executor_options)
        .build()
    )
    records = []
    with sess:
        for i, wave in enumerate(waves):
            if i == 1:
                event = sess.scale(sites=SCALE_OUT)
                assert event.sites_after == SCALE_OUT
            if i == 2:
                if partitioning == "horizontal":
                    sess.rebalance()
                event = sess.scale(sites=SCALE_IN)
                assert event.sites_after == SCALE_IN
            delta = sess.apply(wave)
            records.append(
                (_delta_key(delta), _viol_key(sess.violations), _partitioner_of(sess))
            )
        n_events = len(sess.topology_trace)
        assert n_events == (3 if partitioning == "horizontal" else 2)
        assert all(e.bytes_shipped >= 0 for e in sess.topology_trace)
    return records


@pytest.fixture(scope="module")
def expected(generator, relation, cfds, waves):
    """Reference results per partitioning, from a plain serial/rows run.

    The reference is additionally validated stage by stage against
    freshly built sessions on the same target layouts — the cold-build
    equivalence the warm migration must preserve.
    """
    results = {}
    for partitioning, strategy in [("vertical", "incVer"), ("horizontal", "incHor")]:
        records = run_script(
            strategy, partitioning, "rows", "serial", generator, relation, cfds, waves
        )
        current = relation
        for (delta_key, viol_key, partitioner), wave in zip(records, waves):
            fresh = (
                session(current).partition(partitioner).rules(cfds).strategy(strategy).build()
            )
            fresh_delta = fresh.apply(wave)
            current = wave.apply_to(current)
            assert _delta_key(fresh_delta) == delta_key, (
                f"{partitioning}: warm session's delta differs from a cold build "
                "on the same layout"
            )
            assert _viol_key(fresh.violations) == viol_key
            fresh.close()
        results[partitioning] = [(d, v) for d, v, _ in records]
    return results


@pytest.mark.parametrize("executor", EXECUTORS)
@pytest.mark.parametrize("storage", STORAGES)
@pytest.mark.parametrize(
    "strategy,partitioning",
    [(s, "vertical") for s in VERTICAL_STRATEGIES]
    + [(s, "horizontal") for s in HORIZONTAL_STRATEGIES],
)
def test_scale_events_preserve_results(
    strategy, partitioning, storage, executor, expected,
    generator, relation, cfds, waves,
):
    records = run_script(
        strategy, partitioning, storage, executor, generator, relation, cfds, waves
    )
    for i, ((delta_key, viol_key, _), (exp_delta, exp_viol)) in enumerate(
        zip(records, expected[partitioning])
    ):
        assert delta_key == exp_delta, f"wave {i}: delta-V diverged"
        assert viol_key == exp_viol, f"wave {i}: violations diverged"


@pytest.mark.parametrize("strategy", SINGLE_STRATEGIES)
def test_single_site_strategies_cannot_scale(strategy, generator, relation, cfds):
    if strategy in ("md", "incMD"):
        from repro.similarity.md import MatchingDependency
        from repro.similarity.predicates import NormalizedStringMatch

        rules = [
            MatchingDependency(
                [("pname", NormalizedStringMatch())], ["sname"], name="md_p"
            )
        ]
    else:
        rules = cfds
    sess = session(relation).rules(rules).strategy(strategy).build()
    with pytest.raises(SessionError, match="single-site"):
        sess.scale(sites=2)
    sess.close()
