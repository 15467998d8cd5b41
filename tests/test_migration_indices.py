"""After a move, each IDX equals the index a cold build produces.

``scale()`` and ``rebalance()`` keep the violations and rebuild or
re-home the incremental detectors' indices.  Besides V and delta-V, the
indices must match the ones a fresh session on the target layout builds:
incHor's per-site IDX of every variable CFD and incVer's logical IDX, each
compared group by group and class by class.
"""

import pytest

from repro.engine.session import session
from repro.workloads.rules import generate_cfds
from repro.workloads.tpch import TPCHGenerator
from repro.workloads.updates import generate_updates

SEED = 11
N_BASE = 120
N_CFDS = 5


@pytest.fixture(scope="module")
def generator():
    return TPCHGenerator(seed=SEED)


@pytest.fixture(scope="module")
def relation(generator):
    return generator.relation(N_BASE)


@pytest.fixture(scope="module")
def cfds(generator):
    return list(generate_cfds(generator.fd_specs(), N_CFDS, seed=SEED))


def _variable(cfds):
    return [cfd for cfd in cfds if not cfd.is_constant()]


def _groups(index):
    return dict(index.groups())


def _cold_build(current, sess, cfds, strategy):
    deployment = sess.deployment
    partitioner = (
        deployment.vertical_partitioner
        if deployment.is_vertical()
        else deployment.horizontal_partitioner
    )
    return session(current).partition(partitioner).rules(cfds).strategy(strategy).build()


def _assert_horizontal_indices_match(warm, cold, cfds):
    sites = warm.deployment.site_ids()
    assert sites == cold.deployment.site_ids()
    for cfd in _variable(cfds):
        for site in sites:
            assert _groups(warm.detector.inner.index_for(cfd.name, site)) == _groups(
                cold.detector.inner.index_for(cfd.name, site)
            ), f"{cfd.name} at site {site}"


def _assert_vertical_indices_match(warm, cold, cfds):
    for cfd in _variable(cfds):
        assert _groups(warm.detector.inner.index_for(cfd.name)) == _groups(
            cold.detector.inner.index_for(cfd.name)
        ), cfd.name


@pytest.mark.parametrize("storage", ["rows", "columnar"])
def test_inchor_indices_after_scale_and_rebalance_equal_a_cold_build(
    storage, generator, relation, cfds
):
    assert _variable(cfds)
    sess = (
        session(relation)
        .partition(generator.horizontal_partitioner(3))
        .rules(cfds)
        .strategy("incHor")
        .storage(storage)
        .build()
    )
    current = relation
    with sess:
        for move, seed in [("scale-out", 41), ("rebalance", 42), ("scale-in", 43)]:
            wave = generate_updates(
                current, generator, 20, insert_fraction=0.6, seed=seed, skew=1.2
            )
            sess.apply(wave)
            current = wave.apply_to(current)
            if move == "scale-out":
                sess.scale(sites=5)
            elif move == "rebalance":
                sess.rebalance()
            else:
                sess.scale(sites=2)
            with _cold_build(current, sess, cfds, "incHor") as cold:
                _assert_horizontal_indices_match(sess, cold, cfds)
                assert sess.violations.as_dict() == cold.violations.as_dict()


@pytest.mark.parametrize("storage", ["rows", "columnar"])
def test_incver_indices_after_scale_equal_a_cold_build(storage, generator, relation, cfds):
    sess = (
        session(relation)
        .partition(generator.vertical_partitioner(3))
        .rules(cfds)
        .strategy("incVer")
        .storage(storage)
        .build()
    )
    current = relation
    with sess:
        for sites, seed in [(5, 51), (2, 52)]:
            wave = generate_updates(current, generator, 20, insert_fraction=0.6, seed=seed)
            sess.apply(wave)
            current = wave.apply_to(current)
            sess.scale(sites=sites)
            with _cold_build(current, sess, cfds, "incVer") as cold:
                _assert_vertical_indices_match(sess, cold, cfds)
                assert sess.violations.as_dict() == cold.violations.as_dict()
