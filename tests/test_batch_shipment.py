"""Set-oriented shipment accounting of the batch baselines.

``batHor`` and ``batVer`` charge one ledger entry per (site, CFD) — a
``(messages, bytes)`` total priced at the site — where they used to make
one ``Network.send`` per shipped tuple.  The counters must not notice:
the ledgers below were recorded from the per-tuple implementation (the
commit before the change) on the same seeded stream.
"""

import random

import pytest

import repro

#: NetworkStats after the stream, as the per-tuple implementation left them.
RECORDED = {
    "batHor": dict(
        messages=13267,
        bytes=352099,
        units_by_kind={"partial_tuple": 13267},
        bytes_by_kind={"partial_tuple": 352099},
        messages_by_pair={(1, 0): 4512, (2, 0): 4269, (3, 0): 4486},
    ),
    "batVer": dict(
        messages=25907,
        bytes=383580,
        units_by_kind={"partial_tuple": 25907},
        bytes_by_kind={"partial_tuple": 383580},
        messages_by_pair={
            (0, 3): 1176,
            (1, 0): 7056,
            (1, 2): 35,
            (1, 3): 3528,
            (2, 0): 3528,
            (2, 1): 3528,
            (2, 3): 1176,
            (3, 0): 4704,
            (3, 2): 1176,
        },
    ),
}

def _inputs():
    """240 TPC-H rows and 20 rules: plain FDs, conditioned variable CFDs, a constant CFD."""
    generator = repro.TPCHGenerator(seed=5, error_rate=0.1)
    cfds = repro.generate_cfds(generator.fd_specs(), 20, seed=3, constant_fraction=0.4)
    assert any(cfd.is_constant() for cfd in cfds)
    return generator, generator.relation(240), cfds


def _builder(strategy, generator, relation, cfds):
    partitioner = (
        generator.horizontal_partitioner(4)
        if strategy == "batHor"
        else generator.vertical_partitioner(4)
    )
    return repro.session(relation).partition(partitioner).rules(cfds).strategy(strategy)


@pytest.mark.parametrize("storage", ["rows", "columnar", "sql"])
@pytest.mark.parametrize("strategy", ["batHor", "batVer"])
def test_three_wave_ledger_equals_the_per_tuple_recording(strategy, storage):
    generator, relation, cfds = _inputs()
    session = (
        _builder(strategy, generator, relation.with_storage(storage), cfds)
        .storage(storage)
        .build()
    )
    rng = random.Random(11)
    mirror = relation.copy()
    try:
        for _ in range(3):
            batch = repro.generate_updates(mirror, generator, 60, 0.8, rng=rng)
            session.apply(batch)
            batch.apply_in_place(mirror)
        assert session.violations == repro.detect_violations(cfds, mirror)
        stats = session.network.stats()
    finally:
        session.close()
    assert vars(stats) == RECORDED[strategy]
