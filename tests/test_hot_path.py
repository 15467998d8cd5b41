"""The single-update paths do O(1 + |delta-V|) work and ship what they always shipped.

Three contracts of the incVer / incHor wave loop:

* it never materialises an IDX group — ``CFDIndex.classes``,
  ``class_of`` and ``groups`` (the copying diagnostics) are not on the
  update path of any backend;
* one single-update step into a dirty group allocates the same whether
  the group has ten members or ten thousand;
* the shipment ledger of a fixed update stream is what it was before
  the probes stopped copying (counters pinned at the parent revision).
"""

import tracemalloc

import pytest

from repro.core.cfd import CFD
from repro.core.detector import detect_violations
from repro.core.tuples import Tuple
from repro.core.updates import UpdateBatch
from repro.core.violations import ViolationSet, diff_violations
from repro.distributed.network import Network
from repro.engine.session import session
from repro.horizontal.single import GeneralCFDProtocol
from repro.indexes.idx import CFDIndex
from repro.vertical.single import incremental_delete, incremental_insert
from repro.workloads.rules import generate_cfds
from repro.workloads.tpch import TPCHGenerator
from repro.workloads.updates import generate_updates

SEED = 17
N_SITES = 3


def build(generator, relation, cfds, strategy, storage="rows"):
    partitioner = (
        generator.vertical_partitioner(N_SITES)
        if strategy == "incVer"
        else generator.horizontal_partitioner(N_SITES)
    )
    return (
        session(relation)
        .partition(partitioner)
        .rules(cfds)
        .strategy(strategy)
        .storage(storage)
        .build()
    )


# -- no group is ever materialised -------------------------------------------------------


class TestWaveLoopNeverMaterialisesAGroup:
    @pytest.fixture
    def no_copies(self, monkeypatch):
        def forbidden(self, *args, **kwargs):
            raise AssertionError("the update path copied an IDX group")

        for name in ("classes", "class_of", "groups"):
            monkeypatch.setattr(CFDIndex, name, forbidden)

    @pytest.mark.parametrize("storage", ["rows", "columnar", "sql"])
    @pytest.mark.parametrize("strategy", ["incVer", "incHor"])
    def test_session_matches_oracle(self, no_copies, strategy, storage):
        generator = TPCHGenerator(seed=SEED, error_rate=0.1)
        relation = generator.relation(150)
        cfds = list(generate_cfds(generator.fd_specs(), 6, seed=SEED))
        stream = list(generate_updates(relation, generator, 120, seed=SEED))
        touched = {u.tid for u in stream}
        victims = [t for t in relation if t.tid not in touched][:10]
        modifications = UpdateBatch()
        for old in victims:
            # land the tuple in (very likely) another LHS group and RHS class
            donor = relation[(old.tid + 37) % len(relation) + 1]
            new = old.with_values(
                **{a: donor[a] for a in old if a != relation.schema.key}
            )
            modifications.extend(UpdateBatch.modification(old, new))
        waves = [
            UpdateBatch(stream[:60]),
            UpdateBatch(),
            UpdateBatch(stream[60:]),
            modifications,
            UpdateBatch.deletes(u.tuple for u in stream[:60] if u.is_insert()),
        ]

        mirror = relation.copy()
        with build(generator, relation, cfds, strategy, storage) as sess:
            assert sess.violations == detect_violations(cfds, mirror)
            for wave in waves:
                before = detect_violations(cfds, mirror)
                wave.apply_in_place(mirror)
                after = detect_violations(cfds, mirror)
                delta = sess.apply(wave)
                assert sess.violations == after
                assert delta == diff_violations(before, after)


# -- allocation does not grow with the group ------------------------------------------------


PHI = CFD(["CC", "zip"], "street", name="phi")


def member(tid, street):
    return Tuple(tid, {"CC": 44, "zip": "EH4", "street": street})


def dirty_index(size):
    """One LHS group of ``size`` members in two RHS classes (all violating)."""
    index = CFDIndex(PHI)
    for tid in range(size):
        index.add_tuple(member(tid, "Mayfield" if tid % 2 else "Crichton"))
    return index


def peak_bytes(step):
    tracemalloc.start()
    try:
        step()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def vertical_insert(size):
    index = dirty_index(size)
    t = member(size, "Mayfield")
    return peak_bytes(lambda: incremental_insert(index, t))


def vertical_delete(size):
    index = dirty_index(size)
    t = member(1, "Mayfield")
    return peak_bytes(lambda: incremental_delete(index, t))


def horizontal_insert(size):
    indices = {0: dirty_index(size), 1: CFDIndex(PHI)}
    violations = ViolationSet({tid: [PHI.name] for tid in range(size)})
    protocol = GeneralCFDProtocol(PHI, indices, violations, Network(), [0, 1])
    t = member(size, "Preston")  # no local class shares its RHS value

    def mark(tid):
        violations.add(tid, PHI.name)

    return peak_bytes(lambda: protocol.insert(0, t, mark, mark))


class TestAllocationIndependentOfGroupSize:
    @pytest.mark.parametrize(
        "step", [vertical_insert, vertical_delete, horizontal_insert]
    )
    def test_same_peak_for_10_and_10_000_members(self, step):
        step(10)  # first call pays one-off allocations (method caches, layouts)
        small, large = step(10), step(10_000)
        # The old probes copied the group: >= 8 bytes per member for the
        # set tables alone, i.e. hundreds of KB at 10 000 members.
        assert abs(large - small) <= 512, (small, large)


# -- shipment is untouched ------------------------------------------------------------------


#: NetworkStats of the stream below, recorded at the revision before the
#: probes stopped copying (PR 11).  A detector change that moves them
#: changed what is shipped, not just how fast.  incVer's were re-derived
#: when its default HEV plan became optVer's, which shares HEVs and so
#: ships fewer eqids per update than the naive chains.
PINNED_LEDGER = {
    "incVer": {
        "messages": 21024,
        "bytes": 170411,
        "eqids": 20000,
        "units_by_kind": {"eqid": 20000, "partial_tuple": 1024},
    },
    "incHor": {
        "messages": 7399,
        "bytes": 350270,
        "eqids": 0,
        "units_by_kind": {"control": 85, "digest": 7314},
    },
}


class TestShipmentLedgerIsPinned:
    @pytest.mark.parametrize("strategy", ["incVer", "incHor"])
    def test_2000_updates_ship_what_they_always_shipped(self, strategy):
        generator = TPCHGenerator(seed=SEED, error_rate=0.1)
        relation = generator.relation(1_000)
        cfds = list(
            generate_cfds(generator.fd_specs(), 24, seed=SEED, constant_fraction=0.9)
        )
        assert any(cfd.is_constant() for cfd in cfds)
        stream = list(generate_updates(relation, generator, 2_000, seed=SEED))
        final = UpdateBatch(stream).apply_to(relation)
        with build(generator, relation, cfds, strategy) as sess:
            for start in range(0, len(stream), 50):
                sess.apply(UpdateBatch(stream[start : start + 50]))
            stats = sess.network.stats()
            assert sess.violations == detect_violations(cfds, final)
        ledger = {
            "messages": stats.messages,
            "bytes": stats.bytes,
            "eqids": stats.eqids_shipped,
            "units_by_kind": dict(sorted(stats.units_by_kind.items())),
        }
        assert ledger == PINNED_LEDGER[strategy]
