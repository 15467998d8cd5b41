"""Tests for the workload generators (EMP, TPCH, DBLP, rules, updates)."""

import hashlib
import random

import pytest

from repro.core.cfd import CFD
from repro.core.detector import detect_violations
from repro.workloads.dblp import DBLPGenerator
from repro.workloads.rules import FDSpec, generate_cfds
from repro.workloads.tpch import TPCHGenerator
from repro.workloads.updates import generate_updates


class TestEmpWorkload:
    def test_relation_sizes(self, emp):
        assert len(emp.relation()) == 5
        assert len(emp.relation(include_t6=True)) == 6

    def test_schema_matches_paper(self, emp):
        assert emp.schema.key == "id"
        assert len(emp.schema) == 12

    def test_cfds(self, emp):
        cfds = emp.cfds()
        assert [c.name for c in cfds] == ["phi1", "phi2"]


class TestTPCHGenerator:
    def test_determinism(self):
        a = TPCHGenerator(seed=1).relation(50)
        b = TPCHGenerator(seed=1).relation(50)
        assert [dict(t) for t in a] == [dict(t) for t in b]

    def test_different_seeds_differ(self):
        a = TPCHGenerator(seed=1).relation(50)
        b = TPCHGenerator(seed=2).relation(50)
        assert [dict(t) for t in a] != [dict(t) for t in b]

    def test_tids_are_consecutive(self, tpch):
        tuples = tpch.tuples(100, 10)
        assert [t.tid for t in tuples] == list(range(100, 110))

    def test_tuples_conform_to_schema(self, tpch):
        relation = tpch.relation(20)
        for t in relation:
            assert set(t) == set(tpch.schema.attribute_names)

    def test_clean_data_satisfies_embedded_fds(self):
        generator = TPCHGenerator(seed=9, error_rate=0.0)
        relation = generator.relation(200)
        fds = [CFD(spec.lhs, spec.rhs) for spec in generator.fd_specs()]
        assert len(detect_violations(fds, relation)) == 0

    def test_dirty_data_contains_violations(self):
        generator = TPCHGenerator(seed=9, error_rate=0.2)
        relation = generator.relation(200)
        fds = [CFD(spec.lhs, spec.rhs) for spec in generator.fd_specs()]
        assert len(detect_violations(fds, relation)) > 0

    def test_partitioners_cover_schema(self, tpch):
        vertical = tpch.vertical_partitioner(10)
        covered = {a for f in vertical.fragments for a in f.attributes}
        assert covered == set(tpch.schema.attribute_names)
        horizontal = tpch.horizontal_partitioner(10)
        assert horizontal.n_fragments == 10


def _digest_tuples(tuples) -> str:
    h = hashlib.sha256()
    for t in tuples:
        h.update(repr((t.tid, sorted(t.as_dict().items()))).encode())
    return h.hexdigest()


def _digest_updates(batch) -> str:
    h = hashlib.sha256()
    for u in batch:
        kind = "+" if u.is_insert() else "-"
        h.update(repr((kind, u.tid, sorted(u.tuple.as_dict().items()))).encode())
    return h.hexdigest()


class TestTPCHGeneratorPin:
    """Recorded digests of the generator's output before its mappings were
    memoised: a memo that is consistently wrong passes ``test_determinism``
    (two runs of the same code) but not these."""

    RELATION_2000 = "4553e46bad17d5b25a14c792af64724c4bd5ac4224dd33d1f94de830124affed"
    UPDATES_500 = "93b4c3f7dfaf3239364ad4480565e99114ee9116588b26ad661b9ab44d792577"
    #: ``tuples(1, 1000)`` of ``TPCHGenerator(seed=7)`` and of
    #: ``TPCHGenerator(seed=7, n_customers=37, error_rate=0.5)``.
    DEFAULT_1000 = "371bf11a6d11308f065e8cd662ee5a70c985d41cf6c5887ae83ae74464dbe054"
    OTHER_1000 = "b1526761ecfce371e334fec2eb7fc7adbad05e4b072d7fa25dd2729b37f69037"

    def test_relation_digest(self):
        relation = TPCHGenerator(seed=7).relation(2_000)
        assert _digest_tuples(relation) == self.RELATION_2000

    def test_update_stream_digest(self):
        generator = TPCHGenerator(seed=7)
        base = generator.relation(2_000)
        batch = generate_updates(base, generator, 500, rng=random.Random(3))
        assert _digest_updates(batch) == self.UPDATES_500

    def test_two_generators_interleaved(self):
        other = TPCHGenerator(seed=7, n_customers=37, error_rate=0.5)
        default = TPCHGenerator(seed=7)
        from_other, from_default = [], []
        for start in range(1, 1_001, 250):
            from_other += other.tuples(start, 250)
            from_default += default.tuples(start, 250)
        assert _digest_tuples(from_other) == self.OTHER_1000
        assert _digest_tuples(from_default) == self.DEFAULT_1000

    def test_equal_values_share_one_string(self):
        generator = TPCHGenerator(seed=7)
        first = generator.tuples(1, 300)
        later = generator.tuples(301, 300)
        seen = {}
        for t in first + later:
            for attribute in ("cname", "pname", "sname", "odate"):
                value = seen.setdefault((attribute, t[attribute]), t[attribute])
                assert value is t[attribute]


class TestDBLPGenerator:
    def test_determinism(self):
        a = DBLPGenerator(seed=1).relation(40)
        b = DBLPGenerator(seed=1).relation(40)
        assert [dict(t) for t in a] == [dict(t) for t in b]

    def test_clean_data_satisfies_embedded_fds(self):
        generator = DBLPGenerator(seed=2, error_rate=0.0)
        relation = generator.relation(150)
        fds = [CFD(spec.lhs, spec.rhs) for spec in generator.fd_specs()]
        assert len(detect_violations(fds, relation)) == 0

    def test_dirty_data_contains_violations(self):
        generator = DBLPGenerator(seed=2, error_rate=0.25)
        relation = generator.relation(150)
        fds = [CFD(spec.lhs, spec.rhs) for spec in generator.fd_specs()]
        assert len(detect_violations(fds, relation)) > 0

    def test_tuples_conform_to_schema(self, dblp):
        for t in dblp.relation(20):
            assert set(t) == set(dblp.schema.attribute_names)


class TestRuleGeneration:
    def test_exact_count(self, tpch):
        assert len(generate_cfds(tpch.fd_specs(), 25, seed=1)) == 25

    def test_zero_count(self, tpch):
        assert generate_cfds(tpch.fd_specs(), 0) == []

    def test_requires_specs(self):
        with pytest.raises(ValueError):
            generate_cfds([], 5)

    def test_determinism(self, tpch):
        a = generate_cfds(tpch.fd_specs(), 20, seed=3)
        b = generate_cfds(tpch.fd_specs(), 20, seed=3)
        assert [c.name for c in a] == [c.name for c in b]
        assert a == b

    def test_first_pass_is_plain_fds(self, tpch):
        specs = tpch.fd_specs()
        cfds = generate_cfds(specs, len(specs), seed=3)
        assert all(c.is_plain_fd() for c in cfds)

    def test_later_passes_add_patterns(self, tpch):
        specs = tpch.fd_specs()
        cfds = generate_cfds(specs, 4 * len(specs), seed=3)
        assert any(not c.is_plain_fd() for c in cfds)

    def test_constant_cfds_generated(self, tpch):
        cfds = generate_cfds(tpch.fd_specs(), 60, seed=3, constant_fraction=0.5)
        assert any(c.is_constant() for c in cfds)

    def test_names_are_unique(self, tpch):
        cfds = generate_cfds(tpch.fd_specs(), 50, seed=3)
        assert len({c.name for c in cfds}) == 50

    def test_generated_cfds_validate_against_schema(self, tpch):
        for cfd in generate_cfds(tpch.fd_specs(), 40, seed=3):
            cfd.validate_against(tpch.schema)

    def test_constant_cfds_agree_with_clean_data(self):
        """Constant CFDs are built from consistent pairs, so clean data never violates them."""
        generator = TPCHGenerator(seed=9, error_rate=0.0)
        relation = generator.relation(150)
        cfds = [c for c in generate_cfds(generator.fd_specs(), 60, seed=3) if c.is_constant()]
        assert cfds, "expected at least one constant CFD"
        assert len(detect_violations(cfds, relation)) == 0


class TestFDSpec:
    def test_build_and_domains(self):
        spec = FDSpec.build(["a", "b"], "c", {"a": [1, 2]}, [({"a": 1}, "x")])
        assert spec.lhs == ("a", "b")
        assert spec.domain_of("a") == (1, 2)
        assert spec.domain_of("b") == ()
        assert spec.consistent_pairs[0][1] == "x"


class TestUpdateGeneration:
    def test_size_and_mix(self, tpch):
        base = tpch.relation(100)
        updates = generate_updates(base, tpch, 50, insert_fraction=0.8, seed=1)
        assert len(updates) == 50
        assert len(updates.insertions) == 40
        assert len(updates.deletions) == 10

    def test_inserted_tids_are_fresh(self, tpch):
        base = tpch.relation(100)
        updates = generate_updates(base, tpch, 30, seed=1)
        for u in updates.insertions:
            assert u.tid not in base

    def test_deleted_tuples_come_from_base(self, tpch):
        base = tpch.relation(100)
        updates = generate_updates(base, tpch, 30, seed=1)
        for u in updates.deletions:
            assert u.tid in base

    def test_deletions_capped_at_base_size(self, tpch):
        base = tpch.relation(10)
        with pytest.warns(UserWarning, match="requested 100 deletions"):
            updates = generate_updates(base, tpch, 100, insert_fraction=0.0, seed=1)
        assert len(updates.deletions) == 10
        assert len(updates) == 100

    def test_clamped_deletions_warn_with_requested_vs_actual_split(self, tpch):
        base = tpch.relation(5)
        with pytest.warns(UserWarning) as caught:
            updates = generate_updates(base, tpch, 20, insert_fraction=0.5, seed=1)
        message = str(caught[0].message)
        assert "requested 10 deletions" in message
        assert "holds only 5 tuples" in message
        assert "15 insertions and 5 deletions" in message
        assert "requested split: 10/10" in message
        assert len(updates.insertions) == 15
        assert len(updates.deletions) == 5

    def test_satisfiable_deletion_demand_does_not_warn(self, tpch, recwarn):
        base = tpch.relation(50)
        generate_updates(base, tpch, 20, insert_fraction=0.5, seed=1)
        assert not [w for w in recwarn.list if issubclass(w.category, UserWarning)]

    def test_determinism(self, tpch):
        base = tpch.relation(50)
        a = generate_updates(base, tpch, 20, seed=5)
        b = generate_updates(base, tpch, 20, seed=5)
        assert [(u.kind, u.tid) for u in a] == [(u.kind, u.tid) for u in b]

    def test_invalid_arguments(self, tpch):
        base = tpch.relation(10)
        with pytest.raises(ValueError):
            generate_updates(base, tpch, -1)
        with pytest.raises(ValueError):
            generate_updates(base, tpch, 10, insert_fraction=1.5)

    def test_applying_generated_updates_is_valid(self, tpch):
        base = tpch.relation(60)
        updates = generate_updates(base, tpch, 40, seed=2)
        updated = updates.apply_to(base)
        assert len(updated) == len(base) + len(updates.insertions) - len(updates.deletions)

    def test_rng_matches_equivalent_seed(self, tpch):
        base = tpch.relation(50)
        seeded = generate_updates(base, tpch, 20, seed=5)
        via_rng = generate_updates(base, tpch, 20, seed=999, rng=random.Random(5))
        assert [(u.kind, u.tid) for u in seeded] == [(u.kind, u.tid) for u in via_rng]

    def test_rng_streams_are_deterministic_but_distinct_per_client(self, tpch):
        base = tpch.relation(50)

        def client_stream(client_seed):
            rng = random.Random(client_seed)
            return [
                [(u.kind, u.tid, dict(u.tuple)) for u in generate_updates(base, tpch, 15, rng=rng)]
                for _ in range(3)
            ]

        assert client_stream(1) == client_stream(1)
        assert client_stream(1) != client_stream(2)

    def test_private_rng_advances_instead_of_replaying(self, tpch):
        base = tpch.relation(50)
        rng = random.Random(7)
        first = generate_updates(base, tpch, 15, rng=rng)
        second = generate_updates(base, tpch, 15, rng=rng)
        assert [(u.kind, u.tid, dict(u.tuple)) for u in first] != [
            (u.kind, u.tid, dict(u.tuple)) for u in second
        ]

    def test_rng_with_skew(self, tpch):
        base = tpch.relation(60)
        a = generate_updates(base, tpch, 30, skew=1.0, rng=random.Random(3))
        b = generate_updates(base, tpch, 30, skew=1.0, rng=random.Random(3))
        assert [(u.kind, u.tid) for u in a] == [(u.kind, u.tid) for u in b]
