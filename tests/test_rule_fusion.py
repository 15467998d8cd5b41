"""Rule-fusion parity: fused compilation is invisible in the results.

Every check sweeps a fragment once per same-LHS rule group, never once
per rule.  For every strategy — the full registry plus ``auto`` — each
storage backend (rows, columnar, sql) must produce the identical
violation set, ΔV and shipment counters as the same strategy on rows,
batch after batch, including across mid-stream scale and rebalance
events; and V must equal the per-rule oracle: one ``detect_violations``
call per rule over D ⊕ ΔD.  The grouping itself is exercised by an
8-rule tableau sharing 3 LHS lists, on which the SQL backend issues one
query per group per check — the whole point of the shared tagged query.
"""

import pytest

from repro.core.cfd import CFD, split_local_general
from repro.core.detector import detect_violations
from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.core.tuples import Tuple
from repro.core.updates import Update, UpdateBatch
from repro.engine.session import session
from repro.rulefuse import compile_rule_set, n_fused_groups
from repro.similarity.detector import MDDetector
from repro.similarity.md import MatchingDependency
from repro.similarity.predicates import NormalizedStringMatch
from repro.workloads.rules import generate_cfds
from repro.workloads.tpch import TPCHGenerator
from repro.workloads.updates import generate_updates

SEED = 17
N_BASE = 100
N_UPDATES = 50
N_CFDS = 6
N_SITES = 3

#: Every registered strategy (the MD detectors have no fused path) plus
#: ``auto`` on both partitionings.
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

STORAGES = ["rows", "columnar", "sql"]


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
        )
    ]


def per_rule_oracle(rules, tuples):
    """``V`` from every rule checked on its own: one ``detect_violations``
    call per CFD, the exhaustive pairwise reference per MD."""
    tuples = list(tuples)
    found = {}
    for rule in rules:
        if isinstance(rule, CFD):
            tids = detect_violations([rule], tuples).tids_for(rule.name)
        else:
            tids = MDDetector.violations_of(rule, tuples)
        for tid in tids:
            found.setdefault(tid, set()).add(rule.name)
    return found


def run_strategy(strategy, partitioning, storage, generator, relation, cfds, mds, updates):
    builder = session(relation)
    if partitioning == "vertical":
        builder = builder.partition(generator.vertical_partitioner(N_SITES))
    elif partitioning == "horizontal":
        builder = builder.partition(generator.horizontal_partitioner(N_SITES))
    rules = mds if strategy in ("md", "incMD") else cfds
    sess = builder.rules(rules).strategy(strategy).storage(storage).build()
    delta = sess.apply(updates)
    stats = sess.network.stats()
    sess.close()
    return {
        "initial": sess.initial_violations.as_dict(),
        "violations": sess.violations.as_dict(),
        "added": delta.added,
        "removed": delta.removed,
        "network": stats,
    }


@pytest.fixture(scope="module")
def rows_outcomes(generator, relation, cfds, mds, updates):
    """Reference results on the rows backend, per strategy."""
    return {
        (strategy, partitioning): run_strategy(
            strategy, partitioning, "rows", generator, relation, cfds, mds, updates
        )
        for strategy, partitioning in STRATEGIES
    }


class TestFusionParity:
    @pytest.mark.parametrize("storage", STORAGES)
    @pytest.mark.parametrize("strategy,partitioning", STRATEGIES)
    def test_fused_matches_per_rule(
        self, strategy, partitioning, storage, rows_outcomes,
        generator, relation, cfds, mds, updates,
    ):
        expected = rows_outcomes[(strategy, partitioning)]
        fused = (
            expected
            if storage == "rows"
            else run_strategy(
                strategy, partitioning, storage, generator, relation, cfds, mds, updates
            )
        )
        assert fused == expected
        rules = mds if strategy in ("md", "incMD") else cfds
        assert fused["violations"] == per_rule_oracle(rules, updates.apply_to(relation))

    def test_reference_outcomes_are_not_vacuous(self, rows_outcomes):
        assert any(o["violations"] for o in rows_outcomes.values())
        assert any(o["network"].messages for o in rows_outcomes.values())


# -- mid-stream elasticity ----------------------------------------------------------------

WAVE_SIZES = [(18, 41), (24, 42), (16, 43)]
SCALE_OUT = 5
SCALE_IN = 2

WAVE_STRATEGIES = [
    ("incVer", "vertical"),
    ("incHor", "horizontal"),
    ("auto", "horizontal"),
]


@pytest.fixture(scope="module")
def waves(generator, relation):
    """``(batch, D ⊕ every batch so far)`` per wave."""
    waves = []
    current = relation
    for size, seed in WAVE_SIZES:
        batch = generate_updates(
            current, generator, size, insert_fraction=0.6, seed=seed, skew=1.2
        )
        current = batch.apply_to(current)
        waves.append((batch, current))
    return waves


def _delta_key(delta):
    return (
        {tid: frozenset(names) for tid, names in delta.added.items()},
        {tid: frozenset(names) for tid, names in delta.removed.items()},
    )


def run_waves(strategy, partitioning, storage, generator, relation, cfds, waves):
    builder = session(relation)
    if partitioning == "vertical":
        builder = builder.partition(generator.vertical_partitioner(N_SITES))
    else:
        builder = builder.partition(generator.horizontal_partitioner(N_SITES))
    sess = builder.rules(cfds).strategy(strategy).storage(storage).build()
    records = []
    with sess:
        for i, (wave, _final) in enumerate(waves):
            if i == 1:
                sess.scale(sites=SCALE_OUT)
            if i == 2:
                if partitioning == "horizontal":
                    sess.rebalance()
                sess.scale(sites=SCALE_IN)
            # Per-wave shipment only: columnar prices the migrations' column
            # moves by their dictionary encoding, so those bytes differ.
            before = sess.network.stats()
            delta = sess.apply(wave)
            shipped = sess.network.stats().diff(before)
            records.append((_delta_key(delta), sess.violations.as_dict(), shipped))
    return records


class TestFusionElasticityParity:
    @pytest.mark.parametrize("storage", ["rows", "columnar", "sql"])
    @pytest.mark.parametrize("strategy,partitioning", WAVE_STRATEGIES)
    def test_scaled_streams_stay_identical(
        self, strategy, partitioning, storage, generator, relation, cfds, waves
    ):
        fused = run_waves(strategy, partitioning, storage, generator, relation, cfds, waves)
        rows = run_waves(strategy, partitioning, "rows", generator, relation, cfds, waves)
        assert fused == rows
        for (_delta, violations, _stats), (_wave, final) in zip(fused, waves):
            assert violations == per_rule_oracle(cfds, final)


# -- shared-LHS tableau -------------------------------------------------------------------


@pytest.fixture(scope="module")
def tableau_schema():
    return Schema("t", ["tid", "a", "b", "c", "d", "e"], key="tid")


@pytest.fixture(scope="module")
def tableau_cfds():
    """8 rules over 3 distinct LHS lists: a tableau-shaped rule set."""
    return [
        CFD(("a", "b"), "c", {}, name="ab_c"),
        CFD(("a", "b"), "d", {}, name="ab_d"),
        CFD(("a", "b"), "e", {"a": "a1"}, name="ab_e_pinned"),
        CFD(("a",), "d", {}, name="a_d"),
        CFD(("a",), "e", {"a": "a2", "e": "e0"}, name="a_e_const"),
        CFD(("a",), "c", {}, name="a_c"),
        CFD(("b", "c"), "e", {}, name="bc_e"),
        CFD(("b", "c"), "d", {"b": "b3"}, name="bc_d_pinned"),
    ]


@pytest.fixture(scope="module")
def tableau_relation(tableau_schema):
    rows = [
        Tuple(
            i,
            {
                "tid": i,
                "a": f"a{i % 7}",
                "b": f"b{i % 5}",
                "c": f"c{(i // 2) % 6}",
                "d": f"d{(i // 3) % 4}",
                "e": f"e{i % 3}",
            },
        )
        for i in range(240)
    ]
    return Relation(tableau_schema, rows)


@pytest.fixture(scope="module")
def tableau_updates():
    return UpdateBatch(
        [
            Update.insert(
                Tuple(
                    1000 + i,
                    {
                        "tid": 1000 + i,
                        "a": f"a{i % 7}",
                        "b": f"b{i % 5}",
                        "c": "conflict-c",
                        "d": "conflict-d",
                        "e": "e0",
                    },
                )
            )
            for i in range(30)
        ]
    )


class TestSharedLhsTableau:
    def test_compiler_groups_by_lhs(self, tableau_cfds):
        groups = compile_rule_set(tableau_cfds)
        assert len(groups) == 3
        assert n_fused_groups(tableau_cfds) == 3
        # First-seen order, members in rule order.
        assert [g.lhs for g in groups] == [("a", "b"), ("a",), ("b", "c")]
        assert [len(g) for g in groups] == [3, 3, 2]
        assert [m.name for m in groups[0].members] == ["ab_c", "ab_d", "ab_e_pinned"]

    @pytest.mark.parametrize("storage", STORAGES)
    def test_tableau_parity_all_backends(
        self, storage, tableau_relation, tableau_cfds, tableau_updates
    ):
        sess = (
            session(tableau_relation)
            .partition("horizontal", n_fragments=N_SITES)
            .rules(tableau_cfds)
            .strategy("incHor")
            .storage(storage)
            .build()
        )
        with sess:
            initial = sess.initial_violations.as_dict()
            sess.apply(tableau_updates)
            violations = sess.violations.as_dict()
        assert initial == per_rule_oracle(tableau_cfds, tableau_relation)
        final = tableau_updates.apply_to(tableau_relation)
        assert violations == per_rule_oracle(tableau_cfds, final)
        assert violations

    def test_explain_reports_group_structure(
        self, tableau_relation, tableau_cfds, tableau_updates
    ):
        sess = (
            session(tableau_relation)
            .partition("horizontal", n_fragments=N_SITES)
            .rules(tableau_cfds)
            .strategy("auto")
            .build()
        )
        sess.apply(tableau_updates)
        info = sess.explain()
        sess.close()
        fusion = info["rule_fusion"]
        assert fusion["n_groups"] == 3
        assert [g["lhs"] for g in fusion["groups"]] == [["a", "b"], ["a"], ["b", "c"]]
        assert sum(len(g["rules"]) for g in fusion["groups"]) == len(tableau_cfds)
        # The planner priced the fused shape and recorded it per batch.
        assert info["last_plan"]["rule_groups"] == {"n_rules": 8, "n_groups": 3}

    def test_fused_sql_issues_fewer_queries(
        self, tableau_relation, tableau_cfds, tableau_updates
    ):
        """One query per LHS group per check: 3, not 8, for the tableau."""
        sess = (
            session(tableau_relation)
            .rules(tableau_cfds)
            .strategy("centralized")
            .storage("sql")
            .build()
        )
        with sess:
            setup_store = sess.deployment.relation.store
            assert setup_store.name == "sql"
            assert setup_store.query_count == 3
            sess.apply(tableau_updates)
            # The wave's re-check runs on the updated copy of the relation.
            wave_store = sess.deployment.relation.store
            assert wave_store is not setup_store
            assert wave_store.query_count == 3
            assert sess.violations.as_dict()

    def test_stmt_cache_counters_in_explain(
        self, tableau_relation, tableau_cfds, tableau_updates
    ):
        sess = (
            session(tableau_relation)
            .partition("horizontal", n_fragments=N_SITES)
            .rules(tableau_cfds)
            .strategy("batHor")
            .storage("sql")
            .build()
        )
        first = sess.explain()["storage"]
        assert first["backend"] == "sql"
        assert set(first["stmt_cache"]) == {"hits", "misses", "size"}
        cache_before = dict(first["stmt_cache"])
        assert cache_before["misses"] > 0  # setup compiled the fused queries
        sess.apply(tableau_updates)
        after = sess.explain()["storage"]["stmt_cache"]
        sess.close()
        # Re-detection reuses the prepared statements: hits must grow,
        # the cache itself must not (same keys, same plans).
        assert after["hits"] > cache_before["hits"]
        assert after["size"] == cache_before["size"]


# -- unit coverage ------------------------------------------------------------------------


class TestCompilerUnits:
    def test_single_rules_are_singleton_groups(self):
        cfds = [CFD(("a",), "b", {}, name="r1"), CFD(("b",), "c", {}, name="r2")]
        groups = compile_rule_set(cfds)
        assert [len(g) for g in groups] == [1, 1]
        assert n_fused_groups(cfds) == 2

    def test_n_fused_groups_counts_non_cfds_individually(self, mds):
        cfds = [CFD(("a",), "b", {}, name="r1"), CFD(("a",), "c", {}, name="r2")]
        assert n_fused_groups(cfds) == 1
        assert n_fused_groups(list(cfds) + list(mds)) == 1 + len(mds)

    def test_group_as_dict_is_json_ready(self):
        import json

        cfds = [
            CFD(("a", "b"), "c", {}, name="v"),
            CFD(("a", "b"), "d", {"a": "x", "b": "y", "d": "z"}, name="k"),
        ]
        (group,) = compile_rule_set(cfds)
        rendered = group.as_dict()
        json.dumps(rendered)
        assert rendered["rules"] == ["v", "k"]
        assert rendered["n_constant"] == 1
        assert rendered["n_variable"] == 1

    def test_split_local_general_preserves_order_and_duplicates(self):
        a = CFD(("a",), "b", {}, name="x")
        b = CFD(("b",), "c", {}, name="y")
        c = CFD(("c",), "d", {}, name="z")
        local, general = split_local_general([a, b, c], lambda cfd: cfd is not b)
        assert local == [a, c]
        assert general == [b]
        # Equal-but-distinct rules are classified by identity, not value.
        twin = CFD(("a",), "b", {}, name="x")
        local, general = split_local_general([a, twin], lambda cfd: cfd is a)
        assert local == [a]
        assert general == [twin]


class TestPlannerGroupAwareness:
    def test_local_work_scales_with_groups_not_rules(
        self, tableau_relation, tableau_cfds
    ):
        from repro.planner.estimators import estimate_batch
        from repro.stats.collector import BatchProfile, StatsCatalog

        catalog = StatsCatalog.collect(
            tableau_relation, tableau_cfds, n_sites=N_SITES, partitioning="horizontal"
        )
        assert catalog.rules.n_groups == 3
        assert catalog.rules.n_rules == 8
        estimate = estimate_batch(catalog, BatchProfile.of(UpdateBatch()))
        assert estimate.cost.local_work == 3 * len(tableau_relation)
