"""The detection engine: registry, session builder, parity and streaming."""

import pytest

import repro
from repro import (
    DetectionReport,
    SessionError,
    Update,
    UpdateBatch,
    detect_violations,
    session,
)
from repro.core.relation import Relation
from repro.core.schema import Schema
from repro.core.tuples import Tuple
from repro.distributed.cluster import Cluster
from repro.engine import (
    DEFAULT_REGISTRY,
    STRATEGY_TABLE,
    AdaptiveStrategyError,
    Detector,
    RegistryError,
    SingleSite,
    StrategyRegistry,
    StrategyStateError,
    register_builtin_strategies,
)
from repro.horizontal.inchor import HorizontalIncrementalDetector
from repro.indexes.planner import HEVPlanner
from repro.partition.replication import ReplicationScheme
from repro.similarity import (
    IncrementalMDDetector,
    MatchingDependency,
    NormalizedStringMatch,
    NumericTolerance,
)
from repro.vertical.incver import VerticalIncrementalDetector
from repro.workloads import EmpWorkload, generate_cfds, generate_updates


@pytest.fixture
def emp_batch(emp):
    t = emp.tuples()
    return UpdateBatch.of(Update.insert(t["t6"]), Update.delete(t["t4"]))


# -- registry -------------------------------------------------------------------------


INC_VER = DEFAULT_REGISTRY.detector("incVer").factory


class TestRegistry:
    PAPER_NAMES = ["incVer", "batVer", "ibatVer", "incHor", "batHor", "ibatHor"]

    def test_paper_algorithms_are_registered(self):
        for name in self.PAPER_NAMES + ["centralized", "md", "incMD"]:
            assert DEFAULT_REGISTRY.has_detector(name)

    def test_builtin_partitioners_are_registered(self):
        for name in ("vertical", "horizontal", "hash"):
            assert DEFAULT_REGISTRY.has_partitioner(name)

    def test_duplicate_detector_registration_raises(self):
        registry = StrategyRegistry()
        registry.register_detector(
            "x", INC_VER, partitioning="vertical", mode="incremental"
        )
        with pytest.raises(RegistryError, match="already registered"):
            registry.register_detector(
                "x", INC_VER, partitioning="vertical", mode="batch"
            )
        # replace=True overrides instead of raising.
        registry.register_detector(
            "x",
            INC_VER,
            partitioning="vertical",
            mode="batch",
            replace=True,
        )
        assert registry.detector("x").mode == "batch"

    def test_duplicate_partitioner_registration_raises(self):
        registry = StrategyRegistry()
        registry.register_partitioner("p", lambda schema: None)
        with pytest.raises(RegistryError, match="already registered"):
            registry.register_partitioner("p", lambda schema: None)

    def test_unknown_lookups_raise_with_known_names(self):
        with pytest.raises(RegistryError, match="incVer"):
            DEFAULT_REGISTRY.detector("nope")
        with pytest.raises(RegistryError, match="no partitioner"):
            DEFAULT_REGISTRY.partitioner("nope")

    def test_invalid_coordinates_rejected(self):
        registry = StrategyRegistry()
        with pytest.raises(RegistryError, match="partitioning"):
            registry.register_detector(
                "x", INC_VER, partitioning="diagonal", mode="batch"
            )
        with pytest.raises(RegistryError, match="rule kind"):
            registry.register_detector(
                "x",
                INC_VER,
                partitioning="vertical",
                mode="batch",
                rules="regex",
            )

    def test_resolve_by_mode(self):
        entry = DEFAULT_REGISTRY.resolve_detector("vertical", "incremental")
        assert entry.name == "incVer"
        entry = DEFAULT_REGISTRY.resolve_detector("horizontal", "improved-batch")
        assert entry.name == "ibatHor"
        with pytest.raises(RegistryError, match="available modes"):
            DEFAULT_REGISTRY.resolve_detector("single", "improved-batch")

    def test_third_party_strategy_plugs_in(self, emp, emp_cfds, emp_batch):
        registry = StrategyRegistry()
        register_builtin_strategies(registry)
        registry.register_detector(
            "myVer",
            lambda **kw: INC_VER(**kw),
            partitioning="vertical",
            mode="mine",
            description="third-party strategy",
        )
        sess = (
            session(emp.relation(), registry=registry)
            .partition(emp.vertical_partitioner())
            .rules(emp_cfds)
            .strategy("myVer")
            .build()
        )
        sess.apply(emp_batch)
        final = emp_batch.apply_to(emp.relation())
        assert sess.violations == detect_violations(emp_cfds, final)


# -- the strategy table -----------------------------------------------------------------


TABLE_MDS = [
    MatchingDependency([("pname", NormalizedStringMatch())], ["sname"], name="md_name"),
    MatchingDependency([("quantity", NumericTolerance(1))], ["shipmode"], name="md_qty"),
]


def _table_session(row, tpch, base, rules):
    builder = session(base)
    if row.partitioning == "vertical":
        builder = builder.partition(tpch.vertical_partitioner(3))
    elif row.partitioning == "horizontal":
        builder = builder.partition(tpch.horizontal_partitioner(3))
    return builder.rules(rules).strategy(row.name).build()


class TestStrategyTable:
    @pytest.mark.parametrize("name", [row.name for row in STRATEGY_TABLE] + ["auto"])
    def test_every_builtin_raises_before_setup(self, name):
        strategy = DEFAULT_REGISTRY.detector(name).create()
        error = AdaptiveStrategyError if name == "auto" else StrategyStateError
        with pytest.raises(error):
            strategy.apply(UpdateBatch())
        with pytest.raises(error):
            strategy.violations
        with pytest.raises(error):
            strategy.export_state()

    @pytest.mark.parametrize("row", STRATEGY_TABLE, ids=lambda row: row.name)
    def test_self_handoff_changes_nothing(self, row, tpch):
        base = tpch.relation(60)
        rules = TABLE_MDS if row.rules == "md" else generate_cfds(tpch.fd_specs(), 5, seed=5)
        first = generate_updates(base, tpch, 20, seed=5)
        second = generate_updates(first.apply_to(base), tpch, 20, seed=6)
        handed = _table_session(row, tpch, base, rules)
        plain = _table_session(row, tpch, base, rules)
        handed.apply(first)
        plain.apply(first)

        violations, ledger = handed.violations.copy(), handed.network.stats()
        strategy = handed.detector
        strategy.import_state(strategy.export_state(), handed.rules)
        assert handed.violations == violations
        # NetworkStats equality covers all five counters.
        assert handed.network.stats() == ledger

        assert handed.apply(second) == plain.apply(second)
        assert handed.violations == plain.violations
        assert handed.network.stats() == plain.network.stats()

    @pytest.mark.parametrize("name", ["ibatVer", "ibatHor"])
    def test_ibat_charges_the_deployment_ledger(self, name, tpch):
        row = next(row for row in STRATEGY_TABLE if row.name == name)
        base = tpch.relation(40)
        sess = _table_session(row, tpch, base, generate_cfds(tpch.fd_specs(), 4, seed=1))
        assert sess.network is sess.deployment.network
        assert sess.detector.inner.network is sess.deployment.network
        sess.apply(generate_updates(base, tpch, 10, seed=2))
        assert sess.report().messages > 0


# -- builder validation ----------------------------------------------------------------


class TestBuilderValidation:
    def test_rules_are_required(self, emp):
        with pytest.raises(SessionError, match="no rules"):
            session(emp.relation()).build()

    def test_session_requires_a_relation(self):
        with pytest.raises(SessionError, match="Relation"):
            session(["not", "a", "relation"])

    def test_incremental_on_unpartitioned_relation_fails(self, emp, emp_cfds):
        with pytest.raises(SessionError, match="incremental"):
            session(emp.relation()).rules(emp_cfds).strategy("incremental").build()

    def test_vertical_strategy_on_horizontal_partition_fails(self, emp, emp_cfds):
        with pytest.raises(SessionError, match="vertical"):
            (
                session(emp.relation())
                .partition(emp.horizontal_partitioner())
                .rules(emp_cfds)
                .strategy("incVer")
                .build()
            )

    def test_distributed_strategy_without_partition_fails(self, emp, emp_cfds):
        with pytest.raises(SessionError, match="partition"):
            session(emp.relation()).rules(emp_cfds).strategy("incVer").build()

    def test_unknown_partition_scheme_fails(self, emp, emp_cfds):
        with pytest.raises(RegistryError, match="no partitioner"):
            session(emp.relation()).partition("diagonal")

    def test_partitioner_options_rejected_with_instance(self, emp):
        with pytest.raises(SessionError, match="options"):
            session(emp.relation()).partition(emp.vertical_partitioner(), n_fragments=3)

    def test_mixed_rule_languages_fail(self, emp, emp_cfds):
        md = MatchingDependency(
            [("name", NormalizedStringMatch())], ["city"], name="m"
        )
        with pytest.raises(SessionError, match="mix"):
            session(emp.relation()).rules(emp_cfds + [md]).build()

    def test_md_rules_with_partition_fail(self, emp):
        md = MatchingDependency(
            [("name", NormalizedStringMatch())], ["city"], name="m"
        )
        with pytest.raises(SessionError, match="single-site"):
            (
                session(emp.relation())
                .partition(emp.vertical_partitioner())
                .rules([md])
                .build()
            )

    def test_md_strategy_on_cfd_rules_fails(self, emp, emp_cfds):
        with pytest.raises(SessionError, match="md"):
            session(emp.relation()).rules(emp_cfds).strategy("md").build()

    def test_unknown_strategy_options_fail(self, emp, emp_cfds):
        with pytest.raises(SessionError, match="bogus"):
            (
                session(emp.relation())
                .partition(emp.vertical_partitioner())
                .rules(emp_cfds)
                .strategy("incVer", bogus=1)
                .build()
            )


# -- strategy resolution and parity -----------------------------------------------------


class TestSessionParity:
    def test_vertical_incremental_matches_direct_detector(self, emp, emp_cfds, emp_batch):
        sess = (
            session(emp.relation())
            .partition(emp.vertical_partitioner())
            .rules(emp_cfds)
            .strategy("incremental")
            .build()
        )
        direct = VerticalIncrementalDetector(
            Cluster.from_vertical(emp.vertical_partitioner(), emp.relation()), emp_cfds
        )
        assert sess.initial_violations == direct.violations
        assert sess.apply(emp_batch) == direct.apply(emp_batch)
        assert sess.violations == direct.violations

    def test_horizontal_incremental_matches_direct_detector(self, emp, emp_cfds, emp_batch):
        sess = (
            session(emp.relation())
            .partition(emp.horizontal_partitioner())
            .rules(emp_cfds)
            .strategy("incremental")
            .build()
        )
        direct = HorizontalIncrementalDetector(
            Cluster.from_horizontal(emp.horizontal_partitioner(), emp.relation()),
            emp_cfds,
        )
        assert sess.apply(emp_batch) == direct.apply(emp_batch)
        assert sess.violations == direct.violations

    def test_vertical_incremental_parity_on_tpch(self, tpch):
        cfds = generate_cfds(tpch.fd_specs(), 6, seed=3)
        base = tpch.relation(120)
        updates = generate_updates(base, tpch, 60, seed=3)
        partitioner = tpch.vertical_partitioner(5)
        sess = (
            session(base).partition(partitioner).rules(cfds).strategy("incremental").build()
        )
        direct = VerticalIncrementalDetector(
            Cluster.from_vertical(partitioner, base), cfds
        )
        assert sess.apply(updates) == direct.apply(updates)
        assert sess.violations == direct.violations
        # The facade charges exactly what the detector charges.
        assert sess.report().network.bytes == direct._cluster.network.stats().bytes

    @pytest.mark.parametrize("partitioning", ["vertical", "horizontal"])
    @pytest.mark.parametrize("mode", ["incremental", "batch", "improved-batch"])
    def test_every_combination_agrees_with_centralized(
        self, emp, emp_cfds, emp_batch, partitioning, mode
    ):
        partitioner = (
            emp.vertical_partitioner()
            if partitioning == "vertical"
            else emp.horizontal_partitioner()
        )
        sess = (
            session(emp.relation())
            .partition(partitioner)
            .rules(emp_cfds)
            .strategy(mode)
            .build()
        )
        assert sess.partitioning == partitioning
        sess.apply(emp_batch)
        final = emp_batch.apply_to(emp.relation())
        assert sess.violations == detect_violations(emp_cfds, final)

    def test_optimized_vertical_strategy(self, emp, emp_cfds, emp_batch):
        # optVer is incVer's HEV plan, not a strategy of its own.
        for name in ("optVer", "optimized"):
            with pytest.raises(SessionError):
                (
                    session(emp.relation())
                    .partition(emp.vertical_partitioner())
                    .rules(emp_cfds)
                    .strategy(name)
                    .build()
                )
        assert len(DEFAULT_REGISTRY.detector_names()) == 10
        partitioner = emp.vertical_partitioner()
        sess = session(emp.relation()).partition(partitioner).rules(emp_cfds).build()
        expected = HEVPlanner(partitioner, ReplicationScheme(partitioner)).plan(emp_cfds)

        def shape(plan):
            return (
                [(node.attributes, node.site) for node in plan.nodes],
                {name: plan.idx_site(name) for name in plan.cfd_names()},
                plan.eqid_shipments_per_update(),
            )

        assert sess.strategy == "incVer"
        assert shape(sess.detector.inner.plan) == shape(expected)
        sess.apply(emp_batch)
        final = emp_batch.apply_to(emp.relation())
        assert sess.violations == detect_violations(emp_cfds, final)

    def test_centralized_default_for_unpartitioned(self, emp, emp_cfds, emp_batch):
        sess = session(emp.relation()).rules(emp_cfds).build()
        assert sess.strategy == "centralized"
        assert isinstance(sess.deployment, SingleSite)
        sess.apply(emp_batch)
        final = emp_batch.apply_to(emp.relation())
        assert sess.violations == detect_violations(emp_cfds, final)
        assert sess.report().messages == 0

    def test_named_partition_scheme(self, tpch):
        cfds = generate_cfds(tpch.fd_specs(), 4, seed=1)
        base = tpch.relation(80)
        sess = (
            session(base)
            .partition("hash", n_fragments=4)
            .rules(cfds)
            .strategy("incremental")
            .build()
        )
        assert sess.partitioning == "horizontal"
        assert len(sess.cluster) == 4
        assert sess.violations == detect_violations(cfds, base)

    def test_strategies_satisfy_the_protocol(self, emp, emp_cfds):
        sess = (
            session(emp.relation())
            .partition(emp.vertical_partitioner())
            .rules(emp_cfds)
            .build()
        )
        assert isinstance(sess.detector, Detector)


# -- MD sessions -------------------------------------------------------------------------


def _customer_fixture():
    schema = Schema("C", ["cid", "name", "phone", "city"], key="cid")
    rows = [
        Tuple(1, {"cid": 1, "name": "John Smith", "phone": 100, "city": "Edi"}),
        Tuple(2, {"cid": 2, "name": "john smith", "phone": 101, "city": "Gla"}),
        Tuple(3, {"cid": 3, "name": "Ann", "phone": 555, "city": "Lon"}),
    ]
    mds = [
        MatchingDependency(
            [("name", NormalizedStringMatch()), ("phone", NumericTolerance(5))],
            ["city"],
            name="same_person_same_city",
        )
    ]
    return Relation(schema, rows), mds


class TestMDSessions:
    def test_incremental_md_matches_direct_detector(self):
        relation, mds = _customer_fixture()
        sess = session(relation).rules(mds).strategy("incremental").build()
        assert sess.strategy == "incMD"
        direct = IncrementalMDDetector(relation, mds)
        batch = UpdateBatch.of(
            Update.insert(
                Tuple(4, {"cid": 4, "name": "JOHN SMITH", "phone": 102, "city": "Edi"})
            )
        )
        assert sess.apply(batch) == direct.apply(batch)
        assert sess.violations == direct.violations

    def test_batch_md_session(self):
        relation, mds = _customer_fixture()
        sess = session(relation).rules(mds).strategy("batch").build()
        assert sess.strategy == "md"
        assert sorted(sess.violations.tids()) == [1, 2]
        delta = sess.apply(UpdateBatch.deletes([relation[2 - 1]]))
        assert 1 in delta.removed_tids() or 2 in delta.removed_tids()


# -- streaming ----------------------------------------------------------------------------


class TestStreaming:
    def test_stream_over_multiple_batches(self, tpch):
        cfds = generate_cfds(tpch.fd_specs(), 5, seed=2)
        base = tpch.relation(100)
        partitioner = tpch.horizontal_partitioner(4)
        sess = (
            session(base).partition(partitioner).rules(cfds).strategy("incremental").build()
        )
        current = base
        batches = []
        for wave in range(3):
            updates = generate_updates(current, tpch, 30, seed=50 + wave)
            batches.append(updates)
            current = updates.apply_to(current)
        deltas = list(sess.stream(batches))
        assert len(deltas) == 3
        assert sess.batches_applied == 3
        assert sess.updates_applied == sum(len(b) for b in batches)
        assert sess.violations == detect_violations(cfds, current)

    def test_stream_is_lazy_and_accepts_single_updates(self, emp, emp_cfds):
        t = emp.tuples()
        sess = (
            session(emp.relation())
            .partition(emp.vertical_partitioner())
            .rules(emp_cfds)
            .build()
        )
        stream = sess.stream([Update.insert(t["t6"]), Update.delete(t["t4"])])
        assert sess.batches_applied == 0  # nothing consumed yet
        first = next(stream)
        assert sess.batches_applied == 1
        assert first.added_tids() == {"t6"} or first.added_tids() == {6}
        list(stream)
        assert sess.batches_applied == 2


# -- reports ------------------------------------------------------------------------------


class TestReports:
    def test_report_structure(self, emp, emp_cfds, emp_batch):
        sess = (
            session(emp.relation())
            .partition(emp.vertical_partitioner())
            .rules(emp_cfds)
            .build()
        )
        sess.apply(emp_batch)
        report = sess.report()
        assert isinstance(report, DetectionReport)
        assert report.strategy == "incVer"
        assert report.partitioning == "vertical"
        assert report.n_sites == 3
        assert report.n_rules == len(emp_cfds)
        assert report.batches_applied == 1
        assert report.updates_applied == len(emp_batch)
        assert report.violations == sess.violations
        # Per-site messages add up to the global message count (sent side).
        assert sum(c.messages_sent for c in report.site_costs) == report.messages
        assert sum(c.messages_received for c in report.site_costs) == report.messages

    def test_report_as_dict_and_summary(self, emp, emp_cfds, emp_batch):
        sess = (
            session(emp.relation())
            .partition(emp.vertical_partitioner())
            .rules(emp_cfds)
            .build()
        )
        sess.apply(emp_batch)
        payload = sess.report().as_dict()
        assert payload["strategy"] == "incVer"
        assert payload["n_violating_tuples"] == len(sess.violations)
        assert set(payload["violations"]) == {str(t) for t in sess.violations.tids()}
        text = sess.report().summary()
        assert "incVer" in text and "messages shipped" in text

    def test_report_mutation_isolated_from_session(self, emp, emp_cfds):
        sess = (
            session(emp.relation())
            .partition(emp.vertical_partitioner())
            .rules(emp_cfds)
            .build()
        )
        report = sess.report()
        report.violations.add("zz", "phi1")
        assert "zz" not in sess.violations


# -- package surface -----------------------------------------------------------------------


class TestPackageSurface:
    def test_session_is_exported_at_package_level(self):
        assert repro.session is session

    def test_registry_helpers_exported(self):
        assert callable(repro.register_detector)
        assert callable(repro.register_partitioner)
        assert repro.DEFAULT_REGISTRY is DEFAULT_REGISTRY

    def test_legacy_constructors_still_exported(self):
        # The redesign keeps the old entry points importable.
        emp = EmpWorkload()
        cluster = Cluster.from_vertical(emp.vertical_partitioner(), emp.relation())
        detector = repro.VerticalIncrementalDetector(cluster, emp.cfds())
        assert len(detector.violations) > 0
