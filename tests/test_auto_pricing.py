"""``auto`` prices its candidates without running them.

The planner reads vertical incremental shipment off the HEV plan
``incVer`` builds (``Neqid``, static in D and t), starts the batch sides
from the sampled analytic prior, and — with several storage backends —
times one ``store.check`` per backend on a cached fixture.  These tests
pin the decisions that pricing must keep making, the exactness of the
first vertical estimate, that a build deploys the data once and sets up
only the first candidate, and the ``backends=`` path end to end.
"""

import pytest

import repro
from repro.distributed.cluster import Cluster
from repro.engine import adaptive
from repro.engine.adapters import TableStrategy
from repro.workloads.updates import generate_updates

#: The benchmark's tenant shape: TPCH at seed 7, 10 CFDs, 8 sites.
SEED = 7
TENANT_ROWS = 4_000
N_CFDS = 10
N_SITES = 8

#: 1–64-update waves with a 1 000- and a 3 000-update wave: 92 waves.
WAVE_SIZES = (
    [1 + (7 * i) % 64 for i in range(45)] + [1_000]
    + [1 + (5 * i) % 64 for i in range(45)] + [3_000]
)

#: What ``auto`` chose on every wave of WAVE_SIZES when it still ran
#: calibration probes on scratch clusters: the incremental side throughout.
PROBED_CHOICES = {"vertical": ["incVer"] * 92, "horizontal": ["incHor"] * 92}


@pytest.fixture(scope="module")
def generator():
    return repro.TPCHGenerator(seed=SEED)


@pytest.fixture(scope="module")
def relation(generator):
    return generator.relation(TENANT_ROWS)


@pytest.fixture(scope="module")
def cfds(generator):
    return repro.generate_cfds(generator.fd_specs(), N_CFDS, seed=SEED)


def partitioner(generator, partitioning, n_sites=N_SITES):
    if partitioning == "vertical":
        return generator.vertical_partitioner(n_sites)
    return generator.horizontal_partitioner(n_sites)


def auto_session(generator, relation, cfds, partitioning, **options):
    return (
        repro.session(relation)
        .partition(partitioner(generator, partitioning))
        .rules(cfds)
        .strategy("auto", **options)
        .build()
    )


@pytest.fixture(scope="module")
def waves(generator, relation):
    """WAVE_SIZES as update batches, each against the database the previous left."""
    batches, current = [], relation
    for i, size in enumerate(WAVE_SIZES):
        batch = generate_updates(current, generator, size, 0.8, seed=1_000 + i)
        batches.append(batch)
        current = batch.apply_to(current)
    return batches


class TestPinnedDecisions:
    @pytest.mark.parametrize(
        "partitioning,incremental", [("vertical", "incVer"), ("horizontal", "incHor")]
    )
    def test_a_one_update_wave_at_4000_tuples_runs_incrementally(
        self, generator, relation, cfds, partitioning, incremental
    ):
        with auto_session(generator, relation, cfds, partitioning) as sess:
            sess.apply(generate_updates(relation, generator, 1, seed=SEED))
            assert [d.chosen for d in sess.report().plan_trace] == [incremental]

    @pytest.mark.parametrize("partitioning", ["vertical", "horizontal"])
    def test_the_92_wave_stream_keeps_the_probed_choices(
        self, generator, relation, cfds, waves, partitioning
    ):
        assert len(WAVE_SIZES) == 92
        with auto_session(generator, relation, cfds, partitioning) as sess:
            for batch in waves:
                sess.apply(batch)
            chosen = [d.chosen for d in sess.report().plan_trace]
        assert chosen == PROBED_CHOICES[partitioning]


class TestVerticalPricing:
    def test_the_first_wave_is_priced_exactly_from_the_hev_plan(
        self, generator, relation, cfds
    ):
        with auto_session(generator, relation, cfds, "vertical") as sess:
            assert sess.detector.catalog.rules.eqids_per_update == 10
            sess.apply(generate_updates(relation, generator, 1, seed=SEED))
            (decision,) = sess.report().plan_trace
        assert decision.chosen == "incVer"
        assert (decision.actual.bytes, decision.actual.messages, decision.actual.eqids) == (
            80, 10, 10
        )
        estimated = decision.estimated
        assert (estimated.bytes, estimated.messages, estimated.eqids) == (80, 10, 10)

    def test_the_first_wave_after_a_scale_is_priced_from_the_new_layout(
        self, generator, relation, cfds
    ):
        # Feedback learned at 8 sites must not price the 2- and 4-site plans.
        current = relation
        with auto_session(generator, relation, cfds, "vertical") as sess:
            for step, sites in enumerate((None, 2, 4)):
                if sites is not None:
                    sess.scale(sites=sites)
                batch = generate_updates(current, generator, 1, seed=SEED + step)
                sess.apply(batch)
                current = batch.apply_to(current)
                decision = sess.report().plan_trace[-1]
                actual, estimated = decision.actual, decision.estimated
                assert decision.chosen == "incVer"
                assert (estimated.bytes, estimated.messages, estimated.eqids) == (
                    actual.bytes, actual.messages, actual.eqids
                ), sites

    def test_neqid_is_an_upper_bound_under_pattern_constants(self, generator, relation):
        # A constant in the LHS pattern: tuples outside it ship nothing.
        rules = [
            repro.CFD(["cname"], "cnation", {"cname": next(iter(relation))["cname"]}),
            repro.CFD(["pname"], "pbrand"),
        ]
        with auto_session(generator, relation, rules, "vertical") as sess:
            sess.apply(generate_updates(relation, generator, 20, seed=SEED))
            (decision,) = sess.report().plan_trace
        assert decision.actual.eqids <= decision.estimated.eqids
        assert decision.actual.bytes <= decision.estimated.bytes


class TestBuildWork:
    @pytest.mark.parametrize("partitioning", ["vertical", "horizontal"])
    def test_a_build_deploys_once_and_sets_up_only_the_first_candidate(
        self, generator, relation, cfds, partitioning, monkeypatch
    ):
        deployed, set_up = [], []
        for name in ("from_vertical", "from_horizontal"):
            build = getattr(Cluster, name).__func__

            def counted(cls, *args, _build=build, _name=name, **kwargs):
                deployed.append(_name)
                return _build(cls, *args, **kwargs)

            monkeypatch.setattr(Cluster, name, classmethod(counted))
        setup = TableStrategy.setup

        def counted_setup(self, deployment, rules):
            set_up.append(self.row.name)
            return setup(self, deployment, rules)

        monkeypatch.setattr(TableStrategy, "setup", counted_setup)
        auto_session(generator, relation, cfds, partitioning).close()
        kind = "from_vertical" if partitioning == "vertical" else "from_horizontal"
        assert deployed == [kind]
        assert set_up == ["incVer" if partitioning == "vertical" else "incHor"]


# -- several storage backends ---------------------------------------------------------------

BACKEND_ROWS = 300
BACKEND_SITES = 4


@pytest.fixture(scope="module")
def small(generator):
    return generator.relation(BACKEND_ROWS)


@pytest.fixture(scope="module")
def small_waves(generator, small):
    batches, current = [], small
    for size, seed in ((1, 1), (12, 2), (40, 3)):
        batch = generate_updates(current, generator, size, 0.8, seed=seed)
        batches.append(batch)
        current = batch.apply_to(current)
    return batches


def run(generator, relation, cfds, waves, strategy, **options):
    sess = (
        repro.session(relation)
        .partition(generator.vertical_partitioner(BACKEND_SITES))
        .rules(cfds)
        .strategy(strategy, **options)
        .build()
    )
    deltas = [sess.apply(batch) for batch in waves]
    return sess, [(d.added, d.removed) for d in deltas]


def fragment_storages(sess):
    return {site.fragment.storage for site in sess.deployment.sites()}


class TestBackends:
    @pytest.fixture
    def timings(self, monkeypatch):
        """A fresh fixture cache whose timing calls are recorded."""
        calls = []
        monkeypatch.setattr(adaptive, "_FIXTURE_SECONDS", {})
        time_fixture = adaptive._time_fixture

        def recorded(relation, cfds, backend):
            calls.append(backend)
            return time_fixture(relation, cfds, backend)

        monkeypatch.setattr(adaptive, "_time_fixture", recorded)
        return calls

    def test_the_plan_names_the_rehosted_backend_and_timing_is_cached(
        self, generator, small, cfds, small_waves, timings
    ):
        sess, _ = run(generator, small, cfds, small_waves, "auto", backends=["rows", "sql"])
        backend = sess.detector.storage_backend
        assert sorted(timings) == ["rows", "sql"]
        assert backend in ("rows", "sql")
        assert fragment_storages(sess) == {backend}
        assert {d.backend for d in sess.report().plan_trace} == {backend}
        sess.close()
        again, _ = run(generator, small, cfds, small_waves, "auto", backends=["rows", "sql"])
        assert sorted(timings) == ["rows", "sql"]  # no fixture timing the second time
        assert again.detector.storage_backend == backend
        again.close()

    def test_rehosting_on_sql_matches_fixed_incver_on_rows(
        self, generator, small, cfds, small_waves, monkeypatch
    ):
        monkeypatch.setattr(adaptive, "_FIXTURE_SECONDS", {})
        monkeypatch.setattr(
            adaptive, "_time_fixture",
            lambda relation, cfds, backend: {"rows": 1.0, "sql": 0.5}[backend],
        )
        auto, auto_deltas = run(
            generator, small, cfds, small_waves, "auto", backends=["rows", "sql"]
        )
        fixed, fixed_deltas = run(generator, small, cfds, small_waves, "incVer")
        assert fragment_storages(auto) == {"sql"}
        assert [d.backend for d in auto.report().plan_trace] == ["sql"] * len(small_waves)
        assert [d.chosen for d in auto.report().plan_trace] == ["incVer"] * len(small_waves)
        assert auto.violations == fixed.violations
        assert auto_deltas == fixed_deltas
        got, want = auto.network.stats(), fixed.network.stats()
        assert got.messages == want.messages
        assert got.bytes == want.bytes
        assert got.units_by_kind == want.units_by_kind
        assert got.bytes_by_kind == want.bytes_by_kind
        assert got.messages_by_pair == want.messages_by_pair
        auto.close()
        fixed.close()

    def test_without_probe_the_local_work_prior_picks_and_nothing_is_timed(
        self, generator, small, cfds, timings
    ):
        sess = (
            repro.session(small)
            .partition(generator.vertical_partitioner(BACKEND_SITES))
            .rules(cfds)
            .strategy("auto", backends=["rows", "sql"], probe=False)
            .build()
        )
        assert timings == []
        assert sess.detector.storage_backend == "sql"  # LOCAL_WORK_RATES: 0.55 < 1.0
        sess.close()

    def test_one_backend_times_nothing(self, generator, small, cfds, timings):
        sess = (
            repro.session(small)
            .partition(generator.vertical_partitioner(BACKEND_SITES))
            .rules(cfds)
            .strategy("auto")
            .build()
        )
        assert timings == []
        assert sess.detector.storage_backend == "rows"
        sess.close()
