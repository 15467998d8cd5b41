"""Adaptive-strategy parity: ``auto`` is invisible in the results.

Whatever side the planner picks per batch, the violations and every
per-wave ``delta-V`` must be identical to every fixed strategy on the
same deployment — across storage backends, extending the storage
parity pattern to the planning axis.  The update stream is shaped to force at least one
switch in each distributed deployment (small wave, huge wave past the
crossover, small wave again), so the warm-state handoff itself is under
test.
"""

import pytest

from repro.engine.session import session
from repro.similarity.md import MatchingDependency
from repro.similarity.predicates import NormalizedStringMatch, NumericTolerance
from repro.workloads.rules import generate_cfds
from repro.workloads.tpch import TPCHGenerator
from repro.workloads.updates import generate_updates

SEED = 17
N_BASE = 100
N_CFDS = 5
N_SITES = 3

#: Wave sizes: below, far beyond, and again below the crossover.
WAVES = [(15, 21), (250, 22), (10, 23)]

FIXED_STRATEGIES = [
    ("incVer", "vertical", "cfd"),
    ("batVer", "vertical", "cfd"),
    ("ibatVer", "vertical", "cfd"),
    ("incHor", "horizontal", "cfd"),
    ("batHor", "horizontal", "cfd"),
    ("ibatHor", "horizontal", "cfd"),
    ("centralized", "single", "cfd"),
    ("md", "single", "md"),
    ("incMD", "single", "md"),
]

AUTO_DEPLOYMENTS = [
    ("vertical", "cfd"),
    ("horizontal", "cfd"),
    ("single", "cfd"),
    ("single", "md"),
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


@pytest.fixture(scope="module")
def waves(generator, relation):
    """Three update waves generated against the evolving database."""
    batches = []
    current = relation
    for size, seed in WAVES:
        batch = generate_updates(current, generator, size, insert_fraction=0.6, seed=seed)
        batches.append(batch)
        current = batch.apply_to(current)
    return batches


def run_stream(
    strategy, partitioning, rule_kind, storage, generator, relation, cfds, mds, waves,
):
    builder = session(relation)
    if partitioning == "vertical":
        builder = builder.partition(generator.vertical_partitioner(N_SITES))
    elif partitioning == "horizontal":
        builder = builder.partition(generator.horizontal_partitioner(N_SITES))
    rules = mds if rule_kind == "md" else cfds
    sess = builder.rules(rules).strategy(strategy).storage(storage).build()
    deltas = [sess.apply(batch) for batch in waves]
    outcome = {
        "initial": sess.initial_violations.as_dict(),
        "violations": sess.violations.as_dict(),
        "deltas": [(d.added, d.removed) for d in deltas],
    }
    report = sess.report()
    sess.close()
    return outcome, report


@pytest.fixture(scope="module")
def fixed_outcomes(generator, relation, cfds, mds, waves):
    return {
        (strategy, partitioning, rule_kind): run_stream(
            strategy, partitioning, rule_kind, "rows",
            generator, relation, cfds, mds, waves,
        )[0]
        for strategy, partitioning, rule_kind in FIXED_STRATEGIES
    }


class TestAutoParity:
    @pytest.mark.parametrize("strategy,partitioning,rule_kind", FIXED_STRATEGIES)
    def test_auto_matches_every_fixed_strategy(
        self, strategy, partitioning, rule_kind,
        fixed_outcomes, generator, relation, cfds, mds, waves,
    ):
        auto, _ = run_stream(
            "auto", partitioning, rule_kind, "rows",
            generator, relation, cfds, mds, waves,
        )
        assert auto == fixed_outcomes[(strategy, partitioning, rule_kind)]

    @pytest.mark.parametrize("storage", ["rows", "columnar"])
    @pytest.mark.parametrize("partitioning", ["vertical", "horizontal"])
    def test_auto_parity_across_storage_backends(
        self, partitioning, storage,
        fixed_outcomes, generator, relation, cfds, mds, waves,
    ):
        auto, _ = run_stream(
            "auto", partitioning, "cfd", storage,
            generator, relation, cfds, mds, waves,
        )
        reference = "incVer" if partitioning == "vertical" else "incHor"
        assert auto == fixed_outcomes[(reference, partitioning, "cfd")]

    def test_parity_is_not_vacuous(self, fixed_outcomes):
        assert any(o["violations"] for o in fixed_outcomes.values())
        assert any(
            added or removed
            for o in fixed_outcomes.values()
            for added, removed in o["deltas"]
        )


class TestAutoSwitches:
    @pytest.mark.parametrize("partitioning", ["vertical", "horizontal"])
    def test_the_stream_forces_a_switch_and_records_the_trace(
        self, partitioning, generator, relation, cfds, mds, waves,
    ):
        _, report = run_stream(
            "auto", partitioning, "cfd", "rows",
            generator, relation, cfds, mds, waves,
        )
        assert len(report.plan_trace) == len(WAVES)
        chosen = [decision.chosen for decision in report.plan_trace]
        assert len(set(chosen)) > 1, f"stream never switched: {chosen}"
        assert any(decision.switched for decision in report.plan_trace)
        for decision in report.plan_trace:
            assert decision.actual is not None
            assert decision.error is not None
            assert set(decision.estimates) == set(
                ["incVer", "ibatVer", "batVer"]
                if partitioning == "vertical"
                else ["incHor", "ibatHor", "batHor"]
            )
