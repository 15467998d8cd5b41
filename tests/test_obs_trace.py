"""Hierarchical tracing: span trees, context propagation, JSONL export.

The tracer's contract with the engine:

* a traced session produces one ``session`` root covering ≥95% of the
  session's measured wall-clock, with ``session.build`` and one
  ``wave.apply`` per batch nested under it;
* per-site tasks appear as ``site.task[i]`` children of their wave;
* spans round-trip through the JSONL exporter byte-identically;
* still-open spans export as ``status="open"`` snapshots;
* a disabled tracer (or no observability at all) leaves behavior and
  results untouched.
"""

import json

import pytest

from repro.engine.session import session
from repro.obs import Observability, Span, Tracer
from repro.obs.trace import maybe_span, span_if
from repro.workloads.rules import generate_cfds
from repro.workloads.tpch import TPCHGenerator
from repro.workloads.updates import generate_updates

SEED = 19
N_BASE = 80
N_UPDATES = 40
N_CFDS = 4
N_SITES = 3


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


def run_traced(relation, cfds, updates, generator, strategy="batHor"):
    obs = Observability()
    sess = (
        session(relation)
        .partition(generator.horizontal_partitioner(N_SITES))
        .rules(cfds)
        .strategy(strategy)
        .observability(obs, name="traced")
        .build()
    )
    sess.apply(updates)
    report = sess.report()
    sess.close()
    return obs, report


class TestTracerUnit:
    def test_nested_spans_form_a_tree(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert inner.trace_id == outer.trace_id
        assert outer.parent_id is None
        assert [s.name for s in tracer.roots()] == ["outer"]
        assert [s.name for s in tracer.children_of(outer)] == ["inner"]

    def test_explicit_parent_overrides_ambient(self):
        tracer = Tracer()
        root = tracer.start_span("root")
        with tracer.span("ambient"):
            with tracer.span("pinned", parent=root) as pinned:
                pass
        tracer.end_span(root)
        assert pinned.parent_id == root.span_id

    def test_error_in_body_marks_span_status(self):
        tracer = Tracer()
        with pytest.raises(RuntimeError):
            with tracer.span("failing"):
                raise RuntimeError("boom")
        (span,) = tracer.find("failing")
        assert span.status == "error"

    def test_open_spans_export_as_snapshots(self):
        tracer = Tracer()
        root = tracer.start_span("long-running")
        snapshots = [s for s in tracer.spans() if s.status == "open"]
        assert [s.name for s in snapshots] == ["long-running"]
        assert tracer.spans(include_open=False) == []
        tracer.end_span(root)
        assert [s.status for s in tracer.spans()] == ["ok"]

    def test_disabled_tracer_records_nothing(self):
        tracer = Tracer(enabled=False)
        with tracer.span("ignored") as span:
            assert span is None
        assert tracer.start_span("ignored") is None
        assert tracer.spans() == []

    def test_max_spans_drops_and_counts(self):
        tracer = Tracer(max_spans=2)
        for i in range(4):
            with tracer.span(f"s{i}"):
                pass
        assert len(tracer.spans()) == 2
        assert tracer.dropped == 2

    def test_span_if_and_maybe_span_are_noops_without_a_tracer(self):
        with span_if(None, "nothing") as span:
            assert span is None
        with maybe_span("nothing") as span:
            assert span is None

    def test_maybe_span_attaches_under_the_ambient_tracer(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with maybe_span("leaf") as leaf:
                pass
        assert leaf.parent_id == outer.span_id

    def test_jsonl_round_trip(self, tmp_path):
        tracer = Tracer()
        with tracer.span("outer", answer=42):
            with tracer.span("inner", tag="x"):
                pass
        path = tmp_path / "trace.jsonl"
        written = tracer.export_jsonl(path)
        assert written == 2
        loaded = Tracer.import_jsonl(path)
        original = sorted(tracer.spans(), key=lambda s: s.span_id)
        restored = sorted(loaded, key=lambda s: s.span_id)
        assert [s.as_dict() for s in original] == [s.as_dict() for s in restored]
        # Each line is standalone JSON.
        for line in path.read_text().splitlines():
            record = json.loads(line)
            assert Span.from_dict(record).as_dict() == record


class TestSessionTracing:
    def test_site_tasks_nest_under_their_wave(
        self, generator, relation, cfds, updates
    ):
        obs, _report = run_traced(relation, cfds, updates, generator)
        (wave,) = obs.tracer.find("wave.apply")
        task_children = [
            s
            for s in obs.tracer.children_of(wave)
            if s.name.startswith("site.task[")
        ]
        assert len(task_children) == N_SITES
        assert {s.attrs["site"] for s in task_children} == set(range(N_SITES))
        for child in task_children:
            assert child.trace_id == wave.trace_id
            assert child.status == "ok"

    def test_root_span_covers_the_sessions_wall_time(
        self, generator, relation, cfds, updates
    ):
        obs, report = run_traced(relation, cfds, updates, generator)
        (root,) = obs.tracer.find("session")
        assert root.status == "ok"  # closed at session.close()
        assert report.wall_seconds > 0.0
        assert root.duration >= 0.95 * report.wall_seconds

    def test_session_tree_has_build_and_wave_and_shipment(
        self, generator, relation, cfds, updates
    ):
        obs, report = run_traced(relation, cfds, updates, generator)
        (root,) = obs.tracer.find("session")
        child_names = {s.name for s in obs.tracer.children_of(root)}
        assert {"session.build", "wave.apply"} <= child_names
        (wave,) = obs.tracer.find("wave.apply")
        (shipment,) = obs.tracer.find("shipment")
        assert shipment.parent_id == wave.span_id
        assert shipment.attrs["net_messages"] > 0
        assert sum(shipment.attrs["units_by_kind"].values()) > 0
        assert wave.attrs["updates"] == N_UPDATES
        assert root.attrs["strategy"] == "batHor"

    def test_report_carries_the_trace(
        self, generator, relation, cfds, updates
    ):
        obs, report = run_traced(relation, cfds, updates, generator)
        assert len(report.trace) == len(obs.tracer.spans())
        names = {record["name"] for record in report.trace}
        assert {"session", "session.build", "wave.apply"} <= names
        # Records are JSON-ready.
        json.dumps(report.trace)
        assert "trace" in report.as_dict()

    def test_plan_decide_span_appears_for_auto(
        self, generator, relation, cfds, updates
    ):
        obs, _report = run_traced(relation, cfds, updates, generator, strategy="auto")
        decides = obs.tracer.find("plan.decide")
        assert decides
        (wave,) = obs.tracer.find("wave.apply")
        assert decides[0].parent_id == wave.span_id
        assert "chosen" in decides[0].attrs

    def test_untraced_session_matches_traced_results(
        self, generator, relation, cfds, updates
    ):
        obs, traced = run_traced(relation, cfds, updates, generator)
        plain = (
            session(relation)
            .partition(generator.horizontal_partitioner(N_SITES))
            .rules(cfds)
            .strategy("batHor")
            .build()
        )
        plain.apply(updates)
        untraced = plain.report()
        plain.close()
        assert untraced.trace == ()
        assert traced.network.bytes == untraced.network.bytes
        assert traced.network.messages == untraced.network.messages
        assert traced.violations == untraced.violations

    def test_explain_reports_observability_state(
        self, generator, relation, cfds, updates
    ):
        obs = Observability()
        sess = (
            session(relation)
            .partition(generator.horizontal_partitioner(N_SITES))
            .rules(cfds)
            .strategy("batHor")
            .observability(obs, name="explained")
            .build()
        )
        sess.apply(updates)
        info = sess.explain()
        sess.close()
        assert info["session"] == "explained"
        assert info["observability"]["attached"] is True
        assert info["observability"]["tracing"] is True
        assert info["observability"]["spans"] > 0
        assert info["network"]["messages"] > 0
        json.dumps(info)
