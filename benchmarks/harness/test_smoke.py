"""The harness itself is testable: every workload at ``--smoke`` sizes.

Not part of the tier-1 suite (``testpaths = ["tests"]``); run it with
``python -m pytest benchmarks/harness/test_smoke.py``.  Each case is one
fresh process of the driver's form of the command, so it also pins the
final JSON line's shape against ``BENCHMARK.json``.
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(workload: str, trace: int, *extra: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "11",
         "--seconds", "1", "--trace", str(trace), "--smoke", *extra],
        capture_output=True, text=True, timeout=60, check=False,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_run_reports_every_metric_and_passes_its_checks(workload):
    result = run(workload, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    for metric in SPEC["end_to_end"]:
        reported = result["metrics"][metric["name"]]
        assert reported["unit"] == metric["unit"]
        assert reported["value"] > 0, metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_layer_metric_and_writes_the_trace(workload, tmp_path):
    result = run(workload, 1, "--out", str(tmp_path))
    assert result["correct"] is True
    assert list(result["metrics"]) == [m["name"] for m in SPEC["per_layer"]]
    value = {name: m["value"] for name, m in result["metrics"].items()}
    assert value["obs.dropped_spans"] == 0 and value["obs.spans"] > 0
    assert value["engine.apply_s"] > 0 and value["workloads.generate_s"] > 0
    assert value["runtime.bytes_pickled"] == 0  # serial executor
    # A layer the workload bypasses reads zero; the one it exists for does not.
    if workload == "service-mixed":
        assert value["service.windows"] > 0 and value["planner.decisions"] > 0
    else:
        assert value["service.windows"] == 0 and value["planner.decisions"] == 0
    if workload == "ver-trickle":
        assert value["indexes.hev_eval_keys"] > 0 and value["horizontal.site_task_s"] == 0
    if workload == "bulk-recheck":
        assert value["columnar.sweep_items"] > 0 and value["sqlstore.queries"] > 0
    records = [
        json.loads(line)
        for line in (tmp_path / f"trace-{workload}.jsonl").read_text().splitlines()
    ]
    assert len(records) == value["obs.spans"]
    assert len({r["run_id"] for r in records}) == 1
    names = {r["name"] for r in records}
    assert {"harness.run", "harness.generate", "session.build", "wave.apply"} <= names
