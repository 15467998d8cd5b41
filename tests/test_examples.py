"""The shipped examples must run end to end and print what they promise."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES_DIR = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES_DIR / name)],
        capture_output=True,
        text=True,
        timeout=600,
        check=True,
    )
    return result.stdout


def all_example_scripts() -> list[str]:
    return sorted(p.name for p in EXAMPLES_DIR.glob("*.py"))


class TestExamples:
    def test_examples_directory_has_at_least_three_scripts(self):
        scripts = all_example_scripts()
        assert len(scripts) >= 3
        assert "quickstart.py" in scripts

    @pytest.mark.parametrize("name", all_example_scripts())
    def test_every_example_runs(self, name):
        # Docs-by-example must not silently drift from the API.
        run_example(name)

    def test_record_matching_audit(self):
        out = run_example("record_matching_audit.py")
        assert "batch audit with matching dependencies" in out
        assert "incremental audit" in out
        assert (
            "inserting another 'maria garcia' would be compared against only "
            "3 of 6 records thanks to blocking"
        ) in out

    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "centralized detection" in out
        assert "incremental detection (incVer)" in out
        assert "eqids shipped" in out

    def test_employee_audit_reproduces_example_2(self):
        out = run_example("employee_audit.py")
        assert "delta-V+ = [6]" in out
        assert "delta-V- = [4]" in out
        assert "messages shipped: 0" in out

    def test_order_stream_monitoring(self):
        out = run_example("order_stream_monitoring.py")
        assert "wave 1" in out and "wave 5" in out
        assert "incremental shipment" in out

    def test_warehouse_index_planning(self):
        out = run_example("warehouse_index_planning.py")
        assert "optVer plan" in out
        assert "identical violation sets" in out
