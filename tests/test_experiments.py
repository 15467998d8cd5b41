"""Smoke and shape tests for the experiment harness."""

import pytest

from repro.experiments.metrics import ExperimentSeries, render_table, speedup
from repro.experiments.runner import ExperimentRunner, RunConfig


@pytest.fixture(scope="module")
def runner():
    config = RunConfig(
        tpch_base_sizes=[60, 120],
        tpch_update_sizes=[30, 60],
        tpch_cfd_counts=[3, 6],
        tpch_fixed_base=100,
        tpch_fixed_updates=40,
        tpch_fixed_cfds=4,
        scaleup_partitions=[2, 4],
        scaleup_unit=40,
        dblp_base_size=80,
        dblp_update_sizes=[20, 40],
        dblp_cfd_counts=[3, 5],
        dblp_fixed_updates=30,
        dblp_fixed_cfds=4,
        crossover_base=60,
        crossover_update_sizes=[20, 120],
        optimization_cfds_tpch=20,
        optimization_cfds_dblp=10,
    )
    return ExperimentRunner(config)


class TestMetrics:
    def test_series_columns_and_markdown(self):
        series = ExperimentSeries("exp", "Fig. X", "n")
        series.add_row({"n": 1, "t": 0.5})
        series.add_row({"n": 2, "t": 1.0, "extra": "x"})
        assert series.columns() == ["n", "t", "extra"]
        md = series.as_markdown()
        assert "| n | t | extra |" in md
        assert "Fig. X" in md

    def test_render_table_empty(self):
        assert "(no data)" in render_table([], title="T")

    def test_speedup(self):
        rows = [{"fast": 1.0, "slow": 10.0}, {"fast": 0.0, "slow": 5.0}]
        ratios = speedup(rows, "fast", "slow")
        assert ratios[0] == 10.0
        assert ratios[1] == float("inf")


class TestRunnerShapes:
    def test_exp1_incremental_insensitive_to_db_size(self, runner):
        series = runner.exp1_vertical_dbsize()
        inc_bytes = series.column("inc_shipped_bytes")
        bat_bytes = series.column("bat_shipped_bytes")
        # Incremental shipment does not grow with |D|; batch shipment does.
        assert inc_bytes[0] == inc_bytes[-1]
        assert bat_bytes[-1] > bat_bytes[0]

    def test_exp2_incremental_shipment_grows_with_updates(self, runner):
        series = runner.exp2_vertical_updates()
        inc_bytes = series.column("inc_shipped_bytes")
        assert inc_bytes[-1] > inc_bytes[0]

    def test_exp5_optimization_saves_eqids(self, runner):
        series = runner.exp5_optimization()
        for row in series.rows:
            assert row["eqids_with_optimization"] <= row["eqids_without_optimization"]
        assert any(row["saved_percent"] > 0 for row in series.rows)

    def test_exp6_horizontal_incremental_insensitive_to_db_size(self, runner):
        series = runner.exp6_horizontal_dbsize()
        inc_msgs = series.column("inc_messages")
        bat_bytes = series.column("bat_shipped_bytes")
        # Incremental messages do not grow with |D| while batch shipment does.
        assert inc_msgs[-1] <= inc_msgs[0]
        assert bat_bytes[-1] > bat_bytes[0]

    def test_exp7_horizontal_shipment_grows_with_updates(self, runner):
        series = runner.exp7_horizontal_updates()
        assert series.column("inc_messages")[-1] >= series.column("inc_messages")[0]

    def test_exp10_crossover_ratio_worsens_with_update_size(self, runner):
        series = runner.exp10_crossover()
        first, last = series.rows[0], series.rows[-1]
        ratio_first = first["incVer_elapsed_s"] / first["ibatVer_elapsed_s"]
        ratio_last = last["incVer_elapsed_s"] / last["ibatVer_elapsed_s"]
        # Relative advantage of incremental detection shrinks as |dD| approaches |D|.
        assert ratio_last > ratio_first

    def test_scaleup_values_are_positive(self, runner):
        series = runner.exp4_vertical_scaleup()
        assert all(row["scaleup"] > 0 for row in series.rows)

    def test_dblp_series_have_rows(self, runner):
        updates_series, cfd_series = runner.exp11_dblp()
        assert len(updates_series.rows) == 2
        assert len(cfd_series.rows) == 2

    def test_ablation_md5_reduces_bytes(self, runner):
        series = runner.ablation_md5()
        by_mode = {row["mode"]: row for row in series.rows}
        assert by_mode["md5"]["inc_shipped_bytes"] <= by_mode["full_tuple"]["inc_shipped_bytes"]

    def test_ablation_naive_chains_ship_more_eqids_than_optver(self, runner):
        series = runner.ablation_optimized_plan()
        by_mode = {row["mode"]: row for row in series.rows}
        naive, optimized = by_mode["naive_chains"], by_mode["optVer"]
        assert naive["inc_shipped_eqids"] > optimized["inc_shipped_eqids"]
        assert naive["violations"] == optimized["violations"]

    def test_run_vertical_verifies_against_batch(self, runner):
        row = runner.run_vertical(runner.tpch(), 60, 30, 4)
        assert row["violations"] >= 0
        assert "bat_elapsed_s" in row
