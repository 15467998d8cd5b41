"""Experiment runners for every figure and table of the paper's Section 7.

The paper's experiments ran on Amazon EC2 with 2M-10M tuple TPCH data
and 100K-500K tuple DBLP data.  The runner reproduces every sweep at a
configurable (laptop) scale: what is being checked is the *shape* of the
curves — incremental detection is insensitive to |D|, linear in
|delta-D| and |Sigma|, ships orders of magnitude less data than batch
detection and scales with the number of partitions — not the absolute
EC2 numbers.
"""

from __future__ import annotations

import gc
import time
from dataclasses import dataclass, field
from typing import Any, Callable

from repro.core.cfd import CFD
from repro.distributed.cluster import Cluster
from repro.distributed.network import Network
from repro.engine.registry import DEFAULT_REGISTRY
from repro.engine.session import session
from repro.experiments.metrics import ExperimentSeries
from repro.indexes.planner import HEVPlanner, naive_chain_plan
from repro.partition.replication import ReplicationScheme
from repro.workloads.dblp import DBLPGenerator
from repro.workloads.rules import generate_cfds
from repro.workloads.tpch import TPCHGenerator
from repro.workloads.updates import generate_updates


@dataclass
class RunConfig:
    """Scale knobs for the experiment sweeps.

    ``small()`` is the default used by the test-suite and the
    pytest-benchmark targets; ``report()`` is the larger scale used to
    generate ``EXPERIMENTS.md``.  The paper's own scale (millions of
    tuples) is out of reach for pure Python but the sweep structure is
    identical.
    """

    seed: int = 7
    n_partitions: int = 10
    # TPCH sweeps
    tpch_base_sizes: list[int] = field(default_factory=lambda: [200, 400, 600, 800, 1000])
    tpch_update_sizes: list[int] = field(default_factory=lambda: [100, 200, 300, 400, 500])
    tpch_cfd_counts: list[int] = field(default_factory=lambda: [5, 10, 15, 20, 25])
    tpch_fixed_base: int = 800
    tpch_fixed_updates: int = 400
    tpch_fixed_cfds: int = 10
    scaleup_partitions: list[int] = field(default_factory=lambda: [2, 4, 6, 8, 10])
    scaleup_unit: int = 150
    # DBLP sweeps
    dblp_base_size: int = 600
    dblp_update_sizes: list[int] = field(default_factory=lambda: [100, 200, 300])
    dblp_cfd_counts: list[int] = field(default_factory=lambda: [4, 8, 12, 16])
    dblp_fixed_updates: int = 200
    dblp_fixed_cfds: int = 8
    # Exp-10 crossover
    crossover_base: int = 400
    crossover_update_sizes: list[int] = field(default_factory=lambda: [100, 200, 400, 600, 800])
    # Exp-5 optimization
    optimization_cfds_tpch: int = 30
    optimization_cfds_dblp: int = 16

    @classmethod
    def small(cls) -> "RunConfig":
        """A fast configuration for tests and benchmarks (seconds, not minutes)."""
        return cls(
            tpch_base_sizes=[100, 200, 300],
            tpch_update_sizes=[50, 100, 150],
            tpch_cfd_counts=[4, 8, 12],
            tpch_fixed_base=250,
            tpch_fixed_updates=100,
            tpch_fixed_cfds=6,
            scaleup_partitions=[2, 4, 6],
            scaleup_unit=60,
            dblp_base_size=200,
            dblp_update_sizes=[40, 80, 120],
            dblp_cfd_counts=[4, 8],
            dblp_fixed_updates=60,
            dblp_fixed_cfds=4,
            crossover_base=150,
            crossover_update_sizes=[40, 80, 160, 300],
            optimization_cfds_tpch=20,
            optimization_cfds_dblp=10,
        )

    @classmethod
    def report(cls) -> "RunConfig":
        """The configuration used to generate EXPERIMENTS.md.

        The |delta-D| : |D| ratio is kept well below one for the |D|
        sweeps (as in the paper, where indices and violations exist
        before the batch arrives); the crossover experiment is the one
        that deliberately pushes |delta-D| past |D|.
        """
        return cls(
            tpch_base_sizes=[500, 1000, 2000, 3000, 4000],
            tpch_update_sizes=[100, 200, 300, 400, 500],
            tpch_cfd_counts=[5, 10, 15, 20, 25],
            tpch_fixed_base=2000,
            tpch_fixed_updates=200,
            tpch_fixed_cfds=10,
            scaleup_partitions=[2, 4, 6, 8, 10],
            scaleup_unit=200,
            dblp_base_size=1500,
            dblp_update_sizes=[100, 200, 300, 400, 500],
            dblp_cfd_counts=[4, 8, 12, 16, 20],
            dblp_fixed_updates=200,
            dblp_fixed_cfds=8,
            crossover_base=500,
            crossover_update_sizes=[100, 250, 500, 750, 1000],
            optimization_cfds_tpch=50,
            optimization_cfds_dblp=16,
        )


def _timed(fn: Callable[[], Any]) -> tuple[Any, float]:
    """``(fn(), seconds)`` with the cyclic GC paused, as :mod:`timeit`
    times: a collection that earlier allocations made due is not the
    measured work."""
    paused = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start
    finally:
        if paused:
            gc.enable()


class ExperimentRunner:
    """Runs the paper's experiments at the configured scale."""

    def __init__(self, config: RunConfig | None = None, verify: bool = True):
        self.config = config or RunConfig.small()
        #: When True every run cross-checks the incremental result against the
        #: batch result (and fails loudly on mismatch); turn off for pure timing.
        self.verify = verify

    # -- generators ------------------------------------------------------------------

    def tpch(self) -> TPCHGenerator:
        return TPCHGenerator(seed=self.config.seed)

    def dblp(self) -> DBLPGenerator:
        return DBLPGenerator(seed=self.config.seed + 1)

    def _cfds(self, generator, count: int) -> list[CFD]:
        return generate_cfds(generator.fd_specs(), count, seed=self.config.seed)

    # -- single configurations ------------------------------------------------------------

    def run_vertical(
        self,
        generator,
        n_base: int,
        n_updates: int,
        n_cfds: int,
        n_partitions: int | None = None,
        optimize: bool = False,
        insert_fraction: float = 0.8,
        include_batch: bool = True,
    ) -> dict[str, Any]:
        """One vertical-partition configuration: incremental vs batch."""
        cfg = self.config
        n_partitions = n_partitions or cfg.n_partitions
        cfds = self._cfds(generator, n_cfds)
        base = generator.relation(n_base)
        updates = generate_updates(
            base, generator, n_updates, insert_fraction=insert_fraction, seed=cfg.seed
        )
        partitioner = generator.vertical_partitioner(n_partitions)

        # Without ``optimize`` the naive chains of Fig. 6(a) replace the
        # optVer plan incVer runs by default.
        plan = None if optimize else naive_chain_plan(cfds, partitioner)
        inc = (
            session(base)
            .partition(partitioner)
            .rules(cfds)
            .strategy("incVer", plan=plan)
            .build()
        )
        delta, inc_elapsed = _timed(lambda: inc.apply(updates))
        inc_report = inc.report()

        row: dict[str, Any] = {
            "n_base": n_base,
            "n_updates": len(updates),
            "n_cfds": n_cfds,
            "n_partitions": n_partitions,
            "inc_elapsed_s": inc_elapsed,
            "inc_shipped_bytes": inc_report.bytes_shipped,
            "inc_shipped_eqids": inc_report.eqids_shipped,
            "inc_messages": inc_report.messages,
            "delta_size": delta.size(),
            "violations": len(inc.violations),
        }
        if include_batch:
            # The batch baseline is timed at the Detector protocol level so the
            # measured region is the detection itself (setup = one detect), not
            # the untimed deployment of the updated database.
            updated = updates.apply_to(base)
            bat_cluster = Cluster.from_vertical(partitioner, updated, network=Network())
            bat = DEFAULT_REGISTRY.detector("batVer").create()
            batch_result, bat_elapsed = _timed(lambda: bat.setup(bat_cluster, cfds))
            bat_stats = bat.cost_stats()
            row.update(
                {
                    "bat_elapsed_s": bat_elapsed,
                    "bat_shipped_bytes": bat_stats.bytes,
                    "bat_messages": bat_stats.messages,
                }
            )
            if self.verify and batch_result != inc.violations:
                raise AssertionError(
                    "incremental and batch detection disagree on the vertical run"
                )
        return row

    def run_horizontal(
        self,
        generator,
        n_base: int,
        n_updates: int,
        n_cfds: int,
        n_partitions: int | None = None,
        use_md5: bool = True,
        insert_fraction: float = 0.8,
        include_batch: bool = True,
    ) -> dict[str, Any]:
        """One horizontal-partition configuration: incremental vs batch."""
        cfg = self.config
        n_partitions = n_partitions or cfg.n_partitions
        cfds = self._cfds(generator, n_cfds)
        base = generator.relation(n_base)
        updates = generate_updates(
            base, generator, n_updates, insert_fraction=insert_fraction, seed=cfg.seed
        )
        partitioner = generator.horizontal_partitioner(n_partitions)

        inc = (
            session(base)
            .partition(partitioner)
            .rules(cfds)
            .strategy("incremental", use_md5=use_md5)
            .build()
        )
        delta, inc_elapsed = _timed(lambda: inc.apply(updates))
        inc_report = inc.report()

        row: dict[str, Any] = {
            "n_base": n_base,
            "n_updates": len(updates),
            "n_cfds": n_cfds,
            "n_partitions": n_partitions,
            "inc_elapsed_s": inc_elapsed,
            "inc_shipped_bytes": inc_report.bytes_shipped,
            "inc_messages": inc_report.messages,
            "delta_size": delta.size(),
            "violations": len(inc.violations),
        }
        if include_batch:
            # Timed at the protocol level, as in the vertical run.
            updated = updates.apply_to(base)
            bat_cluster = Cluster.from_horizontal(partitioner, updated, network=Network())
            bat = DEFAULT_REGISTRY.detector("batHor").create()
            batch_result, bat_elapsed = _timed(lambda: bat.setup(bat_cluster, cfds))
            bat_stats = bat.cost_stats()
            row.update(
                {
                    "bat_elapsed_s": bat_elapsed,
                    "bat_shipped_bytes": bat_stats.bytes,
                    "bat_messages": bat_stats.messages,
                }
            )
            if self.verify and batch_result != inc.violations:
                raise AssertionError(
                    "incremental and batch detection disagree on the horizontal run"
                )
        return row

    # -- Exp-1 .. Exp-4: vertical TPCH sweeps ------------------------------------------------

    def exp1_vertical_dbsize(self) -> ExperimentSeries:
        """Fig. 9(a): elapsed time vs |D|, vertical partitions."""
        cfg = self.config
        series = ExperimentSeries("Exp-1 vertical, vary |D|", "Fig. 9(a)", "n_base")
        for n_base in cfg.tpch_base_sizes:
            row = self.run_vertical(
                self.tpch(), n_base, cfg.tpch_fixed_updates, cfg.tpch_fixed_cfds
            )
            series.add_row(row)
        return series

    def exp2_vertical_updates(self) -> ExperimentSeries:
        """Fig. 9(b)/(c): elapsed time and data shipment vs |delta-D|, vertical."""
        cfg = self.config
        series = ExperimentSeries("Exp-2 vertical, vary |dD|", "Fig. 9(b)-(c)", "n_updates")
        for n_updates in cfg.tpch_update_sizes:
            row = self.run_vertical(
                self.tpch(), cfg.tpch_fixed_base, n_updates, cfg.tpch_fixed_cfds
            )
            series.add_row(row)
        return series

    def exp3_vertical_cfds(self) -> ExperimentSeries:
        """Fig. 9(d): elapsed time vs |Sigma|, vertical."""
        cfg = self.config
        series = ExperimentSeries("Exp-3 vertical, vary |Sigma|", "Fig. 9(d)", "n_cfds")
        for n_cfds in cfg.tpch_cfd_counts:
            row = self.run_vertical(
                self.tpch(), cfg.tpch_fixed_base, cfg.tpch_fixed_updates, n_cfds
            )
            series.add_row(row)
        return series

    def exp4_vertical_scaleup(self) -> ExperimentSeries:
        """Fig. 9(e): scaleup when n, |D| and |delta-D| grow together, vertical."""
        return self._scaleup(vertical=True, figure="Fig. 9(e)")

    # -- Exp-5: optimization (Fig. 10) -------------------------------------------------------------

    def exp5_optimization(self) -> ExperimentSeries:
        """Fig. 10: eqid shipments per unit update with and without optVer."""
        cfg = self.config
        series = ExperimentSeries("Exp-5 eqid shipment optimization", "Fig. 10", "dataset")
        for name, generator, n_cfds in (
            ("TPCH", self.tpch(), cfg.optimization_cfds_tpch),
            ("DBLP", self.dblp(), cfg.optimization_cfds_dblp),
        ):
            cfds = self._cfds(generator, n_cfds)
            partitioner = generator.vertical_partitioner(cfg.n_partitions)
            planner = HEVPlanner(partitioner, ReplicationScheme(partitioner))
            comparison = planner.compare(cfds)
            without = comparison["without_optimization"]
            with_opt = comparison["with_optimization"]
            series.add_row(
                {
                    "dataset": name,
                    "n_cfds": n_cfds,
                    "eqids_without_optimization": without,
                    "eqids_with_optimization": with_opt,
                    "saved_percent": 0.0
                    if without == 0
                    else round(100.0 * (without - with_opt) / without, 1),
                }
            )
        return series

    # -- Exp-6 .. Exp-9: horizontal TPCH sweeps -----------------------------------------------------

    def exp6_horizontal_dbsize(self) -> ExperimentSeries:
        """Fig. 9(f): elapsed time vs |D|, horizontal partitions."""
        cfg = self.config
        series = ExperimentSeries("Exp-6 horizontal, vary |D|", "Fig. 9(f)", "n_base")
        for n_base in cfg.tpch_base_sizes:
            row = self.run_horizontal(
                self.tpch(), n_base, cfg.tpch_fixed_updates, cfg.tpch_fixed_cfds
            )
            series.add_row(row)
        return series

    def exp7_horizontal_updates(self) -> ExperimentSeries:
        """Fig. 9(g)/(h): elapsed time and data shipment vs |delta-D|, horizontal."""
        cfg = self.config
        series = ExperimentSeries("Exp-7 horizontal, vary |dD|", "Fig. 9(g)-(h)", "n_updates")
        for n_updates in cfg.tpch_update_sizes:
            row = self.run_horizontal(
                self.tpch(), cfg.tpch_fixed_base, n_updates, cfg.tpch_fixed_cfds
            )
            series.add_row(row)
        return series

    def exp8_horizontal_cfds(self) -> ExperimentSeries:
        """Fig. 9(i): elapsed time vs |Sigma|, horizontal."""
        cfg = self.config
        series = ExperimentSeries("Exp-8 horizontal, vary |Sigma|", "Fig. 9(i)", "n_cfds")
        for n_cfds in cfg.tpch_cfd_counts:
            row = self.run_horizontal(
                self.tpch(), cfg.tpch_fixed_base, cfg.tpch_fixed_updates, n_cfds
            )
            series.add_row(row)
        return series

    def exp9_horizontal_scaleup(self) -> ExperimentSeries:
        """Fig. 9(j): scaleup when n, |D| and |delta-D| grow together, horizontal."""
        return self._scaleup(vertical=False, figure="Fig. 9(j)")

    def _scaleup(self, vertical: bool, figure: str) -> ExperimentSeries:
        cfg = self.config
        kind = "vertical" if vertical else "horizontal"
        series = ExperimentSeries(f"Scaleup ({kind})", figure, "n_partitions")
        runner = self.run_vertical if vertical else self.run_horizontal
        baseline: float | None = None
        for n_partitions in cfg.scaleup_partitions:
            size = cfg.scaleup_unit * n_partitions
            row = runner(
                self.tpch(),
                size,
                size,
                cfg.tpch_fixed_cfds,
                n_partitions=n_partitions,
                include_batch=False,
            )
            if baseline is None:
                baseline = row["inc_elapsed_s"]
            row["scaleup"] = (
                1.0 if not row["inc_elapsed_s"] else min(baseline / row["inc_elapsed_s"], 1.5)
            )
            series.add_row(row)
        return series

    # -- Exp-10: crossover against improved batch (Fig. 11) -------------------------------------------

    def exp10_crossover(self) -> ExperimentSeries:
        """Fig. 11(a)/(b): incremental vs improved batch as |delta-D| approaches |D|."""
        cfg = self.config
        series = ExperimentSeries(
            "Exp-10 incremental vs improved batch", "Fig. 11(a)-(b)", "n_updates"
        )
        generator = self.tpch()
        cfds = self._cfds(generator, cfg.tpch_fixed_cfds)
        base = generator.relation(cfg.crossover_base)
        v_part = generator.vertical_partitioner(cfg.n_partitions)
        h_part = generator.horizontal_partitioner(cfg.n_partitions)
        for n_updates in cfg.crossover_update_sizes:
            updates = generate_updates(
                base, generator, n_updates, insert_fraction=0.6, seed=cfg.seed
            )
            # vertical: incVer vs ibatVer
            inc = session(base).partition(v_part).rules(cfds).strategy("incremental").build()
            _, inc_v = _timed(lambda: inc.apply(updates))
            ibat = (
                session(base).partition(v_part).rules(cfds).strategy("improved-batch").build()
            )
            _, ibat_v = _timed(lambda: ibat.apply(updates))
            if self.verify and ibat.violations != inc.violations:
                raise AssertionError("incVer and ibatVer disagree")
            # horizontal: incHor vs ibatHor
            inc_h = session(base).partition(h_part).rules(cfds).strategy("incremental").build()
            _, inc_h_t = _timed(lambda: inc_h.apply(updates))
            ibat_h = (
                session(base).partition(h_part).rules(cfds).strategy("improved-batch").build()
            )
            _, ibat_h_t = _timed(lambda: ibat_h.apply(updates))
            if self.verify and ibat_h.violations != inc_h.violations:
                raise AssertionError("incHor and ibatHor disagree")
            series.add_row(
                {
                    "n_base": cfg.crossover_base,
                    "n_updates": len(updates),
                    "incVer_elapsed_s": inc_v,
                    "ibatVer_elapsed_s": ibat_v,
                    "incHor_elapsed_s": inc_h_t,
                    "ibatHor_elapsed_s": ibat_h_t,
                }
            )
        return series

    # -- DBLP sweeps (Fig. 9(k)/(l)) -----------------------------------------------------------------------

    def exp11_dblp(self) -> tuple[ExperimentSeries, ExperimentSeries]:
        """Fig. 9(k)/(l): vary |delta-D| and |Sigma| on the DBLP workload (vertical)."""
        cfg = self.config
        updates_series = ExperimentSeries(
            "Exp-DBLP vertical, vary |dD|", "Fig. 9(k)", "n_updates"
        )
        for n_updates in cfg.dblp_update_sizes:
            row = self.run_vertical(
                self.dblp(), cfg.dblp_base_size, n_updates, cfg.dblp_fixed_cfds
            )
            updates_series.add_row(row)
        cfd_series = ExperimentSeries(
            "Exp-DBLP vertical, vary |Sigma|", "Fig. 9(l)", "n_cfds"
        )
        for n_cfds in cfg.dblp_cfd_counts:
            row = self.run_vertical(
                self.dblp(), cfg.dblp_base_size, cfg.dblp_fixed_updates, n_cfds
            )
            cfd_series.add_row(row)
        return updates_series, cfd_series

    # -- ablations ---------------------------------------------------------------------------------------------

    def ablation_md5(self) -> ExperimentSeries:
        """MD5 tuple coding vs full-tuple shipping (horizontal broadcasts)."""
        cfg = self.config
        series = ExperimentSeries("Ablation: MD5 tuple coding", "Section 6", "mode")
        for label, use_md5 in (("md5", True), ("full_tuple", False)):
            row = self.run_horizontal(
                self.tpch(),
                cfg.tpch_fixed_base,
                cfg.tpch_fixed_updates,
                cfg.tpch_fixed_cfds,
                use_md5=use_md5,
                include_batch=False,
            )
            row["mode"] = label
            series.add_row(row)
        return series

    def ablation_optimized_plan(self) -> ExperimentSeries:
        """Naive HEV chains vs optVer plan inside the full incVer pipeline."""
        cfg = self.config
        series = ExperimentSeries("Ablation: HEV plan", "Section 5", "mode")
        for label, optimize in (("naive_chains", False), ("optVer", True)):
            row = self.run_vertical(
                self.tpch(),
                cfg.tpch_fixed_base,
                cfg.tpch_fixed_updates,
                cfg.optimization_cfds_tpch,
                optimize=optimize,
                include_batch=False,
            )
            row["mode"] = label
            series.add_row(row)
        return series
