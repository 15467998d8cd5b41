"""Storage layout: rows vs columnar on the exp01/exp06-style sweeps.

Two measurements per database size, each run on both storage backends:

* the batch-horizontal detection of Exp-6 (Fig. 9(f)), split into the
  *local-check+scan phase* (the per-site busy seconds from the
  scheduler ledger — where the vectorized kernels act) and the full
  detection wall-clock;
* the batch-vertical detection of Exp-1 (Fig. 9(a)) wall-clock, whose
  shipment planning runs as column sweeps with cached per-code sizes.

For every configuration the script verifies the two backends produce
the identical violation set and identical shipment counters, reports
the speedups, records what shipping each fragment wholesale would cost
under the row encoding vs the dictionary-encoded column blocks of
``repro.distributed.serialization``, and writes everything to
``BENCH_storage_layout.json``.

The kernel win is a constant-factor (single-core) win, so it does not
need multiple CPU cores; the targets at the largest size are ≥1.5x on
the batch-horizontal local-check+scan phase and ≥1.0x on its wall-clock
(columnar batHor no slower than rows end to end).

Run directly: ``python benchmarks/bench_storage_layout.py``
(``--sizes N N ...`` overrides the sweep, ``--rounds K`` the repetitions).
"""

from __future__ import annotations

import argparse
import os
import time

import bench_utils as bu
from repro.distributed.cluster import Cluster
from repro.distributed.network import Network
from repro.distributed.serialization import estimate_relation_bytes
from repro.horizontal.bathor import HorizontalBatchDetector
from repro.runtime.scheduler import SiteScheduler
from repro.vertical.batver import VerticalBatchDetector

SIZES = (500, 1000, 2000, 4000)
STORAGES = ("rows", "columnar")
N_CFDS = 10
N_SITES = 8


def measure_bathor(relation, cfds, partitioner, rounds):
    """Best-of-``rounds`` (wall seconds, scan-phase seconds) for one batHor run."""
    best = (float("inf"), float("inf"))
    outcome = None
    for _ in range(rounds):
        scheduler = SiteScheduler()
        cluster = Cluster.from_horizontal(
            partitioner, relation, network=Network(), scheduler=scheduler
        )
        detector = HorizontalBatchDetector(cluster, cfds)
        start = time.perf_counter()
        violations = detector.detect()
        elapsed = time.perf_counter() - start
        scan = scheduler.timings().busy_seconds
        if elapsed < best[0]:
            best = (elapsed, scan)
            outcome = (violations, cluster.network.stats())
    return best, outcome


def measure_batver(relation, cfds, partitioner, rounds):
    """Best-of-``rounds`` wall seconds for one batVer run."""
    best = float("inf")
    outcome = None
    for _ in range(rounds):
        cluster = Cluster.from_vertical(partitioner, relation, network=Network())
        detector = VerticalBatchDetector(cluster, cfds)
        start = time.perf_counter()
        violations = detector.detect()
        best = min(best, time.perf_counter() - start)
        outcome = (violations, cluster.network.stats())
    return best, outcome


def fragment_ship_bytes(relation, partitioner):
    """What shipping every fragment wholesale would cost, per encoding."""
    partition = partitioner.fragment(relation)
    return sum(
        estimate_relation_bytes(partition.fragment_at(site))
        for site in partition.sites()
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--rounds", type=int, default=3, help="repetitions per cell")
    args = parser.parse_args(argv)

    print(f"storage layout: rows vs columnar, {N_SITES} sites, {N_CFDS} CFDs")
    cfds = bu.tpch_cfds(N_CFDS)
    hor = bu.tpch().horizontal_partitioner(N_SITES)
    ver = bu.tpch().vertical_partitioner(N_SITES)

    records = []
    scan_speedup_by_size = {}
    wall_speedup_by_size = {}
    for n in args.sizes:
        base = bu.tpch_relation(n)
        relations = {"rows": base, "columnar": base.with_storage("columnar")}
        cells = {}
        for storage in STORAGES:
            relation = relations[storage]
            (wall, scan), hor_outcome = measure_bathor(relation, cfds, hor, args.rounds)
            ver_wall, ver_outcome = measure_batver(relation, cfds, ver, args.rounds)
            ship = fragment_ship_bytes(relation, hor)
            cells[storage] = {
                "bathor_wall": wall,
                "bathor_scan": scan,
                "batver_wall": ver_wall,
                "fragment_ship_bytes": ship,
                "hor_outcome": hor_outcome,
                "ver_outcome": ver_outcome,
            }
        for kind in ("hor_outcome", "ver_outcome"):
            rows_violations, rows_stats = cells["rows"][kind]
            col_violations, col_stats = cells["columnar"][kind]
            assert col_violations == rows_violations, (
                f"columnar violations diverge from rows at n={n} ({kind})"
            )
            assert (col_stats.messages, col_stats.bytes, col_stats.units_by_kind) == (
                rows_stats.messages,
                rows_stats.bytes,
                rows_stats.units_by_kind,
            ), f"columnar shipments diverge from rows at n={n} ({kind})"
        scan_speedup = cells["rows"]["bathor_scan"] / cells["columnar"]["bathor_scan"]
        wall_speedup = cells["rows"]["bathor_wall"] / cells["columnar"]["bathor_wall"]
        ver_speedup = cells["rows"]["batver_wall"] / cells["columnar"]["batver_wall"]
        ship_ratio = (
            cells["rows"]["fragment_ship_bytes"]
            / cells["columnar"]["fragment_ship_bytes"]
        )
        scan_speedup_by_size[n] = scan_speedup
        wall_speedup_by_size[n] = wall_speedup
        print(
            f"  n={n:>5}  batHor scan {scan_speedup:4.2f}x  wall {wall_speedup:4.2f}x  "
            f"batVer wall {ver_speedup:4.2f}x  fragment bytes {ship_ratio:4.2f}x smaller"
        )
        for storage in STORAGES:
            cell = cells[storage]
            records.append(
                {
                    "n_tuples": n,
                    "n_sites": N_SITES,
                    "n_cfds": N_CFDS,
                    "storage": storage,
                    "bathor_scan_seconds": cell["bathor_scan"],
                    "bathor_wall_seconds": cell["bathor_wall"],
                    "batver_wall_seconds": cell["batver_wall"],
                    "fragment_ship_bytes": cell["fragment_ship_bytes"],
                    "bathor_scan_speedup_vs_rows": (
                        cells["rows"]["bathor_scan"] / cell["bathor_scan"]
                    ),
                    "bathor_wall_speedup_vs_rows": (
                        cells["rows"]["bathor_wall"] / cell["bathor_wall"]
                    ),
                }
            )

    path = bu.write_bench_json(
        "storage_layout",
        records,
        extra={"cpu_count": os.cpu_count() or 1, "rounds": args.rounds},
    )
    print(f"benchmark results written to {path}")
    status = 0
    if scan_speedup_by_size:
        largest = max(scan_speedup_by_size)
        for what, by_size, target in (
            ("local-check+scan", scan_speedup_by_size, 1.5),
            ("wall-clock", wall_speedup_by_size, 1.0),
        ):
            if by_size[largest] < target:
                print(
                    f"WARNING: batHor {what} speedup {by_size[largest]:.2f}x at the "
                    f"largest size (n={largest}) is below the {target}x target"
                )
                status = 1
    return status


if __name__ == "__main__":
    raise SystemExit(main())
