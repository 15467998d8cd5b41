"""SQL pushdown: set-oriented checks, out-of-core RSS, backend-aware auto.

Three measurements, one gate each, written to ``BENCH_sql_pushdown.json``:

* **Pushdown speedup** — per database size, the CFD violation checks
  the ``batHor``/``batVer`` site tasks run (constant WHERE filters and
  the grouped two-query variable formulation) executed inside SQLite
  versus fetching every row out of SQLite into the Python row path.
  Gate (a): >=2x faster at the largest swept size.  The batVer-style
  shipment scans (pattern-filtered projections) are reported alongside;
  they are decode-bound, so their win is smaller.

* **Out-of-core RSS** — one subprocess per backend streams the same
  tuple stream into a relation and runs the checks; the child reports
  its own ``ru_maxrss``.  Gate (b): the file-backed ``sql`` backend
  peaks >=1.5x lower than each in-memory backend (``rows``,
  ``columnar``); the ``:memory:`` SQL engine is reported alongside.

* **Backend-aware auto** — the Exp-10 crossover sweep with the fixed
  (strategy, backend) grid and ``auto`` choosing both strategy and
  backend (``backends=["rows", "sql"]``).  Gate (c): auto ships at most
  1.10x the best fixed combination at both sweep extremes.

Run directly: ``python benchmarks/bench_sql_pushdown.py`` (``--sizes``,
``--rss-rows``, ``--base``, ``--updates`` shrink or grow the sweeps;
``--no-gate`` reports without failing).
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import bench_utils as bu
from repro.core.cfd import UNNAMED
from repro.core.detector import CentralizedDetector
from repro.distributed.serialization import PriceTable, estimate_tuple_bytes
from repro.engine.session import session
from repro.rulefuse import FusedGroup

SIZES = (2000, 6000, 12000)
N_CFDS = 6
RSS_ROWS = 60000
RSS_CHUNK = 2000
RSS_BACKENDS = ("rows", "columnar", "sql-memory", "sql-file")
CROSSOVER_SITES = 4
GATE_SPEEDUP = 2.0
GATE_RSS = 1.5
GATE_AUTO = 1.10


# -- gate (a): pushed-down checks vs fetch-into-Python ----------------------------------


def _ship_specs(cfds):
    """(cfd, relevant attrs, LHS pattern constants) per rule — the batVer
    constant-check shipment shape."""
    return [
        (
            cfd,
            tuple(cfd.attributes),
            {a: v for a, v in cfd.pattern.entries if v is not UNNAMED and a in cfd.lhs},
        )
        for cfd in cfds
    ]


def measure_pushdown(n, cfds, rounds):
    """Best-of-``rounds`` seconds for checks and scans, pushed vs fetched."""
    rel_sql = bu.tpch_relation(n).with_storage("sql")
    store = rel_sql.store
    det = CentralizedDetector(list(cfds))
    specs = _ship_specs(cfds)
    # One group per rule, in rule order: one pushed-down query per check.
    groups = [FusedGroup(cfd.lhs, (cfd,), (i,)) for i, cfd in enumerate(cfds)]

    # Warm the statement caches so the sweep times steady-state checks.
    store.check(groups)

    best = {"check_push": float("inf"), "check_fetch": float("inf"),
            "scan_push": float("inf"), "scan_fetch": float("inf")}
    push_checks = fetch_checks = None
    for _ in range(rounds):
        start = time.perf_counter()
        push_checks = [store.tids_of(found) for found in store.check(groups)]
        best["check_push"] = min(best["check_push"], time.perf_counter() - start)

        start = time.perf_counter()
        prices = PriceTable()
        push_scans = [
            store.ship_scan(relevant, constants, prices)
            for _, relevant, constants in specs
        ]
        best["scan_push"] = min(best["scan_push"], time.perf_counter() - start)

        start = time.perf_counter()
        rows = list(rel_sql)  # fetch every tuple out of the engine
        fetch_checks = [det.violations_of(cfd, rows) for cfd in cfds]
        best["check_fetch"] = min(best["check_fetch"], time.perf_counter() - start)

        start = time.perf_counter()
        rows = list(rel_sql)
        fetch_scans = [
            [
                estimate_tuple_bytes(t, relevant)
                for t in rows
                if all(t[a] == v for a, v in constants.items())
            ]
            for _, relevant, constants in specs
        ]
        best["scan_fetch"] = min(best["scan_fetch"], time.perf_counter() - start)

        assert [set(v) for v in push_checks] == [set(v) for v in fetch_checks]
        assert push_scans == [(len(scan), sum(scan)) for scan in fetch_scans]
    return best


# -- gate (b): out-of-core RSS ----------------------------------------------------------


def child_main(backend: str, n_rows: int, directory: str) -> int:
    """Stream ``n_rows`` into one backend, run the checks, report peak RSS."""
    from repro.core.relation import Relation
    from repro.sqlstore import configure

    if backend == "sql-file":
        configure(directory=directory)
    storage = "sql" if backend.startswith("sql") else backend
    generator = bu.tpch()
    schema = generator.relation(1).schema
    relation = Relation(schema, storage=storage)
    for start in range(1, n_rows + 1, RSS_CHUNK):
        for t in generator.tuples(start, min(RSS_CHUNK, n_rows + 1 - start)):
            relation.insert(t)
    detector = CentralizedDetector(list(bu.tpch_cfds(N_CFDS)))
    n_violations = sum(
        len(detector.violations_of(cfd, relation)) for cfd in bu.tpch_cfds(N_CFDS)
    )
    print(json.dumps({
        "backend": backend,
        "n_rows": n_rows,
        "n_violations": n_violations,
        "peak_memory": bu.peak_memory(),
    }))
    return 0


def measure_rss(n_rows):
    """Run every backend in its own interpreter; collect peak RSS."""
    script = Path(__file__).resolve()
    out = {}
    with tempfile.TemporaryDirectory(prefix="sqlstore_bench_") as tmp:
        for backend in RSS_BACKENDS:
            proc = subprocess.run(
                [sys.executable, str(script), "--child", backend,
                 "--rss-rows", str(n_rows), "--dir", tmp],
                capture_output=True, text=True, timeout=1800,
            )
            if proc.returncode != 0:
                raise RuntimeError(
                    f"RSS child for {backend!r} failed:\n{proc.stderr}"
                )
            out[backend] = json.loads(proc.stdout.strip().splitlines()[-1])
    reference = {r["n_violations"] for r in out.values()}
    assert len(reference) == 1, f"backends disagree on violations: {out}"
    return out


# -- gate (c): backend-aware auto on the crossover sweep --------------------------------


def measure_auto_point(generator, relation, cfds, partitioning, strategy, updates,
                       storage=None, backends=None):
    """Shipped bytes for one (strategy, backend) cell, batch-only costs."""
    partitioner = (
        generator.vertical_partitioner(CROSSOVER_SITES)
        if partitioning == "vertical"
        else generator.horizontal_partitioner(CROSSOVER_SITES)
    )
    builder = session(relation).partition(partitioner).rules(list(cfds))
    if strategy == "auto":
        builder = builder.strategy("auto", backends=list(backends or ["rows"]))
    else:
        builder = builder.strategy(strategy)
    if storage:
        builder = builder.storage(storage)
    sess = builder.build()
    sess.reset_costs()
    sess.apply(updates)
    report = sess.report()
    record = {
        "partitioning": partitioning,
        "strategy": strategy,
        "storage": storage or report.storage,
        "n_updates": len(updates),
        "bytes": report.bytes_shipped,
        "messages": report.messages,
        "violations": {
            str(tid): sorted(report.violations.cfds_of(tid))
            for tid in report.violations.tids()
        },
    }
    if report.plan_trace:
        decision = report.plan_trace[0]
        record["chosen"] = decision.chosen
        record["chosen_backend"] = decision.backend
    sess.close()
    return record


def run_auto_sweep(base, update_sizes, cfds):
    generator = bu.tpch()
    relation = bu.tpch_relation(base)
    grid = {
        "vertical": ["incVer", "batVer"],
        "horizontal": ["incHor", "batHor"],
    }
    records, gate_results, failures = [], [], []
    for partitioning, strategies in grid.items():
        points = []
        for n in update_sizes:
            updates = bu.tpch_updates(base, n, insert_fraction=0.6)
            for strategy in strategies:
                for storage in ("rows", "sql"):
                    points.append(measure_auto_point(
                        generator, relation, cfds, partitioning, strategy,
                        updates, storage=storage,
                    ))
            points.append(measure_auto_point(
                generator, relation, cfds, partitioning, "auto", updates,
                backends=["rows", "sql"],
            ))
        for n in update_sizes:
            group = [p for p in points if p["n_updates"] == n]
            reference = group[0]["violations"]
            for p in group[1:]:
                if p["violations"] != reference:
                    failures.append(
                        f"{partitioning} n={n}: {p['strategy']}/{p['storage']} "
                        f"violations diverge"
                    )
        for n in (min(update_sizes), max(update_sizes)):
            group = [p for p in points if p["n_updates"] == n]
            best = min(p["bytes"] for p in group if p["strategy"] != "auto")
            auto_bytes = next(p["bytes"] for p in group if p["strategy"] == "auto")
            ok = auto_bytes <= GATE_AUTO * best
            gate_results.append({
                "partitioning": partitioning,
                "n_updates": n,
                "auto_bytes": auto_bytes,
                "best_fixed_bytes": best,
                "factor": auto_bytes / best if best else None,
                "ok": ok,
            })
            if not ok:
                failures.append(
                    f"{partitioning} n={n}: auto shipped {auto_bytes}B, over "
                    f"{GATE_AUTO:.2f}x the best fixed combination ({best}B)"
                )
        records.extend(points)
    for record in records:
        record.pop("violations")
    return records, gate_results, failures


# -- entry point ------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--rss-rows", type=int, default=RSS_ROWS)
    parser.add_argument("--base", type=int, default=bu.CROSSOVER_BASE)
    parser.add_argument("--updates", type=int, nargs="+", default=list(bu.CROSSOVER_UPDATES))
    parser.add_argument("--no-gate", action="store_true")
    parser.add_argument("--skip-rss", action="store_true",
                        help="skip the subprocess RSS sweep (smoke runs)")
    parser.add_argument("--child", help="internal: run one RSS child backend")
    parser.add_argument("--dir", help="internal: RSS child database directory")
    args = parser.parse_args(argv)

    if args.child:
        return child_main(args.child, args.rss_rows, args.dir or tempfile.gettempdir())

    cfds = bu.tpch_cfds(N_CFDS)
    failures = []
    records = []

    print(f"pushdown checks vs fetch-to-Python ({N_CFDS} CFDs):")
    check_speedups = {}
    for n in args.sizes:
        cell = measure_pushdown(n, cfds, args.rounds)
        check = cell["check_fetch"] / cell["check_push"]
        scan = cell["scan_fetch"] / cell["scan_push"]
        check_speedups[n] = check
        print(f"  n={n:>6}  checks {check:4.2f}x  ship scans {scan:4.2f}x")
        records.append({
            "kind": "pushdown", "n_tuples": n,
            "check_pushdown_seconds": cell["check_push"],
            "check_fetch_seconds": cell["check_fetch"],
            "check_speedup": check,
            "scan_pushdown_seconds": cell["scan_push"],
            "scan_fetch_seconds": cell["scan_fetch"],
            "scan_speedup": scan,
        })
    largest = max(check_speedups)
    if check_speedups[largest] < GATE_SPEEDUP:
        failures.append(
            f"pushdown checks {check_speedups[largest]:.2f}x at n={largest}, "
            f"below the {GATE_SPEEDUP:.1f}x gate"
        )

    rss_gate = []
    if not args.skip_rss:
        print(f"out-of-core RSS at {args.rss_rows} rows:")
        rss = measure_rss(args.rss_rows)
        file_rss = rss["sql-file"]["peak_memory"]["max_rss_bytes"]
        for backend in RSS_BACKENDS:
            peak = rss[backend]["peak_memory"]["max_rss_bytes"]
            ratio = peak / file_rss
            gated = backend in ("rows", "columnar")
            print(f"  {backend:<11} {peak / 2**20:7.1f} MiB  "
                  f"{ratio:4.2f}x vs sql-file{'' if gated else '  (reported only)'}")
            records.append({
                "kind": "rss", "backend": backend, "n_rows": args.rss_rows,
                "max_rss_bytes": peak, "ratio_vs_sql_file": ratio,
            })
            if gated:
                rss_gate.append({"backend": backend, "ratio": ratio,
                                 "ok": ratio >= GATE_RSS})
                if ratio < GATE_RSS:
                    failures.append(
                        f"sql-file RSS only {ratio:.2f}x below {backend} "
                        f"at {args.rss_rows} rows (gate {GATE_RSS:.1f}x)"
                    )

    print("backend-aware auto on the crossover sweep:")
    auto_records, auto_gate, auto_failures = run_auto_sweep(
        args.base, args.updates, cfds
    )
    records.extend(auto_records)
    failures.extend(auto_failures)
    for entry in auto_gate:
        status = "ok" if entry["ok"] else "FAIL"
        print(f"  gate [{status}] {entry['partitioning']} n={entry['n_updates']}: "
              f"auto {entry['auto_bytes']}B vs best fixed {entry['best_fixed_bytes']}B")

    path = bu.write_bench_json("sql_pushdown", records, extra={
        "n_cfds": N_CFDS,
        "sizes": list(args.sizes),
        "rss_rows": args.rss_rows,
        "gates": {
            "check_speedup": {"target": GATE_SPEEDUP, "at_largest": check_speedups[largest]},
            "rss": {"target": GATE_RSS, "results": rss_gate},
            "auto": {"target": GATE_AUTO, "results": auto_gate},
        },
    })
    print(f"benchmark results written to {path}")
    for failure in failures:
        print(f"GATE FAILURE: {failure}")
    return 1 if failures and not args.no_gate else 0


if __name__ == "__main__":
    raise SystemExit(main())
