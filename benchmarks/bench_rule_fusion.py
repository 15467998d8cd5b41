"""Rule fusion: one sweep per same-LHS rule group vs one group per rule.

A tableau-shaped rule set — 8 CFDs sharing 3 LHS attribute lists — is
checked by the stores' ``check`` operation compiled fused (one sweep per
same-LHS group, shared grouped masks and dirty maps, one tagged SQL
query per group) and compiled one group per rule
(``compile_rule_set(cfds, fuse=False)``, what ``rule_fusion(False)``
runs), across the storage backends.  Three measurements, written to
``BENCH_rule_fusion.json``:

* **Columnar speedup** — validation-only wall-clock of the fused groups
  vs one group per rule, per database size.  Gate (a): fused >= 2x
  faster at the largest swept size.

* **SQL query count** — engine queries issued (``SqlStore.query_count``)
  by the fused groups vs one group per rule, plus their wall-clock
  alongside.  Gate (b): fused issues >= 2x fewer queries.

* **End-to-end counter parity** — an ``incHor`` session streams the same
  update batch fused and per-rule on rows, columnar and sql; the
  violation sets, ΔV and every shipment counter must be identical.
  Gate (c): any divergence fails.

Run directly: ``python benchmarks/bench_rule_fusion.py`` (``--sizes``
and ``--rounds`` shrink or grow the sweep; ``--no-gate`` reports without
failing).
"""

from __future__ import annotations

import argparse
import time

import bench_utils as bu
from repro.core.cfd import CFD
from repro.engine.session import session
from repro.rulefuse import compile_rule_set

SIZES = (2000, 8000, 24000)
PARITY_BASE = 400
PARITY_UPDATES = 120
PARITY_SITES = 4
GATE_SPEEDUP = 2.0
GATE_QUERY_FACTOR = 2.0


def fusion_cfds() -> list[CFD]:
    """8 CFDs over 3 distinct LHS lists on the TPC-H-style schema.

    Each group mixes fully-variable rules with pattern-pinned variants,
    the tableau shape fused compilation exists for: k pattern rows over
    one LHS list cost one sweep instead of k.
    """
    return [
        # group 1: LHS (cname,) — 3 rules
        CFD(("cname",), "cnation", {}, name="cname_nation"),
        CFD(("cname",), "csegment", {}, name="cname_segment"),
        CFD(("cname",), "cnation", {"cname": "Customer#00005"}, name="cname_nation_p"),
        # group 2: LHS (cnation, csegment, shipmode) — 3 rules
        CFD(
            ("cnation", "csegment", "shipmode"), "taxcode", {},
            name="tax_all",
        ),
        CFD(
            ("cnation", "csegment", "shipmode"), "taxcode", {"shipmode": "AIR"},
            name="tax_air",
        ),
        CFD(
            ("cnation", "csegment", "shipmode"), "taxcode",
            {"cnation": "FRANCE", "csegment": "BUILDING"},
            name="tax_fr_building",
        ),
        # group 3: LHS (snation, shipmode, linestatus) — 2 rules
        CFD(
            ("snation", "shipmode", "linestatus"), "shipband", {},
            name="band_all",
        ),
        CFD(
            ("snation", "shipmode", "linestatus"), "shipband", {"snation": "GERMANY"},
            name="band_de",
        ),
    ]


# -- gate (a): columnar validation speedup ----------------------------------------------


def checked(store, groups) -> dict:
    """``store.check(groups)`` decoded to tids, keyed by rule position."""
    found = iter(store.check(groups))
    return {i: store.tids_of(next(found)) for group in groups for i in group.indexes}


def best_of(rounds: int, store, fused, per_rule) -> dict:
    """Best-of-``rounds`` seconds of one ``check`` call per compilation."""
    best = {"fused": float("inf"), "per_rule": float("inf")}
    for _ in range(rounds):
        for side, groups in (("fused", fused), ("per_rule", per_rule)):
            start = time.perf_counter()
            store.check(groups)
            best[side] = min(best[side], time.perf_counter() - start)
    return best


def measure_columnar(n: int, cfds: list[CFD], rounds: int) -> dict:
    """Best-of-``rounds`` validation seconds, fused vs one group per rule."""
    store = bu.tpch_relation(n).with_storage("columnar").store
    fused, per_rule = compile_rule_set(cfds), compile_rule_set(cfds, fuse=False)
    # Warm the store's pattern-test encodings and grouped masks so neither
    # side pays the one-off work inside the timed region.
    assert checked(store, fused) == checked(store, per_rule), "fused columnar masks diverge"
    return best_of(rounds, store, fused, per_rule)


# -- gate (b): SQL query count ----------------------------------------------------------


def measure_sql(n: int, cfds: list[CFD], rounds: int) -> dict:
    """Queries issued and best-of-``rounds`` seconds, fused vs one group per rule."""
    store = bu.tpch_relation(n).with_storage("sql").store
    fused, per_rule = compile_rule_set(cfds), compile_rule_set(cfds, fuse=False)
    # Warm the statement cache; count queries on a steady-state round.
    assert checked(store, fused) == checked(store, per_rule), "fused SQL violations diverge"
    queries = {}
    for side, groups in (("fused", fused), ("per_rule", per_rule)):
        before = store.query_count
        store.check(groups)
        queries[side] = store.query_count - before
    best = best_of(rounds, store, fused, per_rule)
    best["fused_queries"] = queries["fused"]
    best["per_rule_queries"] = queries["per_rule"]
    return best


# -- gate (c): end-to-end counter parity ------------------------------------------------


def measure_parity(cfds: list[CFD]) -> tuple[list[dict], list[str]]:
    """Stream one update wave fused and per-rule on every backend."""
    generator = bu.tpch()
    relation = bu.tpch_relation(PARITY_BASE)
    updates = bu.tpch_updates(PARITY_BASE, PARITY_UPDATES, insert_fraction=0.6)
    records, failures = [], []
    for storage in ("rows", "columnar", "sql"):
        outcomes = {}
        for fusion in (True, False):
            sess = (
                session(relation)
                .partition(generator.horizontal_partitioner(PARITY_SITES))
                .rules(cfds)
                .strategy("incHor")
                .storage(storage)
                .rule_fusion(fusion)
                .build()
            )
            delta = sess.apply(updates)
            stats = sess.network.stats()
            outcomes[fusion] = {
                "violations": sess.violations.as_dict(),
                "added": delta.added,
                "removed": delta.removed,
                "bytes": stats.bytes,
                "messages": stats.messages,
                "units_by_kind": {str(k): v for k, v in stats.units_by_kind.items()},
            }
            sess.close()
        identical = outcomes[True] == outcomes[False]
        records.append({
            "kind": "parity", "storage": storage, "identical": identical,
            "violating_tuples": len(outcomes[True]["violations"]),
            "bytes": outcomes[True]["bytes"],
            "messages": outcomes[True]["messages"],
        })
        if not identical:
            failures.append(f"{storage}: fused outcome diverges from per-rule")
    return records, failures


# -- entry point ------------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sizes", type=int, nargs="+", default=list(SIZES))
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--no-gate", action="store_true")
    args = parser.parse_args(argv)

    cfds = fusion_cfds()
    groups = compile_rule_set(cfds)
    assert len(cfds) >= 8 and len(groups) <= 3
    print(f"rule set: {len(cfds)} CFDs in {len(groups)} fused groups "
          f"({[len(g) for g in groups]} rules per group)")

    failures, records = [], []

    print("columnar validation, fused vs per-rule:")
    speedups = {}
    for n in args.sizes:
        cell = measure_columnar(n, cfds, args.rounds)
        speedup = cell["per_rule"] / cell["fused"]
        speedups[n] = speedup
        print(f"  n={n:>6}  fused {cell['fused'] * 1e3:7.2f} ms  "
              f"per-rule {cell['per_rule'] * 1e3:7.2f} ms  {speedup:4.2f}x")
        records.append({
            "kind": "columnar", "n_tuples": n,
            "fused_seconds": cell["fused"],
            "per_rule_seconds": cell["per_rule"],
            "speedup": speedup,
        })
    largest = max(speedups)
    if speedups[largest] < GATE_SPEEDUP:
        failures.append(
            f"columnar fused only {speedups[largest]:.2f}x at n={largest}, "
            f"below the {GATE_SPEEDUP:.1f}x gate"
        )

    print("sql validation, fused vs per-rule:")
    query_factor = None
    for n in args.sizes:
        cell = measure_sql(n, cfds, args.rounds)
        query_factor = cell["per_rule_queries"] / cell["fused_queries"]
        print(f"  n={n:>6}  fused {cell['fused_queries']} queries "
              f"({cell['fused'] * 1e3:7.2f} ms)  per-rule {cell['per_rule_queries']} "
              f"queries ({cell['per_rule'] * 1e3:7.2f} ms)")
        records.append({
            "kind": "sql", "n_tuples": n,
            "fused_queries": cell["fused_queries"],
            "per_rule_queries": cell["per_rule_queries"],
            "query_factor": query_factor,
            "fused_seconds": cell["fused"],
            "per_rule_seconds": cell["per_rule"],
        })
    if query_factor is None or query_factor < GATE_QUERY_FACTOR:
        failures.append(
            f"fused SQL issues only {query_factor:.2f}x fewer queries, below "
            f"the {GATE_QUERY_FACTOR:.1f}x gate"
        )

    print("end-to-end counter parity (incHor, one wave per backend):")
    parity_records, parity_failures = measure_parity(cfds)
    records.extend(parity_records)
    failures.extend(parity_failures)
    for record in parity_records:
        status = "ok" if record["identical"] else "FAIL"
        print(f"  [{status}] {record['storage']}: "
              f"{record['violating_tuples']} violating tuples, "
              f"{record['bytes']}B / {record['messages']} messages")

    path = bu.write_bench_json("rule_fusion", records, extra={
        "n_cfds": len(cfds),
        "n_groups": len(groups),
        "sizes": list(args.sizes),
        "gates": {
            "columnar_speedup": {"target": GATE_SPEEDUP, "at_largest": speedups[largest]},
            "sql_query_factor": {"target": GATE_QUERY_FACTOR, "value": query_factor},
            "parity": {"results": parity_records},
        },
    })
    print(f"benchmark results written to {path}")
    for failure in failures:
        print(f"GATE FAILURE: {failure}")
    return 1 if failures and not args.no_gate else 0


if __name__ == "__main__":
    raise SystemExit(main())
