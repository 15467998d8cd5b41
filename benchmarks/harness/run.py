#!/usr/bin/env python3
"""The repo's benchmark: four workloads, named end-to-end and per-layer metrics.

One run (the form ``BENCHMARK.json``'s driver uses; ``--trace`` selects it)::

    python3 benchmarks/harness/run.py --workload hor-trickle --seed 7 --seconds 10 --trace 0

generates the workload's inputs from the seed, measures for that many
seconds with observability off, checks the outputs against the
centralized oracle, prints every end-to-end metric by name and unit,
and ends with one JSON line.  ``--trace 1`` runs the same inputs with
the obs tracer and profiling hooks on and prints the per-layer metrics
instead.  The exit code is non-zero when any check fails.

Many runs (``--trace`` absent)::

    python3 benchmarks/harness/run.py [--workload NAME] [--seed N] [--repeat K] [--traced]

reruns each workload K times, each in a fresh process, prints median and
quartiles per metric, appends one row per workload to ``history.jsonl``
and, with ``--traced``, adds a traced run that writes
``trace-<workload>.jsonl`` to ``--out`` and prints the per-layer table.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402 - needs the path set above
from layers import Tracing  # noqa: E402

RUNNERS = {
    "hor-trickle": workloads.run_hor_trickle,
    "ver-trickle": workloads.run_ver_trickle,
    "bulk-recheck": workloads.run_bulk_recheck,
    "service-mixed": workloads.run_service_mixed,
}


def load_spec() -> dict:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        return json.load(handle)


def peak_rss_mb() -> float:
    """The process's high-water resident set (VmHWM; ``ru_maxrss`` elsewhere)."""
    try:
        with open("/proc/self/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def print_table(title: str, rows: list[tuple[str, float, str]]) -> None:
    print(title)
    for name, value, unit in rows:
        print(f"  {name:<40} {value:>16.6g} {unit}")


# -- one run ----------------------------------------------------------------------------


def run_once(args: argparse.Namespace, spec: dict) -> int:
    traced = args.trace == 1
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}"
    tr = Tracing(traced, run_id)
    sizes = workloads.SMOKE if args.smoke else workloads.FULL
    with tr.span("harness.run", workload=args.workload, seed=args.seed):
        result = RUNNERS[args.workload](sizes, args.seed, args.seconds, tr)

    if traced:
        layers, self_times = tr.finish()
        layers["distributed.bytes_per_update"] = result.shipped_bytes / result.shipped_updates
        layers["distributed.messages_per_update"] = result.messages / result.shipped_updates
        declared = {m["name"] for m in spec["per_layer"]}
        unknown = sorted(set(layers) - declared)
        if unknown:
            raise SystemExit(f"per-layer metrics not declared in BENCHMARK.json: {unknown}")
        values = {m["name"]: float(layers.get(m["name"], 0.0)) for m in spec["per_layer"]}
        declared_metrics = spec["per_layer"]
        if args.out:
            os.makedirs(args.out, exist_ok=True)
            path = os.path.join(args.out, f"trace-{args.workload}.jsonl")
            print(f"wrote {tr.export(path)} spans to {path} (run id {run_id})")
        ranked = sorted(self_times.items(), key=lambda kv: -kv[1])
        print_table(
            f"{args.workload}: self seconds per layer in the measured loop",
            [(name, seconds, "s") for name, seconds in ranked],
        )
    else:
        values = {
            "setup_s": result.setup_s,
            "updates_per_s": result.updates / result.busy_s,
            "latency_p50_ms": result.latency_p50_s * 1e3,
            "latency_p95_ms": result.latency_p95_s * 1e3,
            "peak_rss_mb": peak_rss_mb(),
        }
        declared_metrics = spec["end_to_end"]

    failed = len(result.failures) + result.failed_ops
    print_table(
        f"{args.workload} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace}: {result.samples} latency samples, "
        f"{result.updates} updates in {result.busy_s:.2f} s",
        [(m["name"], values[m["name"]], m["unit"]) for m in declared_metrics],
    )
    for failure in result.failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps({
        "correct": not failed,
        "attempted": result.attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared_metrics
        },
    }))
    return 1 if failed else 0


# -- many runs --------------------------------------------------------------------------


def child(args: argparse.Namespace, workload: str, seed: int, trace: int) -> dict:
    """One run in a fresh process; returns its final JSON line."""
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ]
    if args.smoke:
        command.append("--smoke")
    if trace and args.out:
        command += ["--out", args.out]
    done = subprocess.run(command, stdout=subprocess.PIPE, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if trace:
        print("\n".join(lines[:-1]))
    if done.returncode not in (0, 1) or not lines:
        raise SystemExit(f"{' '.join(command)} exited with {done.returncode}")
    return json.loads(lines[-1])


def git_rev() -> str:
    try:
        done = subprocess.run(
            ["git", "describe", "--always", "--dirty"], cwd=ROOT, capture_output=True,
            text=True, check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return done.stdout.strip()


def run_many(args: argparse.Namespace, spec: dict) -> int:
    names = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    status = 0
    for workload in names:
        seeds = [args.seed + (k if args.vary_seed else 0) for k in range(args.repeat)]
        runs = [child(args, workload, seed, 0) for seed in seeds]
        failed = sum(run["failed"] for run in runs)
        attempted = sum(run["attempted"] for run in runs)
        print(f"\n{workload}: {len(runs)} run(s), seeds {seeds}, "
              f"failed_fraction {failed / attempted:.6f}")
        print(f"  {'metric':<28}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}  unit")
        row = {
            "rev": git_rev(), "cpu_count": os.cpu_count(), "seed": args.seed,
            "workload": workload, "seconds": args.seconds, "runs": len(runs),
            "smoke": args.smoke, "failed": failed,
            "time": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
            "end_to_end": {},
        }
        if failed:
            status = 1
        for metric in spec["end_to_end"]:
            values = [run["metrics"][metric["name"]]["value"] for run in runs]
            median = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else [median] * 3
            share = (q3 - q1) / median  # the contract's measure of run-to-run spread
            row["end_to_end"][metric["name"]] = median
            flag = ""
            if args.check_repeatability and share > metric["bound"]:
                flag, status = "  SPREAD > BOUND", 1
            print(f"  {metric['name']:<28}{median:>14.6g}{q1:>14.6g}{q3:>14.6g}"
                  f"{share:>9.4f}{metric['bound']:>7.2f}  {metric['unit']}{flag}")
            if args.verbose:
                print("    every run: " + " ".join(f"{v:.6g}" for v in values))
        if args.traced:
            run = child(args, workload, args.seed, 1)
            row["per_layer"] = {name: m["value"] for name, m in run["metrics"].items()}
            if run["failed"]:
                status = 1
        with open(args.history, "a", encoding="utf-8") as handle:
            handle.write(json.dumps(row, sort_keys=True) + "\n")
    return status


def main(argv: list[str] | None = None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(RUNNERS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                        help="how long one run measures (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="one in-process run: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs (|D| <= 2000), for testing the harness; pair with --seconds 1")
    parser.add_argument("--out", help="directory for trace-<workload>.jsonl of a traced run")
    parser.add_argument("--repeat", type=int, default=1, help="runs per workload (many-run form)")
    parser.add_argument("--vary-seed", action="store_true",
                        help="run k of --repeat uses seed + k (default: the same seed)")
    parser.add_argument("--traced", action="store_true",
                        help="add one traced run per workload (many-run form)")
    parser.add_argument("--check-repeatability", action="store_true",
                        help="fail if a metric's quartile spread exceeds its bound")
    parser.add_argument("--verbose", action="store_true",
                        help="print every run's value under each median (many-run form)")
    parser.add_argument("--history", default=str(HERE / "history.jsonl"),
                        help="trajectory file the many-run form appends to")
    args = parser.parse_args(argv)
    if args.trace is None:
        return run_many(args, spec)
    if not args.workload:
        parser.error("--trace needs --workload")
    return run_once(args, spec)


if __name__ == "__main__":
    sys.exit(main())
