"""The four workloads: inputs from the seed, the measured loop, the output checks.

Every workload uses the TPCH generator, 10 CFDs from
``generate_cfds(fd_specs(), 10)``, 8 sites, 80 % inserts / 20 % deletes
and the serial executor, and reaches the program only through the public
``workloads`` / ``engine`` / ``service`` APIs.  Each returns a
:class:`Result`; ``run.py`` turns it into the named metrics.

Why these four (the README has the layer -> metric prediction table):

* ``hor-trickle`` — small waves into a large hash-horizontal ``incHor``
  session: ``horizontal`` + IDX + ``core`` do the work; kernels, planner,
  service and ``vertical`` do none.
* ``ver-trickle`` — small waves into a large even-vertical ``incVer``
  session: ``vertical`` + HEV + eqid shipment; IDX and ``horizontal``
  are bypassed.
* ``bulk-recheck`` — large waves through batHor/batVer on columnar, sql
  and rows storage plus ``incHor`` on the same waves: whole-fragment
  scans and re-fragmentation, the opposite storage access pattern.
* ``service-mixed`` — two ``strategy("auto")`` tenants behind
  ``DetectionService`` under an open-loop paced load, then a flood: the
  only place batcher, admission, ``plan.decide`` and thread contention
  appear; detectors see windows of <= 64 updates.
"""

from __future__ import annotations

import random
import shutil
import tempfile
import threading
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from statistics import fmean, median
from typing import Any, Callable

import repro
from repro import sqlstore
from repro.service import DetectionService, TenantQuota

from layers import Tracing, percentile

N_SITES = 8
N_CFDS = 10
INSERT_FRACTION = 0.8
#: A trickle refills its update pool from the current database every this many waves.
POOL_WAVES = 200
#: In a traced run, waves go in blocks of this many: three traced, one untraced.
TRACE_BLOCK = 10
#: Scratch files (the file-backed sqlite fragments) stay inside the checkout.
WORK_DIR = Path(__file__).resolve().parents[2] / ".bench_work"


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is what ``BENCHMARK.json``'s workloads are frozen at."""

    trickle_rows: int = 100_000
    hor_wave: int = 100
    hor_warmup: int = 20
    ver_wave: int = 20
    ver_warmup: int = 10
    bulk_rows: int = 10_000
    bulk_wave: int = 1_000
    tenant_rows: int = 4_000
    #: Paced updates/s per tenant (about 60 % of saturation on the reference host).
    tenant_rate: int = 600
    max_pending: int = 2_048


FULL = Sizes()
SMOKE = Sizes(
    trickle_rows=2_000,
    hor_warmup=2,
    ver_warmup=2,
    bulk_rows=1_000,
    bulk_wave=100,
    tenant_rows=500,
    tenant_rate=200,
    max_pending=256,
)


@dataclass
class Result:
    """What one run measured, before it is turned into named metrics."""

    setup_s: float
    #: Seconds per operation: a ``session.apply`` wave, or (service) one
    #: percentile of ingest -> report latency per tenant, see ``run_service``.
    latency_p50_s: float
    latency_p95_s: float
    samples: int
    updates: int
    busy_s: float
    #: The session ledgers' movement over the measured loop, and the updates it covers.
    shipped_bytes: int
    messages: int
    shipped_updates: int
    attempted: int
    failures: list[str] = field(default_factory=list)
    failed_ops: int = 0


def make_inputs(seed: int, rows: int) -> tuple[Any, Any, list[Any]]:
    gen = repro.TPCHGenerator(seed=seed)
    return gen, gen.relation(rows), repro.generate_cfds(gen.fd_specs(), N_CFDS, seed=seed)


def partitioner_for(gen: Any, partitioning: str) -> Any:
    if partitioning == "horizontal":
        return gen.horizontal_partitioner(N_SITES)
    return gen.vertical_partitioner(N_SITES)


def expect(failures: list[str], ok: bool, what: str) -> None:
    if not ok:
        failures.append(what)


# -- hor-trickle / ver-trickle -------------------------------------------------------------


def run_trickle(
    partitioning: str, strategy: str, rows: int, wave: int, warmup: int,
    seed: int, seconds: float, tr: Tracing,
) -> Result:
    """Closed loop, one caller: small waves through ``session.apply``."""
    setup_start = time.perf_counter()
    rng = random.Random(seed)

    def refill(base: Any) -> list[Any]:
        # At most |D| updates, so the 20 % deletions never outnumber the tuples.
        size = min(wave * POOL_WAVES, len(base))
        return list(repro.generate_updates(base, gen, size, INSERT_FRACTION, rng=rng))

    with tr.span("harness.generate"):
        gen, rel, cfds = make_inputs(seed, rows)
        pool = refill(rel)
    partitioner = partitioner_for(gen, partitioning)
    with tr.span("harness.build"):
        builder = repro.session(rel).partition(partitioner).rules(cfds).strategy(strategy)
        session = tr.attach(builder.storage("rows"), strategy).build()
    setup_s = time.perf_counter() - setup_start

    with session:
        # Between waves the loop only appends to lists: the mirror of
        # D (+) delta-D is brought up to date at a refill and after the
        # loop, and delta-V is accumulated after it, so the harness's own
        # bookkeeping does not cool the caches the next wave runs on.
        mirror = rel.copy()
        mirrored = 0
        batches: list[Any] = []  # every wave applied, warm-up included
        deltas = []
        times: dict[bool, list[float]] = {True: [], False: []}
        pos = 0
        busy = 0.0
        before = session.network.stats()
        while busy < seconds:
            if pos >= len(pool):
                for batch in batches[mirrored:]:
                    batch.apply_in_place(mirror)
                mirrored = len(batches)
                pool, pos = refill(mirror), 0
            batch = repro.UpdateBatch(pool[pos : pos + wave])
            pos += wave
            measured = len(batches) >= warmup
            if len(batches) == warmup:
                tr.loop_starts()
                before = session.network.stats()
            traced = (len(batches) // TRACE_BLOCK) % 4 != 3
            tr.set_tracing(traced)
            start = time.perf_counter()
            with tr.span("harness.apply") if measured else nullcontext():
                delta = session.apply(batch)
            elapsed = time.perf_counter() - start
            batches.append(batch)
            deltas.append(delta)
            if measured:
                busy += elapsed
                times[traced].append(elapsed)
        tr.set_tracing(True)
        tr.loop_ends()
        shipped = session.network.stats().diff(before)

        for batch in batches[mirrored:]:
            batch.apply_in_place(mirror)
        running = session.initial_violations.copy()
        for delta in deltas:
            running.apply(delta)
        failures: list[str] = []
        with tr.span("harness.oracle"):
            oracle = repro.detect_violations(cfds, mirror)
        expect(failures, session.violations == oracle, "V != detect_violations(cfds, D (+) dD)")
        expect(failures, running == oracle, "V_initial (+) accumulated dV != V_final")
        expect(failures, session.timings().bytes_pickled == 0, "serial executor pickled bytes")

        measured_batches = batches[warmup:]
        if tr.enabled and times[False]:
            tr.counters["obs.trace_overhead_ratio"] = median(times[True]) / median(times[False])
        tr.observe_session(session, shipped)
        tr.probe_normalize(measured_batches)
        tr.probe_fragment(partitioner, mirror)
        tr.probe_compile(cfds)
        tr.probe_ledger()

    waves = times[True] + times[False]
    updates = sum(len(batch) for batch in measured_batches)
    return Result(
        setup_s=setup_s,
        latency_p50_s=percentile(waves, 50.0),
        latency_p95_s=percentile(waves, 95.0),
        samples=len(waves),
        updates=updates,
        busy_s=busy,
        shipped_bytes=shipped.bytes,
        messages=shipped.messages,
        shipped_updates=updates,
        attempted=len(waves) + 3,
        failures=failures,
    )


def run_hor_trickle(sizes: Sizes, seed: int, seconds: float, tr: Tracing) -> Result:
    return run_trickle(
        "horizontal", "incHor", sizes.trickle_rows, sizes.hor_wave, sizes.hor_warmup,
        seed, seconds, tr,
    )


def run_ver_trickle(sizes: Sizes, seed: int, seconds: float, tr: Tracing) -> Result:
    return run_trickle(
        "vertical", "incVer", sizes.trickle_rows, sizes.ver_wave, sizes.ver_warmup,
        seed, seconds, tr,
    )


# -- bulk-recheck ---------------------------------------------------------------------------

#: (phase, strategy, storage, partitioning).  The last is the Exp-10
#: crossover counterpart: the incremental detector on the same bulk waves.
BULK_PHASES = (
    ("bathor-columnar", "batHor", "columnar", "horizontal"),
    ("bathor-sql", "batHor", "sql", "horizontal"),
    ("batver-columnar", "batVer", "columnar", "vertical"),
    ("batver-rows", "batVer", "rows", "vertical"),
    ("inchor-bulk", "incHor", "rows", "horizontal"),
)


def run_bulk_recheck(sizes: Sizes, seed: int, seconds: float, tr: Tracing) -> Result:
    """Closed loop, one caller: each bulk wave goes through all five phases'
    sessions in turn (one cycle), so the phases see identical inputs."""
    setup_start = time.perf_counter()
    rng = random.Random(seed)
    with tr.span("harness.generate"):
        gen, rel, cfds = make_inputs(seed, sizes.bulk_rows)
    WORK_DIR.mkdir(exist_ok=True)
    sql_dir = tempfile.mkdtemp(prefix="sql-", dir=WORK_DIR)
    sqlstore.configure(directory=sql_dir)  # bathor-sql is file-backed
    sessions = []
    try:
        for phase, strategy, storage, partitioning in BULK_PHASES:
            hosted = rel
            if storage != "rows":
                with tr.timed(f"{'sqlstore' if storage == 'sql' else storage}.rehost_s"):
                    hosted = rel.with_storage(storage)
            with tr.span("harness.build", phase=phase):
                builder = repro.session(hosted).partition(partitioner_for(gen, partitioning))
                builder = builder.rules(cfds).strategy(strategy).storage(storage)
                sessions.append(tr.attach(builder, phase).build())
        setup_s = time.perf_counter() - setup_start
        tr.loop_starts()

        mirror = rel.copy()
        running = sessions[-1].violations.copy()
        rows_checked = 0
        before = [s.network.stats() for s in sessions]
        times: dict[tuple[int, bool], list[float]] = {}
        batches = []
        busy = 0.0
        while busy < seconds:
            batch = repro.generate_updates(
                mirror, gen, sizes.bulk_wave, INSERT_FRACTION, rng=rng
            )
            for index, session in enumerate(sessions):
                traced = (len(batches) + index) % 2 == 0
                tr.set_tracing(traced)
                start = time.perf_counter()
                with tr.span("harness.apply", phase=BULK_PHASES[index][0]):
                    delta = session.apply(batch)
                elapsed = time.perf_counter() - start
                busy += elapsed
                times.setdefault((index, traced), []).append(elapsed)
                if session is sessions[-1]:
                    running.apply(delta)
            batches.append(batch)
            batch.apply_in_place(mirror)
            rows_checked += len(mirror)
        tr.set_tracing(True)
        tr.loop_ends()
        shipped = [s.network.stats().diff(b) for s, b in zip(sessions, before)]

        failures: list[str] = []
        with tr.span("harness.oracle"):
            oracle = repro.detect_violations(cfds, mirror)
        for (phase, *_), session in zip(BULK_PHASES, sessions):
            expect(failures, session.violations == oracle, f"{phase}: V != oracle")
        expect(failures, running == oracle, "inchor-bulk: V_initial (+) dV != V_final")
        for a, b in ((0, 1), (2, 3)):  # same partitioning and strategy, other storage
            same = (shipped[a].bytes, shipped[a].messages, shipped[a].units_by_kind) == (
                shipped[b].bytes, shipped[b].messages, shipped[b].units_by_kind
            )
            expect(failures, same, f"{BULK_PHASES[a][0]} / {BULK_PHASES[b][0]}: ledgers differ")

        per_phase = [times.get((i, True), []) + times.get((i, False), []) for i in range(5)]
        if tr.enabled:
            if len(batches) >= 2:  # then every session has a traced and an untraced wave
                traced_s, untraced_s = (
                    sum(fmean(times[i, traced]) for i in range(5)) for traced in (True, False)
                )
                tr.counters["obs.trace_overhead_ratio"] = traced_s / untraced_s
            for (phase, *_), samples in zip(BULK_PHASES, per_phase):
                tr.add(f"bulk.{phase.replace('-', '_')}_wave_ms", percentile(samples, 50.0) * 1e3)
            # Each of the four batch phases validates all of D (+) dD per wave.
            tr.add("bulk.recheck_rows_per_s", 4 * rows_checked / sum(map(sum, per_phase[:4])))
            tr.add("bulk.inchor_updates_per_s", sizes.bulk_wave * len(batches) / sum(per_phase[4]))
            for session, delta_stats in zip(sessions, shipped):
                tr.observe_session(session, delta_stats)
            tr.probe_normalize(batches)
            for partitioning in ("horizontal", "vertical"):
                tr.probe_fragment(partitioner_for(gen, partitioning), mirror)
            tr.probe_compile(cfds)
            tr.probe_ledger()
    finally:
        for session in sessions:
            session.close()
        sqlstore.configure(directory=None)
        shutil.rmtree(sql_dir, ignore_errors=True)

    # The five sessions' waves differ by up to 6x, so a percentile over all of
    # them would jump with the number of cycles that fit in the run; each
    # session's own percentile, averaged over the sessions, does not.
    n_waves = len(batches) * len(sessions)
    return Result(
        setup_s=setup_s,
        latency_p50_s=fmean(percentile(samples, 50.0) for samples in per_phase),
        latency_p95_s=fmean(percentile(samples, 95.0) for samples in per_phase),
        samples=n_waves,
        updates=n_waves * sizes.bulk_wave,
        busy_s=busy,
        shipped_bytes=sum(s.bytes for s in shipped),
        messages=sum(s.messages for s in shipped),
        shipped_updates=n_waves * sizes.bulk_wave,
        attempted=n_waves + 8,
        failures=failures,
    )


# -- service-mixed --------------------------------------------------------------------------

TENANTS = (("hor", "horizontal"), ("ver", "vertical"))


@dataclass
class _Client:
    """One tenant's load generator state (one thread drives it at a time)."""

    name: str
    rng: random.Random
    #: The current phase's stream and how far into it the generator is.
    ops: list[Any] = field(default_factory=list)
    pos: int = 0
    #: Every update the service accepted, over all phases, in order.
    accepted: list[Any] = field(default_factory=list)
    refused_paced: int = 0
    lateness: list[float] = field(default_factory=list)
    submit_s: list[float] = field(default_factory=list)
    error: BaseException | None = None


def _paced(svc: DetectionService, client: _Client, rate: float) -> None:
    """Open loop: the stream's updates, one single-update submit every
    ``1/rate`` s, whatever the service does."""
    start = time.monotonic()
    for i, op in enumerate(client.ops):
        due = start + i / rate
        wait = due - time.monotonic()
        if wait > 0:
            time.sleep(wait)
        called = time.monotonic()
        result = svc.submit(client.name, op)
        client.submit_s.append(time.monotonic() - called)
        client.lateness.append(max(0.0, called - due))
        if result.accepted:
            client.accepted.append(op)
        else:
            client.refused_paced += 1


def _flood(svc: DetectionService, client: _Client, duration: float) -> None:
    """Closed loop: submit as fast as accepted; a reject waits ``retry_after`` and resubmits."""
    deadline = time.monotonic() + duration
    while client.pos < len(client.ops) and time.monotonic() < deadline:
        op = client.ops[client.pos]
        result = svc.submit(client.name, op)
        if result.accepted:
            client.accepted.append(op)
            client.pos += 1
        else:
            time.sleep(min(result.retry_after or 0.001, max(0.0, deadline - time.monotonic())))


def _run_clients(
    target: Callable[..., None], svc: DetectionService, clients: list[_Client], *args: Any
) -> None:
    """One generator thread per client, joined before returning."""

    def guarded(client: _Client) -> None:
        try:
            target(svc, client, *args)
        except BaseException as exc:  # noqa: BLE001 - re-raised on the main thread below
            client.error = exc

    threads = [threading.Thread(target=guarded, args=(c,)) for c in clients]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    for client in clients:
        if client.error is not None:
            raise client.error


def run_service_mixed(sizes: Sizes, seed: int, seconds: float, tr: Tracing) -> Result:
    """Open loop: one generator thread per tenant (2 = nproc on the reference host).

    Phase ``paced`` (60 % of the run) submits single updates at a fixed
    rate and gives the latency percentiles, read from
    ``svc.metrics(tenant).latency`` (ingest -> report; mean of the two
    tenants; how late the generator itself ran is a per-layer metric).
    Phase ``flood`` (30 %) submits as fast as admission accepts, then
    drains: applied updates / wall is the saturation throughput.
    """
    paced_s, flood_s = 0.6 * seconds, 0.3 * seconds
    setup_start = time.perf_counter()

    def new_stream(client: _Client, n_updates: int) -> None:
        """A phase's stream: Zipf 1.0 on ``sname``, against the tenant's database
        as the updates accepted so far leave it.  Deletions sample without
        replacement, so it holds at most 4|D| updates (20 % deletions); a
        phase whose stream runs dry ends early."""
        database = repro.UpdateBatch(client.accepted).apply_to(rel)
        client.pos = 0
        client.ops = list(repro.generate_updates(
            database, gen, min(n_updates, 4 * len(database)), INSERT_FRACTION,
            skew=1.0, hot_attribute="sname", rng=client.rng,
        ))

    with tr.span("harness.generate"):
        gen, rel, cfds = make_inputs(seed, sizes.tenant_rows)
        clients = [_Client(name, random.Random(f"{seed}:{name}")) for name, _ in TENANTS]
        for client in clients:
            new_stream(client, int(sizes.tenant_rate * paced_s))
    quota = TenantQuota(max_pending=sizes.max_pending, max_batch=64, max_delay=0.01)
    svc = DetectionService(observability=tr.obs)
    try:
        build_s = {}
        for name, partitioning in TENANTS:
            start = time.perf_counter()
            with tr.span("harness.build", tenant=name):
                builder = repro.session(rel).partition(partitioner_for(gen, partitioning))
                svc.register(name, tr.attach(builder.rules(cfds).strategy("auto"), name), quota)
            build_s[name] = time.perf_counter() - start
        setup_s = time.perf_counter() - setup_start
        tr.loop_starts()
        before = {name: svc.session(name).network.stats() for name, _ in TENANTS}

        with tr.span("harness.phase", phase="paced"):
            _run_clients(_paced, svc, clients, sizes.tenant_rate)
            svc.flush()
        paced = {name: svc.metrics(name).latency for name, _ in TENANTS}

        # A traced run floods twice, untraced then traced: the ratio of the
        # two rates is the tracing overhead.
        rates = {}
        for traced in ((False, True) if tr.enabled else (False,)):
            for client in clients:  # more than admission can take in the time
                new_stream(client, int(4_000 * flood_s) + sizes.max_pending)
            tr.set_tracing(traced)
            applied = svc.metrics().applied_updates
            start = time.perf_counter()
            with tr.span("harness.phase", phase="flood"):
                _run_clients(_flood, svc, clients, flood_s / (2 if tr.enabled else 1))
                svc.drain()
            wall = time.perf_counter() - start
            rates[traced] = ((svc.metrics().applied_updates - applied), wall)
        tr.set_tracing(True)
        tr.loop_ends()

        failures: list[str] = []
        failed_ops = 0
        shipped_bytes = messages = 0
        for client in clients:
            m = svc.metrics(client.name)
            shipped = svc.session(client.name).network.stats().diff(before[client.name])
            shipped_bytes += shipped.bytes
            messages += shipped.messages
            failed_ops += client.refused_paced + (m.accepted - m.applied_updates)
            expect(failures, m.submitted == m.accepted + m.rejected,
                   f"{client.name}: submitted != accepted + rejected")
            expect(failures, m.accepted == m.applied_updates == len(client.accepted),
                   f"{client.name}: accepted updates were dropped")
            with tr.span("harness.oracle", tenant=client.name):
                final = repro.UpdateBatch(client.accepted).apply_to(rel)
                oracle = repro.detect_violations(cfds, final)
            expect(failures, svc.violations(client.name) == oracle, f"{client.name}: V != oracle")
            if tr.enabled:
                tr.observe_session(svc.session(client.name), shipped)
                tr.counters["service.max_queue_depth"] = max(
                    tr.counters["service.max_queue_depth"], m.max_queue_depth
                )
                tr.add("service.rejected_share", m.rejected / m.submitted / len(clients))
                tr.add("service.ingest_p99_ms", paced[client.name].p99 * 1e3 / len(clients))
                chunks = [client.accepted[i : i + 64] for i in range(0, len(client.accepted), 64)]
                tr.probe_normalize(repro.UpdateBatch(chunk) for chunk in chunks)
                partitioner = partitioner_for(gen, dict(TENANTS)[client.name])
                tr.probe_fragment(partitioner, final)
                # Calibration probes: the auto build minus the same build without them.
                plain = repro.session(rel).partition(partitioner).rules(cfds)
                start = time.perf_counter()
                plain.strategy("auto", probe=False).build().close()
                tr.add("planner.probe_build_s",
                       build_s[client.name] - (time.perf_counter() - start))
        if tr.enabled:
            tr.counters["obs.trace_overhead_ratio"] = (
                rates[False][0] / rates[False][1]) / (rates[True][0] / rates[True][1])
            tr.add("service.submit_p95_ms",
                   percentile([s for c in clients for s in c.submit_s], 95.0) * 1e3)
            tr.add("service.generator_lateness_p95_ms",
                   percentile([s for c in clients for s in c.lateness], 95.0) * 1e3)
            tr.probe_compile(cfds)
            tr.probe_ledger()
    finally:
        svc.close()

    flooded = sum(n for n, _ in rates.values())
    submitted = sum(len(c.submit_s) for c in clients)
    return Result(
        setup_s=setup_s,
        latency_p50_s=fmean(paced[name].p50 for name, _ in TENANTS),
        latency_p95_s=fmean(paced[name].p95 for name, _ in TENANTS),
        samples=sum(paced[name].count for name, _ in TENANTS),
        updates=flooded,
        busy_s=sum(wall for _, wall in rates.values()),
        shipped_bytes=shipped_bytes,
        messages=messages,
        shipped_updates=sum(len(c.accepted) for c in clients),
        attempted=submitted + flooded + 3 * len(clients),
        failures=failures,
        failed_ops=failed_ops,
    )
