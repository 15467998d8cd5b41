"""Pushed-down CFD detection kernels over a :class:`SqlStore`.

Every kernel is the SQL equivalent of a tuple-at-a-time loop somewhere
in the detectors and produces *identical* results: the store's value
encoding preserves Python equality inside the engine, so filtering and
grouping rows in SQL partitions them exactly like the row backend's
dict grouping, and the decoded projections reproduce
``estimate_tuple_bytes`` byte for byte.  What moves into the engine is
the set-oriented part — pattern filters, LHS grouping, distinct-RHS
counting, semi-joins — which runs in C over data that never has to fit
on the Python heap; what stays in Python is the (much smaller) decoded
result: violating tids, shipment ``(count, bytes)`` totals and group
dictionaries the coordinators merge.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Iterable, Mapping, Sequence

from repro.core.cfd import CFD
from repro.distributed.serialization import (
    TID_BYTES,
    PriceTable,
    estimate_value_bytes,
)
from repro.obs import profile as _prof
from repro.sqlstore import compiler
from repro.sqlstore.store import SqlStore, decode_value

# -- violation kernels (CentralizedDetector.violations_of equivalents) ---------------


def constant_violations(cfd: CFD, store: SqlStore) -> set[Any]:
    """``V(phi, D)`` for a constant CFD: one pushed-down WHERE filter."""
    if _prof.enabled:
        _t0 = perf_counter()
    sql, params = compiler.constant_violation_query(store, cfd)
    out = {decode_value(tid) for (tid,) in store.query_all(sql, params)}
    if _prof.enabled:
        _prof.note("sql.constant_query", perf_counter() - _t0, len(store))
    return out


def variable_violations(cfd: CFD, store: SqlStore) -> set[Any]:
    """``V(phi, D)`` for a variable CFD: the grouped two-query formulation."""
    if _prof.enabled:
        _t0 = perf_counter()
    sql, params = compiler.variable_violation_query(store, cfd)
    out = {decode_value(tid) for (tid,) in store.query_all(sql, params)}
    if _prof.enabled:
        _prof.note("sql.variable_query", perf_counter() - _t0, len(store))
    return out


def violations_of(cfd: CFD, store: SqlStore) -> set[Any]:
    """``V(phi, D)`` for one CFD — the SQL twin of the row-backend scan."""
    if cfd.is_constant():
        return constant_violations(cfd, store)
    return variable_violations(cfd, store)


# -- bulk index construction -----------------------------------------------------------


def build_cfd_index(index: Any, store: SqlStore) -> None:
    """Populate a :class:`~repro.indexes.idx.CFDIndex` from one scan.

    The pattern filter and projection run in the engine; the grouped
    loads happen on the decoded ``(tid, X..., B)`` rows — one query per
    rule instead of one pattern probe per tuple per rule.
    """
    if _prof.enabled:
        _t0 = perf_counter()
    cfd = index.cfd
    n_lhs = len(cfd.lhs)
    sql, params = compiler.pattern_scan_query(store, cfd, (*cfd.lhs, cfd.rhs))
    groups: dict[tuple, dict[Any, set[Any]]] = {}
    for row in store.query_all(sql, params):
        key = tuple(decode_value(v) for v in row[1 : 1 + n_lhs])
        rhs_value = decode_value(row[1 + n_lhs])
        groups.setdefault(key, {}).setdefault(rhs_value, set()).add(
            decode_value(row[0])
        )
    for key, by_rhs in groups.items():
        index.load_group(key, by_rhs)
    if _prof.enabled:
        _prof.note("idx.build_sql", perf_counter() - _t0, len(store))


# -- shipment scans (batch baselines) ---------------------------------------------------


def _decoded_columns(rows: list[tuple]) -> list[Sequence[Any]]:
    """Raw result rows transposed into decoded columns.

    Natively stored values decode to themselves, so only a column that
    holds a tagged blob is decoded value by value.
    """
    return [
        list(map(decode_value, col)) if bytes in set(map(type, col)) else col
        for col in zip(*rows)
    ]


def horizontal_batch_scan(
    store: SqlStore, cfd: CFD, want_ship: bool, prices: PriceTable
) -> tuple[tuple[int, int], dict[tuple, dict[Any, list[Any]]]]:
    """One site's scan for a general CFD in ``batHor``.

    Returns ``(shipment, groups)``: the ``(count, bytes)`` total of the
    pattern-matching tuples' ``cfd.attributes`` projections — ``(0, 0)``
    unless this site ships for the CFD — and the fragment's decoded
    partial LHS groups ``{lhs_key: {rhs_value: [tids]}}`` for the
    coordinator merge.  The filter runs as one pushed-down query, only
    ``cfd.attributes`` come back, and ``prices`` estimates each
    distinct value once.
    """
    if _prof.enabled:
        _t0 = perf_counter()
    sql, params = compiler.pattern_scan_query(store, cfd, cfd.attributes)
    rows = store.query_all(sql, params)
    shipment = (0, 0)
    groups: dict[tuple, dict[Any, list[Any]]] = {}
    if rows:
        tids, *lhs_cols, rhs_col = _decoded_columns(rows)
        if want_ship:
            shipment = prices.shipment(len(rows), (*lhs_cols, rhs_col))
        for tid, key, rhs_value in zip(tids, zip(*lhs_cols), rhs_col):
            groups.setdefault(key, {}).setdefault(rhs_value, []).append(tid)
    if _prof.enabled:
        _prof.note("shipment.sql_scan", perf_counter() - _t0, len(store))
    return shipment, groups


def _priced_projection(rows: list[tuple], prices: PriceTable) -> tuple[int, int]:
    """``(count, bytes)`` of raw ``(tid, values...)`` result rows shipped
    as partial tuples."""
    return prices.shipment(len(rows), _decoded_columns(rows)[1:])


def constant_ship_scan(
    store: SqlStore,
    relevant: Sequence[str],
    constants: Mapping[str, Any],
    prices: PriceTable,
) -> tuple[int, int]:
    """``batVer``: the ``(count, bytes)`` total of shipping the
    ``relevant`` projection of every tuple that matches the pattern
    constants on it (pushed-down WHERE filter)."""
    if _prof.enabled:
        _t0 = perf_counter()
    sql, params = compiler.constant_match_query(store, relevant, dict(constants))
    shipment = _priced_projection(store.query_all(sql, params), prices)
    if _prof.enabled:
        _prof.note("shipment.sql_constant_scan", perf_counter() - _t0, len(store))
    return shipment


def project_ship_scan(
    store: SqlStore, supplied: Sequence[str], prices: PriceTable
) -> tuple[int, int]:
    """``batVer``: the ``(count, bytes)`` total of shipping every
    tuple's ``supplied`` projection."""
    if _prof.enabled:
        _t0 = perf_counter()
    sql, params = compiler.projection_query(store, supplied)
    shipment = _priced_projection(store.query_all(sql, params), prices)
    if _prof.enabled:
        _prof.note("shipment.sql_project_scan", perf_counter() - _t0, len(store))
    return shipment


def semi_join_ship_scan(
    store: SqlStore, tids: Iterable[Any], attributes: Sequence[str] | None = None
) -> list[tuple[Any, int]]:
    """(tid, bytes) for exactly the given shipped tuples.

    Batch shipment re-scans with a known tuple set push down as a
    temp-table semi-join against the primary key (one ``executemany``
    in, one join out) instead of fetching every row to Python and
    filtering there.  Unknown tids are skipped, matching a scan that
    simply never sees them.
    """
    if _prof.enabled:
        _t0 = perf_counter()
    out = [
        (
            decode_value(row[0]),
            TID_BYTES + sum(estimate_value_bytes(decode_value(v)) for v in row[1:]),
        )
        for row in store.select_tids(tids, attributes)
    ]
    if _prof.enabled:
        _prof.note("shipment.sql_semi_join", perf_counter() - _t0, len(store))
    return out
