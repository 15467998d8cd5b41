"""Vectorized CFD detection kernels over a :class:`ColumnStore`.

Every kernel is the column-sweep equivalent of a tuple-at-a-time loop
somewhere in the detectors, and produces *bit-identical* results: the
dictionary encoding preserves ``==`` semantics, so grouping rows by code
keys partitions them exactly like grouping tuples by value keys, and the
cached per-code wire sizes reproduce ``estimate_tuple_bytes`` byte for
byte.  The shared primitive is :meth:`ColumnStore.grouped_rows` — the
LHS equivalence classes of a relation are computed once per attribute
list and reused by every CFD over those attributes (constant checks,
variable checks, IDX builds and shipment scans alike), instead of once
per tuple per CFD as in the row backend.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Iterable, Mapping, Sequence
from weakref import WeakKeyDictionary

from repro.core.cfd import CFD, UNNAMED
from repro.distributed.serialization import TID_BYTES
from repro.columnar.masks import mask_to_tids
from repro.columnar.store import ColumnStore
from repro.obs import profile as _prof

#: Sentinel for "a pattern constant never occurs in this store".
_UNSATISFIABLE = object()

#: Per-store cache of compiled pattern tests: ``store -> {cfd: (tests,
#: generations)}``.  ``generations`` snapshots the constant attributes'
#: dictionary generations and is consulted only for
#: :data:`_UNSATISFIABLE` entries — a missing constant may gain a code
#: when its dictionary grows, while positive entries never invalidate
#: (dictionaries are append-only, so assigned codes are stable for the
#: lifetime of the store).
_PATTERN_TEST_CACHE: "WeakKeyDictionary[ColumnStore, dict[CFD, tuple[Any, tuple[tuple[str, int], ...]]]]" = (
    WeakKeyDictionary()
)


def _compile_pattern_tests(
    store: ColumnStore, cfd: CFD
) -> "list[tuple[int, int]] | object":
    pattern = cfd.pattern
    tests: list[tuple[int, int]] = []
    for i, a in enumerate(cfd.lhs):
        entry = pattern.entry(a)
        if entry is UNNAMED:
            continue
        code = store.dictionary(a).code_of(entry)
        if code is None:
            return _UNSATISFIABLE
        tests.append((i, code))
    return tests


def _pattern_tests(store: ColumnStore, cfd: CFD) -> "list[tuple[int, int]] | object":
    """The positional ``(index, code)`` tests a group key must pass to
    match the CFD's LHS pattern constants — :data:`_UNSATISFIABLE` when a
    constant value never occurs in the store (no row can match).

    Compiled once per (store, CFD) and cached: repeated waves stop
    re-encoding the tableau constants on every sweep.  Unsatisfiable
    results re-check when any constant attribute's dictionary generation
    changed (new codes may have made the constant reachable)."""
    per_store = _PATTERN_TEST_CACHE.get(store)
    if per_store is None:
        per_store = _PATTERN_TEST_CACHE[store] = {}
    cached = per_store.get(cfd)
    if cached is not None:
        tests, generations = cached
        if tests is not _UNSATISFIABLE or all(
            store.dictionary(a).generation == generation
            for a, generation in generations
        ):
            return tests
    tests = _compile_pattern_tests(store, cfd)
    if tests is _UNSATISFIABLE:
        generations = tuple(
            (a, store.dictionary(a).generation)
            for a in cfd.lhs
            if cfd.pattern.entry(a) is not UNNAMED
        )
    else:
        generations = ()
    per_store[cfd] = (tests, generations)
    return tests


def _matching_group_items(
    store: ColumnStore, cfd: CFD
) -> Iterable[tuple[Any, list[int]]]:
    """The ``(code_key, rows)`` groups over ``cfd.lhs`` whose key matches
    the CFD's LHS pattern constants (all groups for an all-wildcard LHS)."""
    lhs = cfd.lhs
    groups = store.grouped_rows(lhs)
    tests = _pattern_tests(store, cfd)
    if tests is _UNSATISFIABLE:
        return ()
    if not tests:
        return groups.items()
    if len(lhs) == 1:
        code = tests[0][1]
        rows = groups.get(code)
        return ((code, rows),) if rows is not None else ()
    return (
        (key, rows)
        for key, rows in groups.items()
        if all(key[i] == code for i, code in tests)
    )


def _matching_group_masks(store: ColumnStore, cfd: CFD) -> Iterable[int]:
    """The row bitsets of the LHS groups matching the pattern constants."""
    lhs = cfd.lhs
    masks = store.grouped_masks(lhs)
    tests = _pattern_tests(store, cfd)
    if tests is _UNSATISFIABLE:
        return ()
    if not tests:
        return masks.values()
    if len(lhs) == 1:
        mask = masks.get(tests[0][1])
        return (mask,) if mask is not None else ()
    return (
        mask
        for key, mask in masks.items()
        if all(key[i] == code for i, code in tests)
    )


# -- violation kernels (CentralizedDetector.violations_of equivalents) ---------------


def constant_violation_mask(cfd: CFD, store: ColumnStore) -> int:
    """``V(phi, D)`` for a constant CFD, as a row bitset.

    Rows matching the LHS pattern are OR-ed into one bitset; subtracting
    the (cached, shared across CFDs on the same RHS) mask of rows that
    already carry the required RHS code leaves exactly the violating rows
    — no per-tuple set is built at all.
    """
    if _prof.enabled:
        _t0 = perf_counter()
    matching = 0
    for mask in _matching_group_masks(store, cfd):
        matching |= mask
    bad = 0
    if matching:
        rhs_code = store.dictionary(cfd.rhs).code_of(cfd.pattern.entry(cfd.rhs))
        if rhs_code is None:
            bad = matching  # the required constant never occurs: all match rows violate
        else:
            bad = matching & ~store.grouped_masks((cfd.rhs,)).get(rhs_code, 0)
    if _prof.enabled:
        _prof.note("columnar.constant_sweep", perf_counter() - _t0, len(store))
    return bad


def variable_violation_mask(cfd: CFD, store: ColumnStore) -> int:
    """``V(phi, D)`` for a variable CFD, as a row bitset: groups holding
    more than one distinct RHS code.

    A group is clean iff its bitset is contained in the bitset of a
    single RHS code (``group & ~rhs_mask == 0``): two big-int ops per
    group against the cached per-code RHS masks, accumulating violating
    groups into one bitset.
    """
    if _prof.enabled:
        _t0 = perf_counter()
    rhs_col = store.codes(cfd.rhs)
    rhs_masks = store.grouped_masks((cfd.rhs,))
    bad = 0
    for mask in _matching_group_masks(store, cfd):
        if mask.bit_count() < 2:
            continue
        first_row = (mask & -mask).bit_length() - 1
        if mask & ~rhs_masks.get(rhs_col[first_row], 0):
            bad |= mask
    if _prof.enabled:
        _prof.note("columnar.variable_sweep", perf_counter() - _t0, len(store))
    return bad


def violation_mask(cfd: CFD, store: ColumnStore) -> int:
    """``V(phi, D)`` for one CFD as a row bitset (the compact wire form:
    a warm worker returns this and the coordinator decodes it against
    its own copy of the fragment)."""
    if cfd.is_constant():
        return constant_violation_mask(cfd, store)
    return variable_violation_mask(cfd, store)


def constant_violations(cfd: CFD, store: ColumnStore) -> set[Any]:
    """``V(phi, D)`` for a constant CFD, decoded to tids."""
    return mask_to_tids(store, constant_violation_mask(cfd, store))


def variable_violations(cfd: CFD, store: ColumnStore) -> set[Any]:
    """``V(phi, D)`` for a variable CFD, decoded to tids."""
    return mask_to_tids(store, variable_violation_mask(cfd, store))


def violations_of(cfd: CFD, store: ColumnStore) -> set[Any]:
    """``V(phi, D)`` for one CFD — the columnar twin of the row-backend scan."""
    return mask_to_tids(store, violation_mask(cfd, store))


# -- bulk index construction -----------------------------------------------------------


def build_cfd_index(index: Any, store: ColumnStore) -> None:
    """Populate a :class:`~repro.indexes.idx.CFDIndex` from encoded columns.

    The grouped LHS keys are computed once for the whole relation (and
    shared with every other kernel over the same attributes), then each
    group is decoded once and loaded wholesale — instead of re-resolving
    pattern entries and building a key tuple per tuple.
    """
    if _prof.enabled:
        _t0 = perf_counter()
    cfd = index.cfd
    rhs_col = store.codes(cfd.rhs)
    rhs_dict = store.dictionary(cfd.rhs)
    tid_at = store.tid_of_row
    for key, rows in _matching_group_items(store, cfd):
        by_rhs: dict[int, set[Any]] = {}
        for r in rows:
            code = rhs_col[r]
            bucket = by_rhs.get(code)
            if bucket is None:
                by_rhs[code] = {tid_at(r)}
            else:
                bucket.add(tid_at(r))
        index.load_group(
            store.decode_key(cfd.lhs, key),
            {rhs_dict.value(code): tids for code, tids in by_rhs.items()},
        )
    if _prof.enabled:
        _prof.note("idx.build_columnar", perf_counter() - _t0, len(store))


# -- shipment scans (batch baselines) ---------------------------------------------------


def _shipment(
    store: ColumnStore, attributes: Sequence[str], rows: Any
) -> tuple[int, int]:
    """``(count, bytes)`` of shipping ``rows`` projected onto ``attributes``.

    A tid per row plus, per attribute, the dictionary's cached per-code
    wire sizes summed over the rows' codes — ``estimate_tuple_bytes``
    byte for byte, with no Python-level step per row.  ``rows`` is any
    sized iterable of physical row indices.
    """
    nbytes = TID_BYTES * len(rows)
    for a in attributes:
        sizes = store.dictionary(a).byte_sizes()
        nbytes += sum(map(sizes.__getitem__, map(store.codes(a).__getitem__, rows)))
    return len(rows), nbytes


def horizontal_batch_scan(
    store: ColumnStore, cfd: CFD, want_ship: bool
) -> tuple[tuple[int, int], tuple[list[int], list[int]]]:
    """One site's scan for a general CFD in ``batHor``.

    Returns ``(shipment, groups)``.  ``shipment`` is the ``(count,
    bytes)`` total of the pattern-matching tuples' ``cfd.attributes``
    projections, ``(0, 0)`` unless this site ships for the CFD.
    ``groups`` holds the fragment's partial LHS groups for the
    coordinator merge, flattened to one ``(LHS key, RHS value)`` bucket
    each and kept in row space as ``(singles, multis)``: a bare row
    index for the common singleton bucket, a row bitset otherwise.

    Nothing is decoded.  That is the wire form a warm worker sends back:
    a replica built from the coordinator's full physical export plus its
    journal deltas assigns identical row indices (codes may drift —
    fragment dictionaries are shared across stores coordinator-side —
    which is why no code crosses the pipe), so the coordinator recovers
    each bucket's key and RHS value from any member row of its own copy
    of the fragment (see ``HorizontalBatchDetector.detect``).  Bytes are
    priced here, from this store's own per-code sizes.
    """
    if _prof.enabled:
        _t0 = perf_counter()
    rhs_col = store.codes(cfd.rhs)
    ship_rows: list[int] = []
    singles: list[int] = []
    multis: list[int] = []
    for _key, rows in _matching_group_items(store, cfd):
        if want_ship:
            ship_rows.extend(rows)
        by_code: dict[int, int] = {}
        for r in rows:
            code = rhs_col[r]
            by_code[code] = by_code.get(code, 0) | (1 << r)
        for mask in by_code.values():
            if mask & (mask - 1):
                multis.append(mask)
            else:
                singles.append(mask.bit_length() - 1)
    shipment = _shipment(store, cfd.attributes, ship_rows)
    if _prof.enabled:
        _prof.note("shipment.batch_scan", perf_counter() - _t0, len(store))
    return shipment, (singles, multis)


def constant_ship_scan(
    store: ColumnStore, relevant: Sequence[str], constants: Mapping[str, Any]
) -> tuple[int, int]:
    """``batVer``: the ``(count, bytes)`` total of shipping the
    ``relevant`` projection of every tuple that matches the pattern
    constants on it (column sweep, cached per-code sizes)."""
    if _prof.enabled:
        _t0 = perf_counter()
    rows: Any = store.iter_rows()
    for a in relevant:
        if a in constants:
            code = store.dictionary(a).code_of(constants[a])
            col = store.codes(a)
            rows = [r for r in rows if col[r] == code] if code is not None else ()
    shipment = _shipment(store, relevant, rows)
    if _prof.enabled:
        _prof.note("shipment.constant_scan", perf_counter() - _t0, len(store))
    return shipment


def project_ship_scan(store: ColumnStore, supplied: Sequence[str]) -> tuple[int, int]:
    """``batVer``: the ``(count, bytes)`` total of shipping every
    tuple's ``supplied`` projection."""
    if _prof.enabled:
        _t0 = perf_counter()
    shipment = _shipment(store, supplied, store.iter_rows())
    if _prof.enabled:
        _prof.note("shipment.project_scan", perf_counter() - _t0, len(store))
    return shipment
