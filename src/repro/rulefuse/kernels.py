"""One-pass multi-CFD validation kernels, per storage backend.

Each kernel here is the fused-group equivalent of calling a per-rule
kernel once per CFD, and produces *identical* results:

* columnar — one grouped-LHS pass per fused group: the group keys (and
  their row bitsets) are fetched once, each member rule accepts keys
  through its precompiled pattern-constant code tests, constant members
  accumulate matching-row bitsets, and variable members share the
  per-group verdict work (popcount, first row, per-RHS-attribute
  dirty check) instead of re-deriving it per rule;
* SQL — one tagged query per fused group
  (:func:`repro.sqlstore.compiler.fused_violation_query`): the
  per-member results come back in a single result set and split by the
  leading rule-tag column;
* rows — a single scan evaluating every member's compiled predicates
  per tuple, computing each group's LHS value key once per tuple.

The bulk index builder follows the same shape: one sweep per fused
group populates every same-LHS :class:`~repro.indexes.idx.CFDIndex`,
sharing the decoded RHS buckets between members on the same RHS.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Iterable, Sequence

from repro.core.cfd import CFD, UNNAMED
from repro.obs import profile as _prof
from repro.rulefuse.compiler import FusedGroup, compile_rule_set

# -- columnar ----------------------------------------------------------------------------


def _member_group_masks(
    grouped: dict, tests: Any, single: bool
) -> Iterable[tuple[Any, int]]:
    """The ``(key, mask)`` LHS groups one member's pattern constants accept
    (the fused twin of ``_matching_group_masks``, keys included so the
    shared verdict memos can be keyed)."""
    if not tests:
        return grouped.items()
    if single:
        code = tests[0][1]
        mask = grouped.get(code)
        return ((code, mask),) if mask is not None else ()
    return (
        (key, mask)
        for key, mask in grouped.items()
        if all(key[i] == code for i, code in tests)
    )


def fused_group_masks(store: Any, group: FusedGroup) -> list[int]:
    """Violation bitsets for every member of one fused group.

    Bit-identical to calling :func:`repro.columnar.kernels.violation_mask`
    per member, but the variable members never walk the per-group
    verdict loop at all.  A group violates a variable CFD iff its LHS
    key splits into more than one key of the ``(*lhs, rhs)`` grouping —
    so one pass over the *extended* group keys finds the dirty LHS keys
    (an O(#keys) prefix count, no bigint algebra), and only the dirty
    groups — error-rate-bound, typically a handful — pay mask ORs.  The
    dirty map is computed once per distinct RHS attribute and shared by
    every member on that RHS; a tableau of k same-RHS pattern rows pays
    for one dirty scan, then filters the dirty keys through its own
    pattern constants.
    """
    from repro.columnar import kernels as ck

    members = group.members
    if len(members) == 1:
        return [ck.violation_mask(members[0], store)]
    if _prof.enabled:
        _t0 = perf_counter()
    lhs = group.lhs
    n_lhs = len(lhs)
    grouped = None  # LHS masks, fetched lazily: only constant members need them
    single = n_lhs == 1

    acc = [0] * len(members)
    #: rhs attr -> (dirty LHS key -> full group mask, OR of all dirty masks).
    rhs_memo: dict[str, tuple[dict[Any, int], int]] = {}
    for m, cfd in enumerate(members):
        tests = ck._pattern_tests(store, cfd)
        if tests is ck._UNSATISFIABLE:
            continue
        if cfd.is_constant():
            if grouped is None:
                grouped = store.grouped_masks(lhs)
            matching = 0
            for _key, mask in _member_group_masks(grouped, tests, single):
                matching |= mask
            bad = 0
            if matching:
                rhs_code = store.dictionary(cfd.rhs).code_of(
                    cfd.pattern.entry(cfd.rhs)
                )
                if rhs_code is None:
                    bad = matching
                else:
                    bad = matching & ~store.grouped_masks((cfd.rhs,)).get(
                        rhs_code, 0
                    )
            acc[m] = bad
            continue
        rhs = cfd.rhs
        memo = rhs_memo.get(rhs)
        if memo is None:
            extended = store.grouped_masks((*lhs, rhs))
            counts: dict[Any, int] = {}
            for key in extended:
                prefix = key[:n_lhs]
                counts[prefix] = counts.get(prefix, 0) + 1
            dirty: dict[Any, int] = {}
            bad_all = 0
            for key, mask in extended.items():
                prefix = key[:n_lhs]
                if counts[prefix] > 1:
                    dirty[prefix] = dirty.get(prefix, 0) | mask
            for mask in dirty.values():
                bad_all |= mask
            memo = rhs_memo[rhs] = (dirty, bad_all)
        dirty, bad_all = memo
        if not tests:
            acc[m] = bad_all
        elif single:
            acc[m] = dirty.get((tests[0][1],), 0)
        else:
            bad = 0
            for prefix, mask in dirty.items():
                if all(prefix[i] == code for i, code in tests):
                    bad |= mask
            acc[m] = bad
    if _prof.enabled:
        _prof.note("rulefuse.columnar_sweep", perf_counter() - _t0, len(store))
    return acc


def fused_columnar_masks(store: Any, cfds: Sequence[CFD]) -> list[int]:
    """Per-rule violation bitsets for a whole rule set, in input order."""
    out = [0] * len(cfds)
    for group in compile_rule_set(cfds):
        for i, mask in zip(group.indexes, fused_group_masks(store, group)):
            out[i] = mask
    return out


# -- SQL ---------------------------------------------------------------------------------


def fused_sql_violations(store: Any, cfds: Sequence[CFD]) -> list[set[Any]]:
    """Per-rule violating tids via one tagged query per fused group."""
    from repro.sqlstore import compiler as sql_compiler
    from repro.sqlstore.store import decode_value

    out: list[set[Any]] = [set() for _ in cfds]
    for group in compile_rule_set(cfds):
        if _prof.enabled:
            _t0 = perf_counter()
        sql, params = sql_compiler.fused_violation_query(store, group.members)
        for rule, tid in store.query_all(sql, params):
            out[group.indexes[rule]].add(decode_value(tid))
        if _prof.enabled:
            _prof.note("rulefuse.sql_query", perf_counter() - _t0, len(store))
    return out


# -- rows --------------------------------------------------------------------------------


def _rows_member_plan(
    group: FusedGroup,
) -> list[tuple[int, tuple[tuple[int, Any], ...], str, Any, dict | None]]:
    """Compiled per-member predicates: positional LHS constants, the RHS
    attribute, the RHS pattern constant (constant members) and a group
    bucket (variable members)."""
    plan = []
    for m, cfd in zip(group.indexes, group.members):
        consts = tuple(
            (i, cfd.pattern.entry(a))
            for i, a in enumerate(group.lhs)
            if cfd.pattern.entry(a) is not UNNAMED
        )
        if cfd.is_constant():
            plan.append((m, consts, cfd.rhs, cfd.pattern.entry(cfd.rhs), None))
        else:
            plan.append((m, consts, cfd.rhs, UNNAMED, {}))
    return plan


def fused_rows_violations(cfds: Sequence[CFD], tuples: Iterable[Any]) -> list[set[Any]]:
    """Per-rule violating tids from one scan over row-backed tuples."""
    if _prof.enabled:
        _t0 = perf_counter()
        count = 0
    out: list[set[Any]] = [set() for _ in cfds]
    plans = [
        (group.lhs, _rows_member_plan(group)) for group in compile_rule_set(cfds)
    ]
    for t in tuples:
        if _prof.enabled:
            count += 1
        tid = t.tid
        for lhs, plan in plans:
            key = tuple(t[a] for a in lhs)
            for m, consts, rhs, rhs_const, buckets in plan:
                ok = True
                for i, c in consts:
                    if not (key[i] == c):
                        ok = False
                        break
                if not ok:
                    continue
                if buckets is None:
                    if not (t[rhs] == rhs_const):
                        out[m].add(tid)
                else:
                    buckets.setdefault(key, {}).setdefault(t[rhs], []).append(tid)
    for _lhs, plan in plans:
        for m, _consts, _rhs, _rhs_const, buckets in plan:
            if buckets is None:
                continue
            for by_rhs in buckets.values():
                if len(by_rhs) > 1:
                    for tids in by_rhs.values():
                        out[m].update(tids)
    if _prof.enabled:
        _prof.note("rulefuse.rows_scan", perf_counter() - _t0, count)
    return out


# -- dispatch ----------------------------------------------------------------------------


def fused_violations(cfds: Iterable[CFD], tuples: Any) -> list[set[Any]]:
    """``V(phi, D)`` for every rule of a set, one pass per fused group.

    The fused twin of calling
    :meth:`~repro.core.detector.CentralizedDetector.violations_of` per
    rule: returns the violation sets aligned with the input rule order,
    with identical contents on every backend.
    """
    cfds = list(cfds)
    if not cfds:
        return []
    from repro.columnar.store import column_store_of
    from repro.sqlstore.store import sql_store_of

    store = column_store_of(tuples)
    if store is not None:
        from repro.columnar.masks import mask_to_tids

        return [mask_to_tids(store, m) for m in fused_columnar_masks(store, cfds)]
    sql_store = sql_store_of(tuples)
    if sql_store is not None:
        return fused_sql_violations(sql_store, cfds)
    return fused_rows_violations(cfds, tuples)


# -- bulk index construction -------------------------------------------------------------


def _build_indexes_columnar(store: Any, indexes: Sequence[Any]) -> None:
    from repro.columnar import kernels as ck

    by_lhs: dict[tuple[str, ...], list[Any]] = {}
    for index in indexes:
        by_lhs.setdefault(index.cfd.lhs, []).append(index)
    for lhs, group in by_lhs.items():
        if len(group) == 1:
            ck.build_cfd_index(group[0], store)
            continue
        if _prof.enabled:
            _t0 = perf_counter()
        grouped = store.grouped_rows(lhs)
        single = len(lhs) == 1
        tid_at = store.tid_of_row
        specs: list[tuple[Any, Any, str]] = []
        rhs_cols: dict[str, tuple[Any, Any]] = {}
        for index in group:
            tests = ck._pattern_tests(store, index.cfd)
            if tests is ck._UNSATISFIABLE:
                continue
            rhs = index.cfd.rhs
            if rhs not in rhs_cols:
                rhs_cols[rhs] = (store.codes(rhs), store.dictionary(rhs))
            specs.append((index, tests, rhs))
        for key, rows in grouped.items():
            decoded_key = None
            # Same-RHS members share the decoded bucket: load_group
            # copies the tid sets, so the dict is safe to reuse.
            decoded_by_rhs: dict[str, dict[Any, set[Any]]] = {}
            for index, tests, rhs in specs:
                if tests:
                    if single:
                        if key != tests[0][1]:
                            continue
                    elif not all(key[i] == code for i, code in tests):
                        continue
                decoded = decoded_by_rhs.get(rhs)
                if decoded is None:
                    rhs_col, rhs_dict = rhs_cols[rhs]
                    by_code: dict[int, set[Any]] = {}
                    for r in rows:
                        code = rhs_col[r]
                        bucket = by_code.get(code)
                        if bucket is None:
                            by_code[code] = {tid_at(r)}
                        else:
                            bucket.add(tid_at(r))
                    decoded = {
                        rhs_dict.value(code): tids for code, tids in by_code.items()
                    }
                    decoded_by_rhs[rhs] = decoded
                if decoded_key is None:
                    decoded_key = store.decode_key(lhs, key)
                index.load_group(decoded_key, decoded)
        if _prof.enabled:
            _prof.note("rulefuse.idx_build_columnar", perf_counter() - _t0, len(store))


def _build_indexes_sql(store: Any, indexes: Sequence[Any]) -> None:
    from repro.sqlstore import compiler as sql_compiler
    from repro.sqlstore import kernels as sql_kernels
    from repro.sqlstore.store import decode_value

    by_lhs: dict[tuple[str, ...], list[Any]] = {}
    for index in indexes:
        by_lhs.setdefault(index.cfd.lhs, []).append(index)
    for lhs, group in by_lhs.items():
        if len(group) == 1:
            sql_kernels.build_cfd_index(group[0], store)
            continue
        if _prof.enabled:
            _t0 = perf_counter()
        n_lhs = len(lhs)
        rhs_attrs: list[str] = []
        for index in group:
            if index.cfd.rhs not in rhs_attrs:
                rhs_attrs.append(index.cfd.rhs)
        sql, params = sql_compiler.projection_query(store, (*lhs, *rhs_attrs))
        rhs_pos = {a: 1 + n_lhs + j for j, a in enumerate(rhs_attrs)}
        # Per member: positional *encoded* LHS constants (raw-cell
        # comparison reproduces the engine's null-safe equality), the
        # member's RHS column position, and its group accumulator.
        specs = []
        for index in group:
            cfd = index.cfd
            consts = tuple(
                (1 + lhs.index(a), store.encode(constant))
                for a, constant in sql_compiler.pattern_constants(cfd)
            )
            specs.append((index, consts, rhs_pos[cfd.rhs], {}))
        for row in store.query_all(sql, params):
            decoded_tid = None
            decoded_key = None
            decoded_rhs: dict[int, Any] = {}
            for _index, consts, rpos, groups in specs:
                ok = True
                for p, c in consts:
                    if not (row[p] == c):
                        ok = False
                        break
                if not ok:
                    continue
                if decoded_key is None:
                    decoded_tid = decode_value(row[0])
                    decoded_key = tuple(
                        decode_value(v) for v in row[1 : 1 + n_lhs]
                    )
                if rpos in decoded_rhs:
                    rhs_value = decoded_rhs[rpos]
                else:
                    rhs_value = decoded_rhs[rpos] = decode_value(row[rpos])
                groups.setdefault(decoded_key, {}).setdefault(
                    rhs_value, set()
                ).add(decoded_tid)
        for index, _consts, _rpos, groups in specs:
            for key, by_rhs in groups.items():
                index.load_group(key, by_rhs)
        if _prof.enabled:
            _prof.note("rulefuse.idx_build_sql", perf_counter() - _t0, len(store))


def build_indexes(indexes: Sequence[Any], tuples: Any) -> None:
    """Populate many :class:`~repro.indexes.idx.CFDIndex` instances with
    one sweep per fused LHS group (identical contents to calling
    ``build_from`` once per index)."""
    indexes = [index for index in indexes]
    if not indexes:
        return
    if len(indexes) == 1:
        indexes[0].build_from(tuples)
        return
    from repro.columnar.store import column_store_of
    from repro.sqlstore.store import sql_store_of

    store = column_store_of(tuples)
    if store is not None:
        _build_indexes_columnar(store, indexes)
        return
    sql_store = sql_store_of(tuples)
    if sql_store is not None:
        _build_indexes_sql(sql_store, indexes)
        return
    if _prof.enabled:
        _t0 = perf_counter()
        count = 0
        for t in tuples:
            count += 1
            for index in indexes:
                index.add_tuple(t)
        _prof.note("rulefuse.idx_build_rows", perf_counter() - _t0, count)
        return
    for t in tuples:
        for index in indexes:
            index.add_tuple(t)
