"""Compile CFD checks to set-oriented SQL (the paper's two-query form).

For a centralized database the paper observes that two SQL queries per
tableau suffice to find ``V(Sigma, D)``: one ``WHERE`` filter for the
constant patterns and one grouped query for the variable patterns.
:func:`fused_violation_query` emits exactly those shapes — for a whole
same-LHS rule group, in one tagged query — against a
:class:`~repro.sqlstore.store.SqlStore`'s ``data`` table, and the scan
queries return the constant-filtered projections the IDX builds and
batVer's shipment scans price in Python.  batHor's key summary groups
in the engine (:func:`pair_count_query`), and its dirty-tid fetch joins
a key table (:func:`keyed_tids_query`).

Every query is compiled once per (store, rule shape) through the store's
``cached_sql`` cache and parameterized — constants travel as bind
parameters in the store's value encoding (:func:`encode_value`), never
as SQL text.  Null-safe equality is sqlite's ``IS`` / ``IS NOT``.
"""

from __future__ import annotations

import pickle
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from repro.core.cfd import CFD, UNNAMED

if TYPE_CHECKING:
    from repro.sqlstore.store import SqlStore

#: Tag byte prefixing pickled (non-native) values in the engine.
_PICKLE_TAG = b"\x01"


def encode_value(value: Any) -> Any:
    """Encode a Python value for storage/comparison inside the engine.

    Native for ``str``/``int``/``float``/``None`` (engine equality then
    matches Python's), tagged pickle blob for everything else (equality
    degrades to byte equality of the pickle — exact for ``bool`` and
    deterministic for the simple immutables that appear as data values).
    """
    if value is None or type(value) in (str, int, float):
        return value
    return _PICKLE_TAG + pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


def decode_value(value: Any) -> Any:
    """Invert :func:`encode_value`."""
    if isinstance(value, bytes):
        return pickle.loads(value[1:])
    return value


def pattern_constants(cfd: CFD) -> list[tuple[str, Any]]:
    """The LHS attributes the pattern pins, with their constants."""
    return [
        (a, cfd.pattern.entry(a))
        for a in cfd.lhs
        if cfd.pattern.entry(a) is not UNNAMED
    ]


def shared_constants(cfds: Sequence[CFD]) -> dict[str, Any]:
    """The LHS constants every rule of ``cfds`` pins to the very same value."""
    first, *rest = cfds
    return {
        a: constant
        for a, constant in pattern_constants(first)
        if all(
            type(cfd.pattern.entry(a)) is type(constant)
            and cfd.pattern.entry(a) == constant
            for cfd in rest
        )
    }


def pattern_filter(
    store: SqlStore, cfd: CFD, alias: str = ""
) -> tuple[str, tuple[Any, ...]]:
    """``t[X] ~ tp[X]`` as a WHERE conjunction plus bind parameters."""
    prefix = f"{alias}." if alias else ""
    clauses = []
    params = []
    for a, constant in pattern_constants(cfd):
        clauses.append(f"{prefix}{store.column(a)} IS ?")
        params.append(encode_value(constant))
    return " AND ".join(clauses) or "1 = 1", tuple(params)


def fused_violation_query(
    store: SqlStore, cfds: Sequence[CFD]
) -> tuple[str, tuple[Any, ...]]:
    """``V(phi, D)`` of every rule of one same-LHS group, as one tagged query.

    Each member contributes one ``UNION ALL`` branch prefixed with its
    position in ``cfds`` as a literal ``rule`` tag column, so the caller
    splits the shared result set back into per-rule violation sets:

    * a constant CFD is a single null-safe filter,
      ``WHERE <lhs pattern> AND rhs IS NOT ?``;
    * a variable CFD finds the LHS groups holding more than one distinct
      RHS value among the pattern-matching tuples (``COUNT(*) >
      COUNT(rhs)`` counts NULL as one more value, like Python's ``None``
      dict key) and joins back null-safely to enumerate their tids; both
      parts repeat the pattern filter, so its parameters appear twice.

    Branches carry no ``ORDER BY`` (compound-select members must not;
    the results are sets).  A group of one is the per-rule query; for
    more, one engine round-trip serves the group and the engine shares
    the table scan across branches.
    """
    parts: list[str] = []
    params: list[Any] = []
    key_parts: list[tuple] = []
    for i, cfd in enumerate(cfds):
        where, p = pattern_filter(store, cfd)
        const_attrs = tuple(a for a, _ in pattern_constants(cfd))
        rhs = store.column(cfd.rhs)
        if cfd.is_constant():
            parts.append(
                f"SELECT {i} AS rule, tid FROM data WHERE {where} "
                f"AND {rhs} IS NOT ?"
            )
            params.extend(p)
            params.append(encode_value(cfd.pattern.entry(cfd.rhs)))
            key_parts.append(("const", cfd.lhs, cfd.rhs, const_attrs))
        else:
            lhs_cols = [store.column(a) for a in cfd.lhs]
            where_d, _ = pattern_filter(store, cfd, alias="d")
            keys = ", ".join(f"{c} AS k{j}" for j, c in enumerate(lhs_cols))
            group_by = ", ".join(lhs_cols)
            on = " AND ".join(f"d.{c} IS g.k{j}" for j, c in enumerate(lhs_cols))
            parts.append(
                f"SELECT {i} AS rule, d.tid FROM data d JOIN ("
                f"SELECT {keys} FROM data WHERE {where} GROUP BY {group_by} "
                f"HAVING COUNT(DISTINCT {rhs}) + (COUNT(*) > COUNT({rhs})) > 1"
                f") g ON {on} WHERE {where_d}"
            )
            params.extend(p)
            params.extend(p)
            key_parts.append(("var", cfd.lhs, cfd.rhs, const_attrs))

    def build() -> str:
        return " UNION ALL ".join(parts)

    sql = store.cached_sql(("fused", tuple(key_parts)), build)
    return sql, tuple(params)


def _pattern_key(kind: str, cfd: CFD) -> tuple:
    """The statement-cache key of a per-CFD query: its shape, not its constants."""
    return (kind, cfd.lhs, cfd.rhs, tuple(a for a, _ in pattern_constants(cfd)))


def pair_count_query(store: SqlStore, cfd: CFD) -> tuple[str, tuple[Any, ...]]:
    """``(lhs..., rhs, COUNT(*))`` per distinct ``(LHS, RHS)`` of the
    pattern-matching tuples: batHor's key summary, grouped in the engine."""
    where, params = pattern_filter(store, cfd)
    cols = ", ".join(store.column(a) for a in cfd.attributes)

    def build() -> str:
        return f"SELECT {cols}, COUNT(*) FROM data WHERE {where} GROUP BY {cols}"

    return store.cached_sql(_pattern_key("pairs", cfd), build), params


def key_scan_query(store: SqlStore, cfd: CFD) -> tuple[str, tuple[Any, ...]]:
    """The distinct stored LHS keys of the pattern-matching tuples."""
    where, params = pattern_filter(store, cfd)
    cols = ", ".join(store.column(a) for a in cfd.lhs)

    def build() -> str:
        return f"SELECT DISTINCT {cols} FROM data WHERE {where}"

    return store.cached_sql(_pattern_key("keys", cfd), build), params


def keyed_tids_query(store: SqlStore, cfd: CFD, table: str) -> tuple[str, tuple[Any, ...]]:
    """The tids of the pattern-matching tuples whose stored LHS key is a row
    of ``table`` (columns ``k0, k1, ...``), joined null-safely, in order."""
    where, params = pattern_filter(store, cfd, alias="d")
    on = " AND ".join(f"d.{store.column(a)} IS k.k{j}" for j, a in enumerate(cfd.lhs))

    def build() -> str:
        return f"SELECT d.tid FROM data d JOIN {table} k ON {on} WHERE {where} ORDER BY d.seq"

    return store.cached_sql((*_pattern_key("keyed", cfd), table), build), params


def constant_match_query(
    store: SqlStore,
    relevant: Sequence[str],
    constants: Mapping[str, Any],
) -> tuple[str, tuple[Any, ...]]:
    """``(tid, relevant...)`` of every tuple equal to ``constants`` on the
    ``relevant`` attributes they pin — of every tuple when none is pinned.

    The vertical batch detector's ship scans and the IDX builds'
    projections.
    """
    constrained = [a for a in relevant if a in constants]
    clauses = " AND ".join(f"{store.column(a)} IS ?" for a in constrained) or "1 = 1"
    cols = ", ".join(store.column(a) for a in relevant)
    select = f"tid{', ' + cols if cols else ''}"

    def build() -> str:
        return f"SELECT {select} FROM data WHERE {clauses} ORDER BY seq"

    key = ("cmatch", tuple(relevant), tuple(constrained))
    sql = store.cached_sql(key, build)
    return sql, tuple(encode_value(constants[a]) for a in constrained)
