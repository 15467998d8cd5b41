"""Pluggable tuple-storage backends for :class:`~repro.core.relation.Relation`.

A relation's logical contract — tuples indexed by tid, O(1) membership,
insertion order preserved — is independent of how the tuples are laid
out in memory.  This module defines the backend protocol the
:class:`~repro.core.relation.Relation` front-end delegates to, plus the
default :class:`RowStore` (one :class:`~repro.core.tuples.Tuple` object
per row).  The columnar backend (:mod:`repro.columnar`) and the SQL
backend (:mod:`repro.sqlstore`) register themselves here by name, so
sessions select a backend per run (``repro.session(...).storage("sql")``).

Besides the dict-like contract, every backend implements, once, the
relation algebra of the fragmentations of Section 2.2, so ``Relation``
and the partitioners never ask which backend they hold.  Each operation
returns a store of the receiver's backend, whatever backend its operands
are on (:class:`TupleStore` is the one implementation of the backends
that hold tuples, rows and sql):

* ``project(attributes)``;
* ``select(predicate)`` — ``predicate`` reads a mapping with ``.tid``;
* ``split(route, sites)`` — ``{site: the rows route sends there}``;
* ``join(others, attributes)`` — the n-ary key join: the tids stored in
  every operand, in this store's order; disagreeing copies of a shared
  attribute raise ``ValueError``;
* ``extend(other)``, ``bulk_load(tuples)`` — append rows whose tids the
  caller has checked are fresh.

Every backend likewise implements each operation a detector needs:

* ``check(groups)`` — per-rule violations of compiled rule groups (one
  sweep per group), one result per member in group order, in the
  store's wire form: row bitsets on columnar, tid sets on sql, tid
  lists (no tid twice) on rows;
* ``tids_of(result)`` — one ``check`` result decoded to tids by this store;
* ``build_indexes(indexes)`` — populate IDX indexes, one sweep per LHS list;
* ``group_scan(cfd, want_ship, prices)`` — batHor's site scan: the
  ``(count, bytes)`` of the pattern-matching tuples' projections and
  their partial LHS groups;
* ``merge_groups(target, cfd, groups)`` — fold one ``group_scan`` result
  into the coordinator's groups, decoding it with this store;
* ``ship_scan(attributes, constants, prices)`` — batVer's site scan: the
  ``(count, bytes)`` of the ``attributes`` projection of the tuples equal
  to ``constants`` (a plain projection when ``constants`` is empty);
* ``estimate_bytes(attributes)`` — the wire size of shipping the whole store;
* ``distinct_counts(sample_limit)`` — distinct values per attribute;
* ``statement_cache_info()`` — prepared-statement cache counters, or
  None on backends that prepare no statements.

Every backend answers alike (``tests/test_storage_protocol.py``), and
every detection operation but ``tids_of`` notes a profile hook.

A vertical fragment is no store of its own: :class:`ProjectionView`
shows some attributes of one resident relation, on any backend, and
runs every operation above on the resident store.
"""

from __future__ import annotations

from collections import Counter
from itertools import compress, groupby, islice, repeat, starmap
from operator import attrgetter, eq, itemgetter, not_
from time import perf_counter
from typing import Any, Callable, Iterable, Iterator, KeysView, Protocol, Sequence, runtime_checkable

from repro.core.cfd import CFD, UNNAMED
from repro.core.schema import Schema
from repro.core.tuples import Tuple, rows_of, tuple_factory
from repro.obs import profile as _prof


class StorageError(ValueError):
    """Raised on unknown storage backend names or duplicate registrations."""


@runtime_checkable
class StorageBackend(Protocol):
    """The storage contract behind a :class:`~repro.core.relation.Relation`.

    Implementations own the physical layout; the relation front-end owns
    schema validation and error reporting.  Iteration must yield tuples
    in insertion order (deleted tids drop out; re-inserting a tid moves
    it to the end), matching ``dict`` semantics so the built-in backends
    are observably identical.  The algebra and detection operations are
    described in the module docstring.
    """

    #: Registry name of the backend ("rows", "columnar", ...).
    name: str

    #: The stored attribute names, in schema order.
    attributes: tuple[str, ...]

    def __len__(self) -> int: ...

    def __iter__(self) -> Iterator[Tuple]: ...

    def __contains__(self, tid: Any) -> bool: ...

    def get(self, tid: Any) -> Tuple | None:
        """The tuple stored under ``tid``, or None."""
        ...

    def tids(self) -> KeysView[Any]:
        """A live, set-like view of the stored tids (do not mutate)."""
        ...

    def insert(self, t: Tuple) -> None:
        """Store ``t``; the caller has already checked the tid is fresh."""
        ...

    def pop(self, tid: Any) -> Tuple | None:
        """Remove and return the tuple under ``tid`` (None if absent)."""
        ...

    def copy(self) -> "StorageBackend":
        """An independent copy (subsequent mutations must not be shared)."""
        ...

    def bulk_load(self, tuples: Iterable[Tuple]) -> None: ...

    def project(self, attributes: Sequence[str]) -> "StorageBackend": ...

    def select(self, predicate: Callable[[Any], bool]) -> "StorageBackend": ...

    def split(
        self, route: Callable[[Any], Any], sites: Iterable[Any]
    ) -> dict[Any, "StorageBackend"]: ...

    def join(self, others: Sequence[Any], attributes: Sequence[str]) -> "StorageBackend": ...

    def extend(self, other: Any) -> None: ...

    def check(self, groups: Sequence[Any]) -> list[Any]: ...

    def tids_of(self, result: Any) -> set[Any]: ...

    def build_indexes(self, indexes: Sequence[Any]) -> None: ...

    def group_scan(self, cfd: CFD, want_ship: bool, prices: Any) -> tuple[tuple[int, int], Any]: ...

    def merge_groups(self, target: dict, cfd: CFD, groups: Any) -> None: ...

    def ship_scan(self, attributes: Sequence[str], constants: dict, prices: Any) -> tuple[int, int]: ...

    def estimate_bytes(self, attributes: Iterable[str] | None = None) -> int: ...

    def distinct_counts(self, sample_limit: int | None = None) -> dict[str, int]: ...

    def statement_cache_info(self) -> dict[str, int] | None: ...


def merge_decoded_groups(target: dict, groups: dict) -> None:
    """Fold decoded ``{lhs_key: {rhs_value: [tids]}}`` groups into ``target``."""
    if _prof.enabled:
        _t0 = perf_counter()
    for key, by_rhs in groups.items():
        slot = target.setdefault(key, {})
        for rhs_value, tids in by_rhs.items():
            slot.setdefault(rhs_value, []).extend(tids)
    if _prof.enabled:
        _prof.note("shipment.merge_groups", perf_counter() - _t0, len(groups))


_LAYOUT = attrgetter("_layout")
_VALS = attrgetter("_vals")


def _where(columns: list[list[Any]], tests: Sequence[tuple[int, Any]]) -> list[list[Any]]:
    """``columns`` cut to the rows whose column ``i`` equals ``constant``
    (``value == constant``) for every ``(i, constant)`` of ``tests``."""
    for i, constant in tests:
        keep = list(map(eq, columns[i], repeat(constant)))
        columns = [list(compress(column, keep)) for column in columns]
    return columns


def _keys(columns: list[list[Any]]) -> Iterable[Any]:
    """The per-row keys over ``columns``; a one-column key is the bare
    value (the same groups, and no tuple per row)."""
    return columns[0] if len(columns) == 1 else zip(*columns)


def _split_keys(keys: Iterable[Any], values: Iterable[Any]) -> set[Any]:
    """The keys paired with more than one distinct value, counted over
    the distinct ``(key, value)`` pairs."""
    counts = Counter(map(itemgetter(0), set(zip(keys, values))))
    return {key for key, n in counts.items() if n > 1}


class TupleStore:
    """The relation algebra of every backend that hands out stored tuples.

    Subclasses provide iteration, ``attributes``, ``bulk_load`` and
    ``_fresh(attributes)`` (an empty store of their own backend); every
    operation reads its operands as tuples, so an operand may be on any
    backend.
    """

    __slots__ = ()

    def project(self, attributes: Sequence[str]) -> Any:
        """The ``attributes`` of every tuple (positions resolved once per
        tuple layout), loaded in one go."""
        store = self._fresh(attributes)
        store.bulk_load(starmap(tuple_factory(attributes), rows_of(self, attributes)))
        return store

    def select(self, predicate: Callable[[Any], bool]) -> Any:
        store = self._fresh(self.attributes)
        store.bulk_load(t for t in self if predicate(t))
        return store

    def split(self, route: Callable[[Any], Any], sites: Iterable[Any]) -> dict[Any, Any]:
        routed: dict[Any, list[Tuple]] = {site: [] for site in sites}
        for t in self:
            routed[route(t)].append(t)
        parts = {}
        for site, tuples in routed.items():
            parts[site] = self._fresh(self.attributes)
            parts[site].bulk_load(tuples)
        return parts

    def join(self, others: Sequence[Any], attributes: Sequence[str]) -> Any:
        """The key join in one pass: every operand is read once, and each
        attribute is taken from the first operand holding it (an *owner
        plan* resolved once); the later copies of a shared attribute are
        compared column against column, and every tuple is assembled
        straight in ``attributes`` order — no chain of pairwise joins, no
        intermediate merged tuples."""
        stores = [self, *others]
        owner: dict[str, tuple[int, int]] = {}
        replicas: list[tuple[str, int, int]] = []
        for f, store in enumerate(stores):
            for p, attribute in enumerate(store.attributes):
                if attribute in owner:
                    replicas.append((attribute, f, p))
                else:
                    owner[attribute] = (f, p)
        missing = [a for a in attributes if a not in owner]
        if missing:
            raise ValueError(f"no operand stores attributes {missing}")

        rows = [dict(rows_of(store, store.attributes)) for store in stores]
        kept = rows[0].keys()
        for other in rows[1:]:
            kept = kept & other.keys()
        tids = list(rows[0]) if len(kept) == len(rows[0]) else [t for t in rows[0] if t in kept]
        parts = [list(map(by_tid.__getitem__, tids)) for by_tid in rows]
        del rows, kept

        columns = {a: list(map(itemgetter(p), parts[f])) for a, (f, p) in owner.items()}
        for attribute, f, p in replicas:
            mine, theirs = columns[attribute], list(map(itemgetter(p), parts[f]))
            if mine != theirs:
                for tid, x, y in zip(tids, mine, theirs):
                    if x != y:
                        raise ValueError(
                            f"conflicting values for attribute {attribute!r} "
                            f"while merging tid {tid!r}"
                        )
        joined = self._fresh(attributes)
        ordered = [columns[a] for a in attributes]
        joined.bulk_load(map(tuple_factory(attributes), tids, zip(*ordered)))
        return joined

    def extend(self, other: Any) -> None:
        self.bulk_load(other)

    def statement_cache_info(self) -> dict[str, int] | None:
        return None


class RowStore(TupleStore):
    """The default backend: one immutable Tuple object per row in a dict."""

    name = "rows"

    __slots__ = ("_tuples", "_attrs")

    def __init__(self, schema: Schema | None = None):
        self._tuples: dict[Any, Tuple] = {}
        self._attrs: tuple[str, ...] = schema.attribute_names if schema is not None else ()

    def __len__(self) -> int:
        return len(self._tuples)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._tuples.values())

    def __contains__(self, tid: Any) -> bool:
        return tid in self._tuples

    def get(self, tid: Any) -> Tuple | None:
        return self._tuples.get(tid)

    def tids(self) -> KeysView[Any]:
        return self._tuples.keys()

    @property
    def attributes(self) -> tuple[str, ...]:
        return self._attrs

    def _fresh(self, attributes: Sequence[str]) -> "RowStore":
        store = RowStore()
        store._attrs = tuple(attributes)
        return store

    def insert(self, t: Tuple) -> None:
        self._tuples[t.tid] = t

    def bulk_load(self, tuples: Iterable[Tuple]) -> None:
        """Append many tuples at once (caller has checked tids are fresh)."""
        self._tuples.update((t.tid, t) for t in tuples)

    def pop(self, tid: Any) -> Tuple | None:
        return self._tuples.pop(tid, None)

    def copy(self) -> "RowStore":
        clone = RowStore()
        clone._tuples = dict(self._tuples)
        clone._attrs = self._attrs
        return clone

    # -- detection operations ----------------------------------------------------------

    def _columns(self, attributes: Sequence[str]) -> list[list[Any]]:
        """The tids, then per attribute its value in every tuple, as lists
        in scan order: positions are resolved once per run of tuples
        sharing a layout and every column is read at C level.  Raises
        ``KeyError`` on a tuple lacking one of the attributes."""
        columns: list[list[Any]] = [list(self._tuples), *([] for _ in attributes)]
        for layout, run in groupby(self._tuples.values(), _LAYOUT):
            vals = list(map(_VALS, run))
            for column, a in zip(columns[1:], attributes):
                column.extend(map(itemgetter(layout[a]), vals))
        return columns

    def check(self, groups: Sequence[Any]) -> list[list[Any]]:
        """Violating tids per member of every group, each a list in scan
        order (no tid twice), one group at a time over its columns
        (:meth:`_columns`).  A member keeps the rows equal to its LHS
        constants; a constant member flags those unequal to its RHS
        constant, a variable one those whose LHS key holds more than one
        RHS value (counted over the distinct ``(key, value)`` pairs)."""
        if not groups:
            return []
        if _prof.enabled:
            _t0 = perf_counter()
        out: list[list[Any]] = []
        for group in groups:
            lhs = group.lhs
            rhs_attributes = list(dict.fromkeys(cfd.rhs for cfd in group.members))
            tids, *columns = self._columns((*lhs, *rhs_attributes))
            lhs_columns = columns[: len(lhs)]
            rhs_columns = dict(zip(rhs_attributes, columns[len(lhs) :]))
            for cfd in group.members:
                entry = cfd.pattern.entry
                tests = [(2 + i, entry(a)) for i, a in enumerate(lhs) if entry(a) is not UNNAMED]
                found, values, *keys = _where([tids, rhs_columns[cfd.rhs], *lhs_columns], tests)
                if cfd.is_constant():
                    flagged = map(not_, map(eq, values, repeat(entry(cfd.rhs))))
                else:
                    flagged = map(_split_keys(_keys(keys), values).__contains__, _keys(keys))
                out.append(list(compress(found, flagged)))
        if _prof.enabled:
            _prof.note("rulefuse.rows_scan", perf_counter() - _t0, len(self._tuples))
        return out

    def tids_of(self, result: list[Any]) -> set[Any]:
        return set(result)

    def build_indexes(self, indexes: Sequence[Any]) -> None:
        """Index every row into every applicable index, in one scan.

        Each index's LHS, RHS and pattern-constant positions are resolved
        once per tuple layout (``CFDIndex.row_plan``), so a row costs one
        key pick and two dict probes per index.  Groups and classes are
        created in the order ``CFDIndex.add_tuple`` would create them.
        """
        if not indexes:
            return
        if _prof.enabled:
            _t0 = perf_counter()
        layout: Any = None
        plans: list[Any] = []
        for t in self._tuples.values():
            if t._layout is not layout:
                layout = t._layout
                plans = [index.row_plan(layout) for index in indexes]
            vals, tid = t._vals, t._tid
            for key_of, rhs, tests, groups in plans:
                for i, constant in tests:
                    if vals[i] != constant:
                        break
                else:
                    key = key_of(vals)
                    group = groups.get(key)
                    if group is None:
                        group = groups[key] = {}
                    value = vals[rhs]
                    tids = group.get(value)
                    if tids is None:
                        group[value] = {tid: None}
                    else:
                        tids[tid] = None
        if _prof.enabled:
            _prof.note("idx.build_rows", perf_counter() - _t0, len(self._tuples))

    def group_scan(
        self, cfd: CFD, want_ship: bool, prices: Any
    ) -> tuple[tuple[int, int], dict[tuple, dict[Any, list[Any]]]]:
        """The ``(count, bytes)`` of the pattern-matching tuples'
        ``cfd.attributes`` projections (``(0, 0)`` unless ``want_ship``),
        and their partial groups ``{lhs_key: {rhs_value: [tids]}}``."""
        if _prof.enabled:
            _t0 = perf_counter()
        entry = cfd.pattern.entry
        tests = [(1 + i, entry(a)) for i, a in enumerate(cfd.lhs) if entry(a) is not UNNAMED]
        tids, *columns = _where(self._columns(cfd.attributes), tests)
        groups: dict[tuple, dict[Any, list[Any]]] = {}
        for key, value, tid in zip(zip(*columns[:-1]), columns[-1], tids):
            by_rhs = groups.get(key)
            if by_rhs is None:
                groups[key] = {value: [tid]}
                continue
            same = by_rhs.get(value)
            if same is None:
                by_rhs[value] = [tid]
            else:
                same.append(tid)
        shipment = prices.shipment(len(tids), columns) if want_ship else (0, 0)
        if _prof.enabled:
            _prof.note("shipment.row_scan", perf_counter() - _t0, len(self._tuples))
        return shipment, groups

    def merge_groups(self, target: dict, cfd: CFD, groups: dict) -> None:
        merge_decoded_groups(target, groups)

    def ship_scan(
        self, attributes: Sequence[str], constants: dict, prices: Any
    ) -> tuple[int, int]:
        """The ``(count, bytes)`` of shipping the ``attributes`` projection
        of every tuple equal to ``constants`` on the attributes it pins."""
        if _prof.enabled:
            _t0 = perf_counter()
        tests = [(1 + i, constants[a]) for i, a in enumerate(attributes) if a in constants]
        tids, *columns = _where(self._columns(attributes), tests)
        shipment = prices.shipment(len(tids), columns)
        if _prof.enabled:
            _prof.note("shipment.row_ship_scan", perf_counter() - _t0, len(self._tuples))
        return shipment

    def estimate_bytes(self, attributes: Iterable[str] | None = None) -> int:
        """The paper's per-tuple cost model, summed over the rows."""
        from repro.distributed.serialization import estimate_tuple_bytes

        if _prof.enabled:
            _t0 = perf_counter()
        attrs = list(attributes) if attributes is not None else None
        total = sum(estimate_tuple_bytes(t, attrs) for t in self._tuples.values())
        if _prof.enabled:
            _prof.note("shipment.row_estimate", perf_counter() - _t0, len(self._tuples))
        return total

    def distinct_counts(self, sample_limit: int | None = None) -> dict[str, int]:
        """Distinct values per attribute among the first ``sample_limit`` rows."""
        if _prof.enabled:
            _t0 = perf_counter()
        seen: dict[str, set] = {a: set() for a in self._attrs}
        for t in islice(self._tuples.values(), sample_limit):
            for a, values in seen.items():
                try:
                    values.add(t[a])
                except TypeError:  # unhashable value: count it by identity
                    values.add(id(t[a]))
        if _prof.enabled:
            _prof.note("rulefuse.rows_scan_distinct", perf_counter() - _t0, len(self._tuples))
        return {a: len(values) for a, values in seen.items()}


class ProjectionView:
    """Some attributes of a resident relation, seen as a read-only store.

    A vertical fragment ``pi_X(D)`` is this view of ``X`` over the one
    resident copy of ``D``: nothing is copied per fragment.  Iterating
    the view or looking a tid up builds tuples projected onto ``X``, at
    that edge only.  Every detection operation a vertical site runs
    checks the attributes it is asked for against ``X`` once, then runs
    on the resident store, so results come in that store's wire form.  Reading an
    attribute outside ``X`` raises :class:`StorageError`, and so does
    every write: writes go through the deployment
    (``Cluster.deliver_updates``) or the resident relation.  A relation
    over a view pickles as the projection: only the fragment's columns.
    """

    __slots__ = ("_resident", "_attrs")

    def __init__(self, resident: Any, attributes: Sequence[str]):
        outside = [a for a in attributes if a not in resident.store.attributes]
        if outside:
            raise StorageError(f"the resident relation does not store {outside}")
        self._resident = resident
        self._attrs = tuple(attributes)

    @property
    def name(self) -> str:
        return self._resident.store.name

    @property
    def attributes(self) -> tuple[str, ...]:
        return self._attrs

    @property
    def resident(self) -> Any:
        """The relation this view reads."""
        return self._resident

    def _reads(self, attributes: Iterable[str]) -> None:
        outside = [a for a in attributes if a not in self._attrs]
        if outside:
            raise StorageError(
                f"attributes {outside} are outside this fragment {list(self._attrs)}"
            )

    def _read_only(self, *_args: Any) -> None:
        raise StorageError(
            "a vertical fragment is a read-only view; write through the "
            "deployment (Cluster.deliver_updates) or its resident relation"
        )

    insert = pop = bulk_load = extend = _read_only

    def __len__(self) -> int:
        return len(self._resident.store)

    def __iter__(self) -> Iterator[Tuple]:
        return starmap(tuple_factory(self._attrs), rows_of(self._resident.store, self._attrs))

    def __contains__(self, tid: Any) -> bool:
        return tid in self._resident.store

    def get(self, tid: Any) -> Tuple | None:
        t = self._resident.store.get(tid)
        return None if t is None else t.project(self._attrs)

    def tids(self) -> KeysView[Any]:
        return self._resident.store.tids()

    def copy(self) -> Any:
        """The projection as a store of its own (independent of the view)."""
        return self._resident.store.project(self._attrs)

    def __reduce__(self) -> Any:
        # A relation over a view pickles the projection instead; a bare
        # view would drag the whole resident relation along.
        raise TypeError("pickle the fragment relation, not its view")

    # -- algebra: on the projection ------------------------------------------------------

    def project(self, attributes: Sequence[str]) -> Any:
        self._reads(attributes)
        return self._resident.store.project(attributes)

    def join(self, others: Sequence[Any], attributes: Sequence[str]) -> Any:
        return self.copy().join(others, attributes)

    # -- detection operations: checked, then run on the resident store -------------------

    def check(self, groups: Sequence[Any]) -> list[Any]:
        for group in groups:
            self._reads(group.lhs)
            self._reads([cfd.rhs for cfd in group.members])
        return self._resident.store.check(groups)

    def tids_of(self, result: Any) -> set[Any]:
        return self._resident.store.tids_of(result)

    def build_indexes(self, indexes: Sequence[Any]) -> None:
        for index in indexes:
            self._reads(index.cfd.attributes)
        self._resident.store.build_indexes(indexes)

    def ship_scan(self, attributes: Sequence[str], constants: dict, prices: Any) -> tuple[int, int]:
        self._reads(attributes)
        return self._resident.store.ship_scan(attributes, constants, prices)

    def estimate_bytes(self, attributes: Iterable[str] | None = None) -> int:
        if attributes is None:
            attributes = self._attrs
        else:
            attributes = list(attributes)
            self._reads(attributes)
        return self._resident.store.estimate_bytes(attributes)

    def distinct_counts(self, sample_limit: int | None = None) -> dict[str, int]:
        counts = self._resident.store.distinct_counts(sample_limit)
        return {a: counts[a] for a in self._attrs}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ProjectionView({list(self._attrs)} of {self._resident.store!r})"


def store_of(tuples: Iterable[Tuple]) -> Any:
    """The backend holding ``tuples``: a relation's own store, or a row
    store over any other iterable of tuples."""
    store = getattr(tuples, "store", None)
    if store is None:
        store = RowStore()
        store.bulk_load(tuples)
    return store


#: Registered backend factories: name -> factory(schema) -> StorageBackend.
_BACKENDS: dict[str, Callable[[Schema], Any]] = {"rows": RowStore}


def register_storage_backend(
    name: str, factory: Callable[[Schema], Any], *, replace: bool = False
) -> None:
    """Register a storage backend factory under ``name``.

    ``factory(schema)`` must return an object satisfying
    :class:`StorageBackend`.  Registering an existing name raises
    :class:`StorageError` unless ``replace=True``.
    """
    if name in _BACKENDS and not replace:
        raise StorageError(
            f"storage backend {name!r} is already registered; pass replace=True"
        )
    _BACKENDS[name] = factory


#: Built-in backends living in their own subpackages, registered on
#: import: name -> module to import.
_LAZY_BUILTINS: dict[str, str] = {
    "columnar": "repro.columnar",
    "sql": "repro.sqlstore",
}


def storage_backend_names() -> list[str]:
    """The registered backend names (the built-ins plus any plug-ins)."""
    for name in _LAZY_BUILTINS:
        _ensure_builtin(name)
    return sorted(_BACKENDS)


def _ensure_builtin(name: str) -> None:
    # Built-in backends live in their own subpackages and register on
    # import; pull the owning module in lazily so
    # ``Relation(schema, storage="columnar")`` (or ``"sql"``) works even
    # when only repro.core has been imported.
    if name not in _BACKENDS:
        module = _LAZY_BUILTINS.get(name)
        if module is not None:
            import importlib

            importlib.import_module(module)


def make_storage(name: str, schema: Schema) -> Any:
    """Instantiate the backend registered under ``name`` for ``schema``."""
    _ensure_builtin(name)
    try:
        factory = _BACKENDS[name]
    except KeyError:
        known = ", ".join(sorted(_BACKENDS))
        raise StorageError(
            f"unknown storage backend {name!r}; registered: {known}"
        ) from None
    return factory(schema)
