"""The columnar storage backend: one code array per attribute.

A :class:`ColumnStore` keeps, per schema attribute, a dense list of
integer codes into a :class:`~repro.columnar.dictionary.ValueDictionary`,
plus a tid→row index.  Rows are append-only; deletions tombstone the row
and the store compacts itself once dead rows dominate.  Iteration yields
materialized :class:`~repro.core.tuples.Tuple` objects in insertion
order, so a columnar relation is observably identical to a row-backed
one — the point of the backend is that its detection operations (the
protocol of :mod:`repro.core.storage`) never materialize tuples at all.
They are column sweeps, bit-identical to the row store's tuple loops:
the dictionary encoding preserves ``==``, so grouping rows by code keys
partitions them exactly like grouping tuples by value keys, and the
cached per-code wire sizes reproduce ``estimate_tuple_bytes`` byte for
byte.  The shared primitive is :meth:`ColumnStore.grouped_rows`: the LHS
equivalence classes are computed once per attribute list and reused by
every CFD over those attributes (checks, IDX builds and shipment scans
alike) until the next mutation.

The relation algebra of the protocol (projection, selection, split,
key join, extend) slices columns and shares the (append-only) value
dictionaries with the parent store, which is what makes fragmenting a
columnar relation O(columns) list copies instead of O(rows) dict
allocations.  An operand on another backend is re-hosted on columns
first (:func:`_columns_of`), so the result is always columnar.
"""

from __future__ import annotations

import itertools
from operator import ne
from time import perf_counter
from typing import Any, Iterable, Iterator, KeysView, Mapping, Sequence

from repro.core.cfd import CFD, UNNAMED
from repro.core.schema import Schema
from repro.core.tuples import Tuple
from repro.columnar.dictionary import ValueDictionary
from repro.columnar.masks import iter_mask_rows, mask_to_tids, rows_to_mask
from repro.distributed.serialization import TID_BYTES, code_width
from repro.obs import profile as _prof
from repro.rulefuse import compile_rule_set

#: Compact when more than this many rows — and over half of them — are dead.
_COMPACT_MIN_DEAD = 32

#: Pattern tests of a CFD one of whose constants never occurs in the store.
_UNSATISFIABLE = object()


def _accepted(grouped: dict, tests: Any, single: bool) -> Iterable[tuple[Any, Any]]:
    """The ``(key, group)`` items of ``grouped`` whose code key passes the
    positional pattern ``tests`` — every item without tests, none when
    the pattern is unsatisfiable.  ``single`` marks bare one-attribute
    keys."""
    if tests is _UNSATISFIABLE:
        return ()
    if not tests:
        return grouped.items()
    if single:
        code = tests[0][1]
        group = grouped.get(code)
        return ((code, group),) if group is not None else ()
    return (
        (key, group)
        for key, group in grouped.items()
        if all(key[i] == code for i, code in tests)
    )


class ColumnRowView(Mapping[str, Any]):
    """A zero-copy Mapping facade over one stored row (decodes on access).

    Selection predicates receive these instead of materialized tuples;
    besides the Mapping protocol the view offers the read-only
    conveniences of :class:`~repro.core.tuples.Tuple` (``tid``,
    ``values_for``, ``as_dict``) so predicates written against the row
    backend keep working.  Call :meth:`materialize` for a real Tuple.
    """

    __slots__ = ("_store", "_row", "_tid")

    def __init__(self, store: "ColumnStore", row: int, tid: Any):
        self._store = store
        self._row = row
        self._tid = tid

    @property
    def tid(self) -> Any:
        return self._tid

    def __getitem__(self, attribute: str) -> Any:
        return self._store.value_at(self._row, attribute)

    def __iter__(self) -> Iterator[str]:
        return iter(self._store.attributes)

    def __len__(self) -> int:
        return len(self._store.attributes)

    def values_for(self, attributes) -> tuple[Any, ...]:
        """The values of ``attributes`` in the given order (``t[X]``)."""
        return tuple(self._store.value_at(self._row, a) for a in attributes)

    def as_dict(self) -> dict[str, Any]:
        """A plain ``dict`` copy of the attribute values."""
        return {a: self._store.value_at(self._row, a) for a in self._store.attributes}

    def materialize(self) -> Tuple:
        """A real, immutable :class:`~repro.core.tuples.Tuple` of this row."""
        return Tuple(self._tid, self.as_dict())

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnRowView(tid={self._tid!r})"


class ColumnStore:
    """Dictionary-encoded column arrays behind the ``Relation`` facade."""

    name = "columnar"

    __slots__ = (
        "__weakref__",
        "_attrs",
        "_dicts",
        "_cols",
        "_tids",
        "_rows",
        "_dead",
        "_groups",
        "_masks",
        "_tests",
    )

    def __init__(self, schema: Schema):
        self._init_empty(schema.attribute_names)

    def _init_empty(self, attributes: Sequence[str]) -> None:
        self._attrs: tuple[str, ...] = tuple(attributes)
        self._dicts: dict[str, ValueDictionary] = {
            a: ValueDictionary() for a in self._attrs
        }
        self._cols: dict[str, list[int]] = {a: [] for a in self._attrs}
        self._tids: list[Any] = []
        self._rows: dict[Any, int] = {}
        self._dead: set[int] = set()
        self._init_derived()

    def _init_derived(self) -> None:
        """Fresh derived state: the group, mask and pattern-test caches.

        Every construction path — ``__init__``, the column-sliced algebra
        clones, unpickling — goes through here.
        """
        self._groups: dict[tuple[str, ...], dict[Any, list[int]]] = {}
        self._masks: dict[tuple[str, ...], dict[Any, int]] = {}
        #: Compiled pattern tests per CFD (:meth:`_pattern_tests`): codes
        #: never change for the store's lifetime, so mutations keep them.
        self._tests: dict[CFD, tuple[Any, tuple]] = {}

    def _invalidate(self) -> None:
        """Drop the row-indexed caches after a mutation."""
        if self._groups:
            self._groups = {}
        if self._masks:
            self._masks = {}

    # -- backend protocol ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._rows)

    def __iter__(self) -> Iterator[Tuple]:
        dicts = self._dicts
        cols = self._cols
        attrs = self._attrs
        for tid, row in self._rows.items():
            yield Tuple(tid, {a: dicts[a].value(cols[a][row]) for a in attrs})

    def __contains__(self, tid: Any) -> bool:
        return tid in self._rows

    def get(self, tid: Any) -> Tuple | None:
        row = self._rows.get(tid)
        if row is None:
            return None
        return Tuple(
            tid, {a: self._dicts[a].value(self._cols[a][row]) for a in self._attrs}
        )

    def tids(self) -> KeysView[Any]:
        return self._rows.keys()

    def insert(self, t: Tuple) -> None:
        row = len(self._tids)
        self._tids.append(t.tid)
        for a in self._attrs:
            self._cols[a].append(self._dicts[a].intern(t[a]))
        self._rows[t.tid] = row
        self._invalidate()

    def pop(self, tid: Any) -> Tuple | None:
        row = self._rows.pop(tid, None)
        if row is None:
            return None
        t = Tuple(
            tid, {a: self._dicts[a].value(self._cols[a][row]) for a in self._attrs}
        )
        self._dead.add(row)
        self._invalidate()
        if len(self._dead) > _COMPACT_MIN_DEAD and len(self._dead) * 2 > len(self._tids):
            self._compact()
        return t

    def copy(self) -> "ColumnStore":
        clone = ColumnStore.__new__(ColumnStore)
        clone._attrs = self._attrs
        clone._dicts = dict(self._dicts)  # dictionaries are append-only: share them
        clone._cols = {a: col.copy() for a, col in self._cols.items()}
        clone._tids = self._tids.copy()
        clone._rows = dict(self._rows)
        clone._dead = set(self._dead)
        clone._init_derived()
        return clone

    # -- column access (the kernel surface) ------------------------------------------

    @property
    def attributes(self) -> tuple[str, ...]:
        """The stored attribute names, in schema order."""
        return self._attrs

    def dictionary(self, attribute: str) -> ValueDictionary:
        """The value dictionary encoding ``attribute``'s column."""
        return self._dicts[attribute]

    def codes(self, attribute: str) -> list[int]:
        """The dense code array of ``attribute`` (includes tombstoned rows)."""
        return self._cols[attribute]

    def live_rows(self) -> Iterator[int]:
        """Physical indices of the live rows, in insertion order."""
        return iter(self._rows.values())

    def dead_rows(self) -> set[int]:
        """Physical indices of the tombstoned rows (do not mutate)."""
        return self._dead

    def iter_rows(self):
        """Live row indices for a sweep: a ``range`` when dense (faster),
        the tid-index values (insertion order) otherwise."""
        if not self._dead:
            return range(len(self._tids))
        return self._rows.values()

    def tid_of_row(self, row: int) -> Any:
        return self._tids[row]

    def tids_list(self) -> list[Any]:
        """The physical row→tid table (includes tombstoned rows; do not mutate)."""
        return self._tids

    def value_at(self, row: int, attribute: str) -> Any:
        return self._dicts[attribute].value(self._cols[attribute][row])

    def row_view(self, row: int) -> ColumnRowView:
        return ColumnRowView(self, row, self._tids[row])

    def grouped_rows(self, attributes: Sequence[str]) -> dict[Any, list[int]]:
        """Live rows grouped by their code key over ``attributes``.

        The key is the bare code for a single attribute and a code tuple
        otherwise.  Two rows share a key iff their values compare equal
        on every attribute (dictionary-encoding preserves ``==``
        semantics), so this is exactly the LHS equivalence-class
        partition every CFD kernel needs — computed once per relation
        per attribute list and cached until the next mutation.
        """
        attrs = tuple(attributes)
        cached = self._groups.get(attrs)
        if cached is not None:
            return cached
        groups: dict[Any, list[int]] = {}
        rows = self.iter_rows()
        columns = [self._cols[a] for a in attrs]
        if self._dead:  # read the live rows' codes, at C level
            columns = [map(column.__getitem__, rows) for column in columns]
        keys = columns[0] if len(attrs) == 1 else zip(*columns)
        for row, key in zip(rows, keys):
            bucket = groups.get(key)
            if bucket is None:
                groups[key] = [row]
            else:
                bucket.append(row)
        self._groups[attrs] = groups
        return groups

    def grouped_masks(self, attributes: Sequence[str]) -> dict[Any, int]:
        """The :meth:`grouped_rows` partition as ``{key: bitset mask}``.

        One integer bitset of physical rows per LHS key, cached alongside
        the row-list groups until the next mutation.  The mask form is
        what the allocation-free CFD kernels consume: checking a group
        against an accepted code set becomes ``mask & ~ok`` on big ints.
        """
        attrs = tuple(attributes)
        cached = self._masks.get(attrs)
        if cached is None:
            cached = {
                key: rows_to_mask(rows)
                for key, rows in self.grouped_rows(attrs).items()
            }
            self._masks[attrs] = cached
        return cached

    def decode_key(self, attributes: Sequence[str], key: Any) -> tuple[Any, ...]:
        """Decode a :meth:`grouped_rows` key back into a value tuple."""
        attrs = tuple(attributes)
        if len(attrs) == 1:
            return (self._dicts[attrs[0]].value(key),)
        return tuple(self._dicts[a].value(c) for a, c in zip(attrs, key))

    # -- detection operations (the protocol of repro.core.storage) ---------------------

    def _pattern_tests(self, cfd: CFD) -> Any:
        """The positional ``(index, code)`` tests an LHS group key must pass
        to match ``cfd``'s pattern constants, or :data:`_UNSATISFIABLE` when
        a constant never occurs in this store.

        Cached per CFD for the store's lifetime: dictionaries are
        append-only, so a compiled code never goes stale.  An
        unsatisfiable entry is compiled again once a constant attribute's
        dictionary generation moves — an insert may have interned the
        constant since.
        """
        cached = self._tests.get(cfd)
        if cached is not None:
            tests, generations = cached
            if tests is not _UNSATISFIABLE or all(
                self._dicts[a].generation == generation for a, generation in generations
            ):
                return tests
        pinned = [
            (i, a) for i, a in enumerate(cfd.lhs) if cfd.pattern.entry(a) is not UNNAMED
        ]
        codes = [self._dicts[a].code_of(cfd.pattern.entry(a)) for _i, a in pinned]
        if None in codes:
            tests = _UNSATISFIABLE
            generations = tuple((a, self._dicts[a].generation) for _i, a in pinned)
        else:
            tests = [(i, code) for (i, _a), code in zip(pinned, codes)]
            generations = ()
        self._tests[cfd] = (tests, generations)
        return tests

    def check(self, groups: Sequence[Any]) -> list[int]:
        """Violation row bitsets per member of every group, one grouped-LHS
        pass per group.

        A constant member ORs the bitsets of its matching LHS groups and
        subtracts the rows already carrying its RHS constant.  A group
        violates a variable member iff its rows hold more than one RHS
        code (:meth:`_dirty_groups`, shared by every member on the same
        RHS), so only the dirty keys — error-rate bound, typically a
        handful — pay bitsets and mask ORs.
        """
        out: list[int] = []
        for group in groups:
            if _prof.enabled:
                _t0 = perf_counter()
            lhs = group.lhs
            single = len(lhs) == 1
            dirty_by_rhs: dict[str, dict[tuple, int]] = {}
            for cfd in group.members:
                tests = self._pattern_tests(cfd)
                if tests is _UNSATISFIABLE:
                    out.append(0)
                    continue
                bad = 0
                if cfd.is_constant():
                    matching = 0
                    for _key, mask in _accepted(self.grouped_masks(lhs), tests, single):
                        matching |= mask
                    if matching:
                        code = self._dicts[cfd.rhs].code_of(cfd.pattern.entry(cfd.rhs))
                        ok = 0 if code is None else self.grouped_masks((cfd.rhs,)).get(code, 0)
                        bad = matching & ~ok
                else:
                    dirty = dirty_by_rhs.get(cfd.rhs)
                    if dirty is None:
                        dirty = dirty_by_rhs[cfd.rhs] = self._dirty_groups(lhs, cfd.rhs)
                    for _key, mask in _accepted(dirty, tests, single):
                        bad |= mask
                out.append(bad)
            if _prof.enabled:
                _prof.note("rulefuse.columnar_sweep", perf_counter() - _t0, len(self))
        return out

    def _dirty_groups(self, lhs: tuple[str, ...], rhs: str) -> dict[Any, int]:
        """The :meth:`grouped_rows` keys over ``lhs`` whose rows hold more
        than one ``rhs`` code, each with the row bitset of its group: one
        C-level comparison run per group, and no bitset for a clean one."""
        rhs_col = self._cols[rhs]
        dirty: dict[Any, int] = {}
        for key, rows in self.grouped_rows(lhs).items():
            codes = map(rhs_col.__getitem__, rows)
            first = next(codes)
            if any(map(ne, codes, itertools.repeat(first))):
                dirty[key] = rows_to_mask(rows)
        return dirty

    def tids_of(self, result: int) -> set[Any]:
        """The tids of a violation bitset's rows."""
        return mask_to_tids(self, result)

    def build_indexes(self, indexes: Sequence[Any]) -> None:
        """Load each index from the LHS groups, one grouped sweep per LHS
        list: a group key is decoded once, and same-RHS indexes share its
        decoded ``{rhs_value: tids}`` bucket (``load_group`` copies it)."""
        tid_at = self.tid_of_row
        for group in compile_rule_set([index.cfd for index in indexes]):
            if _prof.enabled:
                _t0 = perf_counter()
            lhs = group.lhs
            single = len(lhs) == 1
            specs = []
            for i, cfd in zip(group.indexes, group.members):
                tests = self._pattern_tests(cfd)
                if tests is not _UNSATISFIABLE:
                    specs.append((indexes[i], tests, cfd.rhs))
            grouped = self.grouped_rows(lhs) if specs else {}
            for key, rows in grouped.items():
                decoded_key = None
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
                        rhs_col = self._cols[rhs]
                        by_code: dict[int, set[Any]] = {}
                        for r in rows:
                            code = rhs_col[r]
                            bucket = by_code.get(code)
                            if bucket is None:
                                by_code[code] = {tid_at(r)}
                            else:
                                bucket.add(tid_at(r))
                        value = self._dicts[rhs].value
                        decoded = decoded_by_rhs[rhs] = {
                            value(code): tids for code, tids in by_code.items()
                        }
                    if decoded_key is None:
                        decoded_key = self.decode_key(lhs, key)
                    index.load_group(decoded_key, decoded)
            if _prof.enabled:
                _prof.note("idx.build_columnar", perf_counter() - _t0, len(self))

    def group_scan(
        self, cfd: CFD, want_ship: bool, prices: Any
    ) -> tuple[tuple[int, int], tuple[list[int], list[int]]]:
        """batHor's site scan, in row space.

        Returns ``(shipment, groups)``: the ``(count, bytes)`` total of the
        pattern-matching tuples' ``cfd.attributes`` projections (``(0, 0)``
        unless ``want_ship``; priced from this store's per-code sizes, so
        ``prices`` is unused) and the fragment's partial LHS groups,
        flattened to one ``(LHS key, RHS value)`` bucket each, as
        ``(singles, multis)``: a bare row index for the common singleton
        bucket, a row bitset otherwise.

        Nothing is decoded: :meth:`merge_groups` on the same store
        recovers each bucket's key and RHS value from any member row.
        """
        if _prof.enabled:
            _t0 = perf_counter()
        rhs_col = self._cols[cfd.rhs]
        ship_rows: list[int] = []
        singles: list[int] = []
        multis: list[int] = []
        matching = _accepted(
            self.grouped_rows(cfd.lhs), self._pattern_tests(cfd), len(cfd.lhs) == 1
        )
        for _key, rows in matching:
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
        shipment = self._shipment(cfd.attributes, ship_rows)
        if _prof.enabled:
            _prof.note("shipment.batch_scan", perf_counter() - _t0, len(self))
        return shipment, (singles, multis)

    def merge_groups(
        self, target: dict, cfd: CFD, groups: tuple[list[int], list[int]]
    ) -> None:
        """Fold a :meth:`group_scan` result into ``target``: every bucket is
        ``(LHS key, RHS value)``-uniform, so any member row names both."""
        if _prof.enabled:
            _t0 = perf_counter()
        lhs, rhs = cfd.lhs, cfd.rhs
        value_at = self.value_at
        tid_at = self._tids.__getitem__
        singles, multis = groups
        for r in singles:
            slot = target.setdefault(tuple(value_at(r, a) for a in lhs), {})
            slot.setdefault(value_at(r, rhs), []).append(tid_at(r))
        for mask in multis:
            first = (mask & -mask).bit_length() - 1
            slot = target.setdefault(tuple(value_at(first, a) for a in lhs), {})
            slot.setdefault(value_at(first, rhs), []).extend(
                map(tid_at, iter_mask_rows(mask))
            )
        if _prof.enabled:
            _prof.note("shipment.merge_groups", perf_counter() - _t0, len(singles) + len(multis))

    def ship_scan(
        self, attributes: Sequence[str], constants: Mapping[str, Any], prices: Any
    ) -> tuple[int, int]:
        """batVer's site scan: the ``(count, bytes)`` of shipping the
        ``attributes`` projection of every row equal to ``constants`` on
        the attributes it pins — a column sweep per pinned attribute,
        priced from the cached per-code sizes (``prices`` is unused)."""
        if _prof.enabled:
            _t0 = perf_counter()
        rows: Any = self.iter_rows()
        for a in attributes:
            if a in constants:
                code = self._dicts[a].code_of(constants[a])
                col = self._cols[a]
                rows = [r for r in rows if col[r] == code] if code is not None else ()
        shipment = self._shipment(attributes, rows)
        if _prof.enabled:
            _prof.note("shipment.column_scan", perf_counter() - _t0, len(self))
        return shipment

    def _shipment(self, attributes: Sequence[str], rows: Any) -> tuple[int, int]:
        """``(count, bytes)`` of shipping ``rows`` (sized, physical indices)
        projected onto ``attributes``: a tid per row plus the dictionaries'
        cached per-code wire sizes — ``estimate_tuple_bytes`` byte for
        byte, with no Python-level step per row."""
        nbytes = TID_BYTES * len(rows)
        for a in attributes:
            sizes = self._dicts[a].byte_sizes()
            nbytes += sum(map(sizes.__getitem__, map(self._cols[a].__getitem__, rows)))
        return len(rows), nbytes

    def estimate_bytes(self, attributes: Iterable[str] | None = None) -> int:
        """The column-encoded wire size: per attribute each distinct value
        present once plus one packed code per row.  Fragments share
        dictionaries with their base relation, so only the codes present
        count."""
        if _prof.enabled:
            _t0 = perf_counter()
        total = TID_BYTES * len(self)
        for a in self._attrs if attributes is None else attributes:
            dictionary = self._dicts[a]
            col = self._cols[a]
            used = {col[r] for r in self.iter_rows()}
            total += sum(dictionary.byte_size(c) for c in used)
            total += code_width(len(used)) * len(self)
        if _prof.enabled:
            _prof.note("columnar.estimate_bytes", perf_counter() - _t0, len(self))
        return total

    def distinct_counts(self, sample_limit: int | None = None) -> dict[str, int]:
        """Distinct values per attribute, read off the value dictionaries."""
        if _prof.enabled:
            _t0 = perf_counter()
        counts = {a: len(self._dicts[a]) for a in self._attrs}
        if _prof.enabled:
            _prof.note("columnar.distinct_counts", perf_counter() - _t0, len(self))
        return counts

    # -- column-sliced algebra (the protocol of repro.core.storage) -----------------------

    def _live_in_order(self) -> list[int]:
        return list(self._rows.values())

    def project(self, attributes: Sequence[str]) -> "ColumnStore":
        """A new store over the ``attributes`` columns (shared dictionaries)."""
        clone = ColumnStore.__new__(ColumnStore)
        clone._attrs = tuple(attributes)
        clone._dicts = {a: self._dicts[a] for a in clone._attrs}
        clone._init_derived()
        if not self._dead:
            clone._cols = {a: self._cols[a].copy() for a in clone._attrs}
            clone._tids = self._tids.copy()
            clone._rows = dict(self._rows)
            clone._dead = set()
        else:
            rows = self._live_in_order()
            clone._cols = {
                a: [self._cols[a][r] for r in rows] for a in clone._attrs
            }
            clone._tids = [self._tids[r] for r in rows]
            clone._rows = {tid: i for i, tid in enumerate(clone._tids)}
            clone._dead = set()
        return clone

    def _take(self, rows: Sequence[int]) -> "ColumnStore":
        """A new store holding the given physical rows (shared dictionaries)."""
        clone = ColumnStore.__new__(ColumnStore)
        clone._attrs = self._attrs
        clone._dicts = dict(self._dicts)
        clone._cols = {a: [col[r] for r in rows] for a, col in self._cols.items()}
        clone._tids = [self._tids[r] for r in rows]
        clone._rows = {tid: i for i, tid in enumerate(clone._tids)}
        clone._dead = set()
        clone._init_derived()
        return clone

    def select(self, predicate: Any) -> "ColumnStore":
        """The rows whose zero-copy :class:`ColumnRowView` ``predicate`` accepts."""
        return self._take([r for r in self.iter_rows() if predicate(self.row_view(r))])

    def split(self, route: Any, sites: Iterable[Any]) -> dict[Any, "ColumnStore"]:
        """Route every row's view to a site, then slice each site's rows."""
        routed: dict[Any, list[int]] = {site: [] for site in sites}
        for row in self.iter_rows():
            routed[route(self.row_view(row))].append(row)
        return {site: self._take(rows) for site, rows in routed.items()}

    def join(self, others: Sequence[Any], attributes: Sequence[str]) -> "ColumnStore":
        """The key join as a chain of column-sliced pairwise joins, then
        the columns laid out in ``attributes`` order."""
        result = self
        for other in map(_columns_of, others):
            merged = result._attrs + tuple(a for a in other._attrs if a not in result._attrs)
            result = result._join_pair(other, merged)
        return result.project(attributes)

    def _join_pair(self, other: "ColumnStore", attributes: Sequence[str]) -> "ColumnStore":
        """Key-join two stores (same tid space) into columns ``attributes``.

        Only tids present in both stores survive, in this store's
        insertion order.  Attributes stored on both sides are checked for
        agreement, mirroring :meth:`repro.core.tuples.Tuple.merge`.
        """
        shared = [a for a in other._attrs if a in set(self._attrs)]
        pairs: list[tuple[int, int]] = []  # (row in self, row in other)
        for tid, row in self._rows.items():
            other_row = other._rows.get(tid)
            if other_row is None:
                continue
            for a in shared:
                mine, theirs = self._cols[a][row], other._cols[a][other_row]
                if self._dicts[a] is other._dicts[a]:
                    conflict = mine != theirs
                else:
                    conflict = self._dicts[a].value(mine) != other._dicts[a].value(theirs)
                if conflict:
                    raise ValueError(
                        f"conflicting values for attribute {a!r} while merging tid {tid!r}"
                    )
            pairs.append((row, other_row))
        mine_set = set(self._attrs)
        clone = ColumnStore.__new__(ColumnStore)
        clone._attrs = tuple(attributes)
        clone._dicts = {}
        clone._cols = {}
        for a in clone._attrs:
            if a in mine_set:
                clone._dicts[a] = self._dicts[a]
                col = self._cols[a]
                clone._cols[a] = [col[r] for r, _ in pairs]
            else:
                clone._dicts[a] = other._dicts[a]
                col = other._cols[a]
                clone._cols[a] = [col[r] for _, r in pairs]
        clone._tids = [self._tids[r] for r, _ in pairs]
        clone._rows = {tid: i for i, tid in enumerate(clone._tids)}
        clone._dead = set()
        clone._init_derived()
        return clone

    def extend(self, other: Any) -> None:
        """Append another store's live rows (caller has rejected dup tids).

        Columns whose dictionaries are shared concatenate code lists
        directly; others decode and re-intern per row.  A store on
        another backend is appended tuple by tuple.
        """
        if not isinstance(other, ColumnStore):
            self.bulk_load(other)
            return
        dense = not other._dead
        rows = range(len(other._tids)) if dense else other._live_in_order()
        for a in self._attrs:
            col = self._cols[a]
            ocol = other._cols[a]
            if self._dicts[a] is other._dicts[a]:
                if dense:
                    col.extend(ocol)
                else:
                    col.extend(ocol[r] for r in rows)
            else:
                intern = self._dicts[a].intern
                value = other._dicts[a].value
                col.extend(intern(value(ocol[r])) for r in rows)
        for r in rows:
            tid = other._tids[r]
            self._rows[tid] = len(self._tids)
            self._tids.append(tid)
        self._invalidate()

    def statement_cache_info(self) -> None:
        """Columns prepare no statements."""
        return None

    def bulk_load(self, tuples) -> None:
        """Append many tuples at once (caller has checked tids are fresh)."""
        attrs = self._attrs
        cols = self._cols
        dicts = self._dicts
        rows = self._rows
        tids = self._tids
        for t in tuples:
            rows[t.tid] = len(tids)
            tids.append(t.tid)
            for a in attrs:
                cols[a].append(dicts[a].intern(t[a]))
        self._invalidate()

    # -- maintenance ---------------------------------------------------------------

    def _compact(self) -> None:
        rows = self._live_in_order()
        self._cols = {a: [col[r] for r in rows] for a, col in self._cols.items()}
        self._tids = [self._tids[r] for r in rows]
        self._rows = {tid: i for i, tid in enumerate(self._tids)}
        self._dead = set()
        # Physical rows were renumbered, so row-indexed caches are stale.
        self._groups = {}
        self._masks = {}

    # -- pickling (drop the derived group cache) --------------------------------------

    def __getstate__(self) -> dict[str, Any]:
        return {
            "attrs": self._attrs,
            "dicts": self._dicts,
            "cols": self._cols,
            "tids": self._tids,
            "rows": self._rows,
            "dead": self._dead,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self._attrs = state["attrs"]
        self._dicts = state["dicts"]
        self._cols = state["cols"]
        self._tids = state["tids"]
        self._rows = state["rows"]
        self._dead = state["dead"]
        self._init_derived()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ColumnStore({len(self._rows)} rows, {len(self._attrs)} columns)"


def _columns_of(store: Any) -> ColumnStore:
    """``store`` itself when columnar, else its tuples re-hosted on columns."""
    if isinstance(store, ColumnStore):
        return store
    columns = ColumnStore.__new__(ColumnStore)
    columns._init_empty(store.attributes)
    columns.bulk_load(store)
    return columns


def column_store_of(relation: Any) -> ColumnStore | None:
    """The relation's :class:`ColumnStore`, or None for other backends.

    The dispatch hook every vectorized fast path uses: accepts anything
    (relations, plain tuple lists) and answers None unless the object is
    a relation backed by columns.
    """
    store = getattr(relation, "store", None)
    return store if isinstance(store, ColumnStore) else None
