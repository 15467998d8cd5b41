"""SQL-backed tuple storage over embedded sqlite.

A :class:`SqlStore` keeps a relation's tuples in one table of stdlib
:mod:`sqlite3`, file-backed or ``:memory:``, and satisfies the same
:class:`~repro.core.storage.StorageBackend` protocol as the row and
columnar backends: tuples indexed by tid, O(1) membership, insertion
order preserved (dict semantics: deleted tids drop out, re-inserting a
popped tid moves it to the end, overwriting keeps its place).

The point of the backend is *pushdown*: its detection operations (the
protocol of :mod:`repro.core.storage`) compile CFD checks to set-oriented
SQL (the classic constant/variable two-query formulation,
:mod:`repro.sqlstore.compiler`) so the filtering
and grouping run inside the engine's C executor over data that never
has to fit in Python memory.  The store itself keeps only a small
``tid -> seq`` dict in Python; everything else lives in the engine,
which for a file-backed store means detection scales past RAM.

Layout and semantics:

* one table ``data(seq INTEGER PRIMARY KEY, tid, a0, a1, ...)`` with
  positional column names (arbitrary attribute names never meet the SQL
  identifier grammar); ``seq`` is a monotonically increasing insertion
  counter, so ``ORDER BY seq`` reproduces dict iteration order;
* values are stored natively for ``str``/``int``/``float``/``None``
  (sqlite's comparison semantics then match Python's: ``1 = 1.0``,
  text never equals numbers, ``IS`` is null-safe equality) and as
  tagged pickle blobs for ``bool`` and any other type, so a decoded
  value is the exact Python object that went in and the wire-size
  estimates of :mod:`repro.distributed.serialization` are reproduced
  byte for byte.  Caveat (same class as the columnar backend's
  interning): cross-type equalities involving tagged values
  (``True == 1``) are not visible to the engine;
* inserts buffer in Python and apply with one ``executemany`` inside
  one transaction per wave — any read flushes first — matching the
  "batched delta apply" the update batches need;
* per-rule compiled SQL is cached on the store (and the connection
  keeps a large prepared-statement cache), so a CFD checked every wave
  compiles once.
"""

from __future__ import annotations

import os
import sqlite3
import threading
import uuid
from itertools import compress
from operator import itemgetter
from time import perf_counter
from typing import Any, Callable, Iterator, KeysView, Mapping, Sequence

from repro.core.cfd import CFD
from repro.core.schema import Schema
from repro.core.storage import TupleStore, summarize
from repro.core.tuples import Tuple
from repro.distributed.serialization import TID_BYTES, estimate_value_bytes
from repro.obs import profile as _prof
from repro.rulefuse import compile_rule_set
from repro.sqlstore import compiler
from repro.sqlstore.compiler import decode_value, encode_value

#: Buffered inserts flush to the engine at this size even without a read.
FLUSH_LIMIT = 2000

#: Rows fetched per chunk when streaming iteration / byte estimation.
FETCH_CHUNK = 1024

#: Module configuration for newly created stores (see :func:`configure`).
_CONFIG: dict[str, Any] = {"directory": None}


def configure(directory: str | None = None) -> None:
    """Route newly created sqlite stores to files under ``directory``.

    ``None`` (the default) keeps stores in ``:memory:``.  File-backed
    stores are what make detection out-of-core: the engine pages the
    table through a bounded cache instead of holding it on the Python
    heap.  Each store creates (and on close removes) its own uniquely
    named database file.
    """
    _CONFIG["directory"] = directory


def configured_directory() -> str | None:
    """The directory file-backed stores are currently routed to."""
    return _CONFIG["directory"]


class SqlStore(TupleStore):
    """Tuple storage in one embedded-SQL table (sqlite3 engine).

    Satisfies :class:`~repro.core.storage.StorageBackend`: the relation
    algebra is the tuple-backed one it shares with the row store, and
    the detection operations run SQL compiled by
    :mod:`repro.sqlstore.compiler`.
    """

    name = "sql"

    def __init__(self, schema: Schema, path: str | None = None):
        self._attrs: tuple[str, ...] = tuple(schema.attribute_names)
        self._key = schema.key
        self._init_connection(path if path is not None else self._configured_path())

    # -- connection management ---------------------------------------------------------

    def _configured_path(self) -> str | None:
        directory = _CONFIG["directory"]
        if directory is None:
            return None
        os.makedirs(directory, exist_ok=True)
        return os.path.join(
            directory, f"sqlstore_{os.getpid()}_{uuid.uuid4().hex}.db"
        )

    def _init_connection(self, path: str | None) -> None:
        self._path = path
        self._colnames: tuple[str, ...] = tuple(
            f"a{i}" for i in range(len(self._attrs))
        )
        self._col: dict[str, str] = dict(zip(self._attrs, self._colnames))
        self._index: dict[Any, int] = {}
        self._next_seq = 0
        self._pending: list[tuple] = []
        self._sql_cache: dict[Any, str] = {}
        self._cache_hits = 0
        self._cache_misses = 0
        self._query_count = 0
        self._lock = threading.RLock()
        conn = sqlite3.connect(
            path if path is not None else ":memory:",
            check_same_thread=False,
            cached_statements=256,
        )
        conn.isolation_level = None  # explicit BEGIN/COMMIT per flush
        if path is not None:
            # Durability is irrelevant (stores are per-session scratch);
            # a bounded page cache is what keeps the resident set small.
            conn.execute("PRAGMA journal_mode=MEMORY")
            conn.execute("PRAGMA synchronous=OFF")
            conn.execute("PRAGMA cache_size=-2048")  # 2 MiB page cache
        cols = ", ".join(["seq INTEGER PRIMARY KEY", "tid", *self._colnames])
        conn.execute(f"CREATE TABLE data ({cols})")
        self._conn = conn
        placeholders = ", ".join("?" for _ in range(len(self._attrs) + 2))
        self._insert_sql = f"INSERT INTO data VALUES ({placeholders})"
        self._row_cols = ", ".join(self._colnames)

    def close(self) -> None:
        """Close the connection and remove the backing file (if any)."""
        conn = getattr(self, "_conn", None)
        if conn is None:
            return
        self._conn = None
        try:
            conn.close()
        except Exception:  # pragma: no cover - interpreter shutdown
            pass
        path = getattr(self, "_path", None)
        if path is not None:
            try:
                os.remove(path)
            except OSError:  # pragma: no cover - already gone
                pass

    def __del__(self):  # pragma: no cover - gc timing dependent
        try:
            self.close()
        except Exception:
            pass

    # -- attribute/column metadata -------------------------------------------------------

    @property
    def attributes(self) -> tuple[str, ...]:
        return self._attrs

    @property
    def path(self) -> str | None:
        """The backing database file, or None for ``:memory:``."""
        return self._path

    def column(self, attribute: str) -> str:
        """The physical column name storing ``attribute``."""
        return self._col[attribute]

    def _fresh(self, attributes) -> "SqlStore":
        """An empty store of this engine over ``attributes``, placed where
        newly created stores go (see :func:`configure`)."""
        return type(self)(Schema(f"{self.name}_fragment", attributes, self._key))

    # -- write buffering -----------------------------------------------------------------

    def _flush_locked(self) -> None:
        if not self._pending:
            return
        pending, self._pending = self._pending, []
        self._insert_all(self._insert_sql, pending)

    def _insert_all(self, sql: str, rows: list[tuple]) -> None:
        """``executemany(sql, rows)`` in one transaction."""
        self._conn.execute("BEGIN")
        try:
            self._conn.executemany(sql, rows)
            self._conn.execute("COMMIT")
        except Exception:
            self._conn.execute("ROLLBACK")
            raise

    def flush(self) -> None:
        """Apply all buffered inserts in one transaction (idempotent)."""
        with self._lock:
            self._flush_locked()

    def _encode_row(self, t: Tuple, seq: int) -> tuple:
        return (
            seq,
            encode_value(t.tid),
            *(encode_value(t[a]) for a in self._attrs),
        )

    # -- StorageBackend protocol ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._index)

    def __contains__(self, tid: Any) -> bool:
        return tid in self._index

    def tids(self) -> KeysView[Any]:
        return self._index.keys()

    def insert(self, t: Tuple) -> None:
        with self._lock:
            seq = self._index.get(t.tid)
            if seq is not None:
                # Overwrite in place: dict semantics keep the position.
                self._flush_locked()
                sets = ", ".join(f"{c} = ?" for c in self._colnames)
                self._conn.execute(
                    f"UPDATE data SET {sets} WHERE seq = ?",
                    (*(encode_value(t[a]) for a in self._attrs), seq),
                )
                return
            seq = self._next_seq
            self._next_seq += 1
            self._index[t.tid] = seq
            self._pending.append(self._encode_row(t, seq))
            if len(self._pending) >= FLUSH_LIMIT:
                self._flush_locked()

    def bulk_load(self, tuples) -> None:
        """Append many tuples at once (caller has checked tids are fresh)."""
        with self._lock:
            for t in tuples:
                seq = self._next_seq
                self._next_seq += 1
                self._index[t.tid] = seq
                self._pending.append(self._encode_row(t, seq))
                if len(self._pending) >= FLUSH_LIMIT:
                    self._flush_locked()
            self._flush_locked()

    def _tuple_from_row(self, row: tuple) -> Tuple:
        # row = (tid, a0, a1, ...)
        return Tuple(
            decode_value(row[0]),
            {a: decode_value(row[i + 1]) for i, a in enumerate(self._attrs)},
        )

    def get(self, tid: Any) -> Tuple | None:
        with self._lock:
            seq = self._index.get(tid)
            if seq is None:
                return None
            self._flush_locked()
            row = self._conn.execute(
                f"SELECT tid, {self._row_cols} FROM data WHERE seq = ?", (seq,)
            ).fetchone()
        return self._tuple_from_row(row)

    def pop(self, tid: Any) -> Tuple | None:
        with self._lock:
            seq = self._index.pop(tid, None)
            if seq is None:
                return None
            self._flush_locked()
            row = self._conn.execute(
                f"SELECT tid, {self._row_cols} FROM data WHERE seq = ?", (seq,)
            ).fetchone()
            self._conn.execute("DELETE FROM data WHERE seq = ?", (seq,))
        return self._tuple_from_row(row)

    def __iter__(self) -> Iterator[Tuple]:
        # Keyset pagination: stream in chunks without holding the lock
        # across yields (and without materializing the table in Python).
        last = -1
        sql = (
            f"SELECT seq, tid, {self._row_cols} FROM data "
            "WHERE seq > ? ORDER BY seq LIMIT ?"
        )
        while True:
            with self._lock:
                self._flush_locked()
                rows = self._conn.execute(sql, (last, FETCH_CHUNK)).fetchall()
            if not rows:
                return
            for row in rows:
                last = row[0]
                yield self._tuple_from_row(row[1:])

    def copy(self) -> "SqlStore":
        clone = object.__new__(type(self))
        clone._attrs = self._attrs
        clone._key = self._key
        clone._init_connection(
            None if self._path is None else self._configured_path()
        )
        with self._lock:
            self._flush_locked()
            self._conn.backup(clone._conn)
            clone._index = dict(self._index)
            clone._next_seq = self._next_seq
        return clone

    # -- queries (the detection operations' entry points) ---------------------------------------------

    def query_all(self, sql: str, params: tuple = ()) -> list:
        """Flush pending writes and fetch a whole result set (locked)."""
        with self._lock:
            self._flush_locked()
            self._query_count += 1
            return self._conn.execute(sql, params).fetchall()

    @property
    def query_count(self) -> int:
        """How many kernel queries this store has executed (``query_all``
        calls: one per fused rule group per check)."""
        return self._query_count

    def scan(self, sql: str, params: tuple = ()) -> Iterator[tuple]:
        """Flush and stream a result set in ``FETCH_CHUNK``-row chunks,
        holding the lock until the stream ends; for full-table reads
        that must not materialize in Python."""
        with self._lock:
            self._flush_locked()
            cursor = self._conn.execute(sql, params)
            while True:
                rows = cursor.fetchmany(FETCH_CHUNK)
                if not rows:
                    return
                yield from rows

    # -- detection operations (the protocol of repro.core.storage) ---------------------

    def check(self, groups: Sequence[Any]) -> list[set[Any]]:
        """Violating tids per member of every group: one tagged ``UNION ALL``
        query per group, split back into per-rule sets by its rule-tag
        column (:func:`~repro.sqlstore.compiler.fused_violation_query`)."""
        out: list[set[Any]] = []
        for group in groups:
            if _prof.enabled:
                _t0 = perf_counter()
            found: list[set[Any]] = [set() for _ in group.members]
            sql, params = compiler.fused_violation_query(self, group.members)
            for rule, tid in self.query_all(sql, params):
                found[rule].add(decode_value(tid))
            out.extend(found)
            if _prof.enabled:
                _prof.note("rulefuse.sql_query", perf_counter() - _t0, len(self))
        return out

    def tids_of(self, result: set[Any]) -> set[Any]:
        return result

    def build_indexes(self, indexes: Sequence[Any]) -> None:
        """Load each index from one pushed-down projection per LHS list.

        The engine filters on the constants every same-LHS index pins (for
        a group of one, all of them) and returns ``(tid, lhs..., rhs...)``;
        an index's other constants are tested on the raw cells (the value
        encoding keeps the engine's equality), and the loads group on
        decoded values.
        """
        for group in compile_rule_set([index.cfd for index in indexes]):
            if _prof.enabled:
                _t0 = perf_counter()
            lhs = group.lhs
            n_lhs = len(lhs)
            rhs_attrs = list(dict.fromkeys(cfd.rhs for cfd in group.members))
            shared = compiler.shared_constants(group.members)
            sql, params = compiler.constant_match_query(self, (*lhs, *rhs_attrs), shared)
            # Per index: positional encoded constants left to test, its RHS
            # column and its {key: {rhs_value: tids}} loads.
            specs = [
                (
                    indexes[i],
                    tuple(
                        (1 + lhs.index(a), encode_value(constant))
                        for a, constant in compiler.pattern_constants(cfd)
                        if a not in shared
                    ),
                    1 + n_lhs + rhs_attrs.index(cfd.rhs),
                    {},
                )
                for i, cfd in zip(group.indexes, group.members)
            ]
            for row in self.query_all(sql, params):
                tid = key = None
                rhs_values: dict[int, Any] = {}
                for _index, consts, rpos, loads in specs:
                    if consts and not all(row[p] == c for p, c in consts):
                        continue
                    if key is None:
                        tid = decode_value(row[0])
                        key = tuple(decode_value(v) for v in row[1 : 1 + n_lhs])
                    if rpos not in rhs_values:
                        rhs_values[rpos] = decode_value(row[rpos])
                    loads.setdefault(key, {}).setdefault(rhs_values[rpos], set()).add(tid)
            for index, _consts, _rpos, loads in specs:
                for key, by_rhs in loads.items():
                    index.load_group(key, by_rhs)
            if _prof.enabled:
                _prof.note("idx.build_sql", perf_counter() - _t0, len(self))

    def key_summary(
        self, cfd: CFD, want_ship: bool, prices: Any
    ) -> tuple[tuple[int, int], dict[tuple, Any]]:
        """batHor's site summary: one ``GROUP BY`` (LHS, RHS) with ``COUNT(*)``;
        each group is decoded and priced as its count times its values' sizes
        (a group holds only values the engine finds equal, which price alike)."""
        if _prof.enabled:
            _t0 = perf_counter()
        groups = self.query_all(*compiler.pair_count_query(self, cfd))
        *columns, counts = _decoded_columns(groups) or [()] * (len(cfd.attributes) + 1)
        shipment = prices.grouped_shipment(counts, columns) if want_ship else (0, 0)
        summary = summarize(zip(zip(*columns[:-1]), columns[-1]))
        if _prof.enabled:
            _prof.note("shipment.sql_summary", perf_counter() - _t0, len(self))
        return shipment, summary

    def dirty_tids(self, cfd: CFD, dirty_keys: set[tuple]) -> list[Any]:
        """batHor's second site round, filtered in the engine: the stored keys
        that decode to a dirty key are joined back from a TEMP table in their
        own encoding (a ``True`` key is a tagged blob, a ``1`` key native)."""
        if _prof.enabled:
            _t0 = perf_counter()
        found: list[Any] = []
        with self._lock:
            keys = self.query_all(*compiler.key_scan_query(self, cfd))
            decoded = zip(*_decoded_columns(keys))
            stored = list(compress(keys, map(dirty_keys.__contains__, decoded)))
            if stored:
                width = len(cfd.lhs)
                table, columns = f"dirty_keys{width}", ", ".join(f"k{j}" for j in range(width))
                self._conn.execute(
                    f"CREATE TEMP TABLE IF NOT EXISTS {table} ({columns}, UNIQUE ({columns}))"
                )
                self._conn.execute(f"DELETE FROM {table}")
                self._insert_all(f"INSERT INTO {table} VALUES ({', '.join(['?'] * width)})", stored)
                rows = self.query_all(*compiler.keyed_tids_query(self, cfd, table))
                found = _decoded(list(map(itemgetter(0), rows)))
        if _prof.enabled:
            _prof.note("shipment.sql_dirty", perf_counter() - _t0, len(self))
        return found

    def ship_scan(
        self, attributes: Sequence[str], constants: Mapping[str, Any], prices: Any
    ) -> tuple[int, int]:
        """batVer's site scan: the ``(count, bytes)`` of shipping the
        ``attributes`` projection of every tuple equal to ``constants`` on
        the attributes it pins (one pushed-down filter; ``prices``
        estimates each distinct value once)."""
        if _prof.enabled:
            _t0 = perf_counter()
        sql, params = compiler.constant_match_query(self, attributes, constants)
        rows = self.query_all(sql, params)
        shipment = prices.shipment(len(rows), _decoded_columns(rows)[1:])
        if _prof.enabled:
            _prof.note("shipment.sql_ship_scan", perf_counter() - _t0, len(self))
        return shipment

    def estimate_bytes(self, attributes=None) -> int:
        """The row cost model's wire size of the whole store.

        Identical numbers to summing ``estimate_tuple_bytes`` over the
        row backend, computed by cursor iteration without materializing
        Tuples.
        """
        if _prof.enabled:
            _t0 = perf_counter()
        attrs = tuple(attributes) if attributes is not None else self._attrs
        total = TID_BYTES * len(self)
        if attrs:
            cols = ", ".join(self._col[a] for a in attrs)
            for row in self.scan(f"SELECT seq, {cols} FROM data"):
                for cell in row[1:]:
                    total += estimate_value_bytes(decode_value(cell))
        if _prof.enabled:
            _prof.note("sql.estimate_bytes", perf_counter() - _t0, len(self))
        return total

    def distinct_counts(self, sample_limit: int | None = None) -> dict[str, int]:
        """Exact per-attribute distinct counts, pushed down as aggregates.

        NULLs count as one extra distinct value (Python ``set`` puts
        ``None`` alongside the rest; ``COUNT(DISTINCT ...)`` skips it).
        """
        if not self._attrs:
            return {}
        if _prof.enabled:
            _t0 = perf_counter()
        parts = ", ".join(
            f"COUNT(DISTINCT {c}) + (COUNT(*) > COUNT({c}))" for c in self._colnames
        )
        row = self.query_all(f"SELECT {parts} FROM data")[0]
        if _prof.enabled:
            _prof.note("sql.distinct_counts", perf_counter() - _t0, len(self))
        return dict(zip(self._attrs, row))

    # -- compiled-SQL cache --------------------------------------------------------------

    def cached_sql(self, key: Any, build: Callable[[], str]) -> str:
        """The per-rule compiled SQL cache (text; the connection keeps
        the actual prepared statements)."""
        sql = self._sql_cache.get(key)
        if sql is None:
            self._cache_misses += 1
            sql = build()
            self._sql_cache[key] = sql
        else:
            self._cache_hits += 1
        return sql

    def statement_cache_info(self) -> dict[str, int]:
        return {
            "hits": self._cache_hits,
            "misses": self._cache_misses,
            "size": len(self._sql_cache),
        }

    # -- pickling (a pickled store carries its rows by value) -----------------------------

    def __getstate__(self) -> dict[str, Any]:
        with self._lock:
            self._flush_locked()
            rows = self._conn.execute(
                f"SELECT seq, tid, {self._row_cols} FROM data ORDER BY seq"
            ).fetchall()
        return {
            "attrs": self._attrs,
            "key": self._key,
            "rows": rows,
            "next_seq": self._next_seq,
        }

    def __setstate__(self, state: dict[str, Any]) -> None:
        self._attrs = tuple(state["attrs"])
        self._key = state["key"]
        # An unpickled copy rebuilds in :memory: — it is scratch.
        self._init_connection(None)
        rows = state["rows"]
        if rows:
            self._conn.executemany(self._insert_sql, rows)
        self._index = {decode_value(row[1]): row[0] for row in rows}
        self._next_seq = state["next_seq"]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        where = self._path or ":memory:"
        return f"SqlStore({len(self)} rows, {len(self._attrs)} columns, {where})"


def _decoded(values: Sequence[Any]) -> Sequence[Any]:
    """``values`` decoded: natively stored values decode to themselves, so
    only a column holding a tagged blob is decoded value by value."""
    return list(map(decode_value, values)) if bytes in set(map(type, values)) else values


def _decoded_columns(rows: list[tuple]) -> list[Sequence[Any]]:
    """Raw result rows transposed into decoded columns."""
    return [_decoded(col) for col in zip(*rows)]


def sql_store_of(relation: Any) -> SqlStore | None:
    """The relation's :class:`SqlStore`, or None for other backends.

    The dispatch hook every pushed-down fast path uses (the twin of
    :func:`repro.columnar.store.column_store_of`): accepts anything and
    answers None unless the object is a relation backed by sqlite.
    """
    store = getattr(relation, "store", None)
    return store if isinstance(store, SqlStore) else None
