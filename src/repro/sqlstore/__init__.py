"""SQL pushdown storage backend over embedded engines.

The package provides the ``"sql"`` storage backend selectable on any
:class:`~repro.core.relation.Relation` (and per detection session via
``repro.session(...).storage("sql")``): each relation's tuples live in
one table of an embedded SQL engine — stdlib :mod:`sqlite3`,
``:memory:`` by default or file-backed via :func:`configure` — and the
store's detection operations compile CFD checks to set-oriented SQL
(the paper's classic constant/variable two-query formulation,
:mod:`repro.sqlstore.compiler`) instead of tuple-at-a-time Python
loops.  File-backed stores page through a bounded cache, so detection
scales past RAM.

When the optional :mod:`duckdb` package is installed (the ``[sql]``
extra), the same compiler also drives a ``"duckdb"`` engine; without
it, only ``"sql"`` registers and nothing else changes.

Importing the package registers the backends with
:mod:`repro.core.storage`; results and shipment counters are identical
to the row backend for every detector, executor and partitioning (see
``tests/test_sql_parity.py``).
"""

from repro.core.storage import StorageError, register_storage_backend
from repro.sqlstore.store import (
    DUCKDB_AVAILABLE,
    DuckStore,
    SqlStore,
    configure,
    configured_directory,
    decode_value,
    encode_value,
    sql_store_of,
)
from repro.sqlstore import compiler

try:
    register_storage_backend("sql", SqlStore)
except StorageError:  # pragma: no cover - double registration is harmless
    pass

if DUCKDB_AVAILABLE:  # pragma: no cover - requires optional duckdb
    try:
        register_storage_backend("duckdb", DuckStore)
    except StorageError:
        pass

__all__ = [
    "DUCKDB_AVAILABLE",
    "DuckStore",
    "SqlStore",
    "compiler",
    "configure",
    "configured_directory",
    "decode_value",
    "encode_value",
    "sql_store_of",
]
