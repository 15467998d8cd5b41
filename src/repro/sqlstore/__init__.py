"""SQL pushdown storage backend over embedded sqlite.

The package provides the ``"sql"`` storage backend selectable on any
:class:`~repro.core.relation.Relation` (and per detection session via
``repro.session(...).storage("sql")``): each relation's tuples live in
one table of stdlib :mod:`sqlite3`, ``:memory:`` by default or
file-backed via :func:`configure`, and the store's detection operations compile CFD checks to set-oriented SQL
(the paper's classic constant/variable two-query formulation,
:mod:`repro.sqlstore.compiler`) instead of tuple-at-a-time Python
loops.  File-backed stores page through a bounded cache, so detection
scales past RAM.

Importing the package registers the backend with
:mod:`repro.core.storage`; results and shipment counters are identical
to the row backend for every detector and partitioning (see
``tests/test_sql_parity.py``).
"""

from repro.core.storage import StorageError, register_storage_backend
from repro.sqlstore import compiler
from repro.sqlstore.compiler import decode_value, encode_value
from repro.sqlstore.store import SqlStore, configure, configured_directory, sql_store_of

try:
    register_storage_backend("sql", SqlStore)
except StorageError:  # pragma: no cover - double registration is harmless
    pass

__all__ = [
    "SqlStore",
    "compiler",
    "configure",
    "configured_directory",
    "decode_value",
    "encode_value",
    "sql_store_of",
]
