"""Columnar storage backend with interned values and column-sweep detection.

The package provides the ``"columnar"`` storage backend selectable on
any :class:`~repro.core.relation.Relation` (and per detection session
via ``repro.session(...).storage("columnar")``): one dictionary-encoded
code array per attribute plus a tid→row index, with column-sliced
projection/selection/join, and detection operations
(:class:`~repro.columnar.store.ColumnStore`) that replace
tuple-at-a-time loops with single column sweeps shared across all CFDs
on the same attributes.

Importing the package registers the backend with
:mod:`repro.core.storage`; results are bit-identical to the row backend
for every detector and partitioning (see
``tests/test_storage_parity.py``).
"""

from repro.core.storage import StorageError, register_storage_backend
from repro.columnar.dictionary import ValueDictionary
from repro.columnar.store import ColumnRowView, ColumnStore, column_store_of

try:
    register_storage_backend("columnar", ColumnStore)
except StorageError:  # pragma: no cover - double registration is harmless
    pass

__all__ = [
    "ColumnRowView",
    "ColumnStore",
    "ValueDictionary",
    "column_store_of",
]
