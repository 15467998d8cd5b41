"""Pluggable tuple-storage backends for :class:`~repro.core.relation.Relation`.

A relation's logical contract — tuples indexed by tid, O(1) membership,
insertion order preserved — is independent of how the tuples are laid
out in memory.  This module defines the small backend protocol the
:class:`~repro.core.relation.Relation` front-end delegates to, plus the
default :class:`RowStore` (one :class:`~repro.core.tuples.Tuple` object
per row, the layout the seed repository used everywhere).

The columnar backend of :mod:`repro.columnar` registers itself here
under the name ``"columnar"``: one code array per attribute with
dictionary-encoded (interned) values and a tid→row index, enabling the
vectorized detection kernels.  Backends are addressable by name so
sessions can select them per run (``repro.session(...).storage("columnar")``)
without the callers caring about the layout.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, KeysView, Protocol, runtime_checkable

from repro.core.schema import Schema
from repro.core.tuples import Tuple


class StorageError(ValueError):
    """Raised on unknown storage backend names or duplicate registrations."""


@runtime_checkable
class StorageBackend(Protocol):
    """The storage contract behind a :class:`~repro.core.relation.Relation`.

    Implementations own the physical layout; the relation front-end owns
    schema validation and error reporting.  Iteration must yield tuples
    in insertion order (deleted tids drop out; re-inserting a tid moves
    it to the end), matching ``dict`` semantics so the two built-in
    backends are observably identical.
    """

    #: Registry name of the backend ("rows", "columnar", ...).
    name: str

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


class RowStore:
    """The default backend: one immutable Tuple object per row in a dict."""

    name = "rows"

    __slots__ = ("_tuples",)

    def __init__(self, schema: Schema | None = None):
        self._tuples: dict[Any, Tuple] = {}

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
        return clone


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
#: import: name -> module to import.  A module may register fewer names
#: than it is listed under (``repro.sqlstore`` only registers
#: ``"duckdb"`` when the optional dependency is installed), so an entry
#: here is a *candidate*, not a promise.
_LAZY_BUILTINS: dict[str, str] = {
    "columnar": "repro.columnar",
    "sql": "repro.sqlstore",
    "duckdb": "repro.sqlstore",
}


def storage_backend_names() -> list[str]:
    """The registered backend names (the built-ins plus any plug-ins).

    Lazy built-ins whose module imports but does not register them
    (optional engines with a missing dependency) are not listed.
    """
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
