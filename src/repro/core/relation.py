"""In-memory relations (instances of a schema).

A :class:`Relation` stores tuples indexed by tid and supports the small
set of operations the detection algorithms need: insertion, deletion,
projection (for vertical fragmentation), selection (for horizontal
fragmentation) and reconstruction by join/union.

The physical layout lives behind a pluggable storage backend
(:mod:`repro.core.storage`): the default ``"rows"`` backend keeps one
:class:`~repro.core.tuples.Tuple` per row, the ``"columnar"`` backend of
:mod:`repro.columnar` keeps one dictionary-encoded code array per
attribute and the ``"sql"`` backend of :mod:`repro.sqlstore` one table of
an embedded engine.  All are observably identical through this API.
The algebra below owns the schemas and the error reporting; the rows
are projected, selected, joined and appended by one call to the store,
which keeps the result on the left operand's backend.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, KeysView, Mapping

from repro.core.schema import Schema, SchemaError
from repro.core.storage import ProjectionView, make_storage
from repro.core.tuples import Tuple


class RelationError(ValueError):
    """Raised on malformed relation operations (duplicate tid, bad attrs)."""


class Relation:
    """A mutable set of tuples conforming to a :class:`Schema`.

    Tuples are indexed by tid; membership tests, lookups, insertions and
    deletions are all O(1).  ``storage`` selects the physical backend by
    registry name (``"rows"`` — the default —, ``"columnar"``, ``"sql"``,
    ...); an already-built backend instance is also accepted (the
    algebra hands over the stores its operations return).
    """

    def __init__(
        self,
        schema: Schema,
        tuples: Iterable[Tuple] = (),
        storage: str | Any = "rows",
    ):
        self._schema = schema
        #: The tuple layout that last passed :meth:`_check` (tuples with
        #: one attribute list share one layout object).
        self._checked_layout: Any = None
        if isinstance(storage, str):
            self._store = make_storage(storage, schema)
        else:
            self._store = storage
        for t in tuples:
            self.insert(t)

    # -- basic protocol --------------------------------------------------------

    @property
    def schema(self) -> Schema:
        """The relation's schema."""
        return self._schema

    @property
    def storage(self) -> str:
        """The storage backend name ("rows", "columnar", ...)."""
        return self._store.name

    @property
    def store(self) -> Any:
        """The storage backend instance (advanced: kernels and diagnostics)."""
        return self._store

    def __len__(self) -> int:
        return len(self._store)

    def __iter__(self) -> Iterator[Tuple]:
        return iter(self._store)

    def __contains__(self, tid: Any) -> bool:
        return tid in self._store

    def get(self, tid: Any) -> Tuple | None:
        """Return the tuple with identifier ``tid`` or ``None``."""
        return self._store.get(tid)

    def __getitem__(self, tid: Any) -> Tuple:
        t = self._store.get(tid)
        if t is None:
            raise RelationError(f"no tuple with tid {tid!r}")
        return t

    def tids(self) -> KeysView[Any]:
        """A set-like *view* of all tuple identifiers.

        The view is cheap (no per-call copy — this sits in hot loops),
        supports iteration, membership and set operators, and reflects
        subsequent mutations; call ``set(...)`` on it for a snapshot.
        """
        return self._store.tids()

    # -- construction helpers ---------------------------------------------------

    @classmethod
    def from_rows(
        cls,
        schema: Schema,
        rows: Iterable[Mapping[str, Any]],
        storage: str = "rows",
    ) -> "Relation":
        """Build a relation from dict-like rows; the key column is the tid."""
        relation = cls(schema, storage=storage)
        for row in rows:
            tid = row[schema.key]
            relation.insert(Tuple(tid, {a: row[a] for a in schema.attribute_names}))
        return relation

    def with_storage(self, storage: str) -> "Relation":
        """This relation re-hosted on the named backend (self if unchanged)."""
        if storage == self.storage:
            return self
        converted = Relation(self._schema, storage=storage)
        converted.store.bulk_load(self)
        return converted

    # -- mutation ----------------------------------------------------------------

    def _check(self, t: Tuple) -> None:
        """Raise unless ``t`` carries exactly the schema's attributes.

        The verdict depends only on the tuple's attribute list, so a
        layout that has passed is not tested again.
        """
        if t._layout is self._checked_layout:
            return
        missing = [a for a in self._schema.attribute_names if a not in t]
        if missing:
            raise RelationError(
                f"tuple {t.tid!r} is missing attributes {missing} of schema "
                f"{self._schema.name!r}"
            )
        extra = [a for a in t if a not in self._schema]
        if extra:
            raise RelationError(
                f"tuple {t.tid!r} carries attributes {extra} not in schema "
                f"{self._schema.name!r}"
            )
        self._checked_layout = t._layout

    def insert(self, t: Tuple) -> None:
        """Insert a tuple; its tid must be fresh."""
        self._check(t)
        if t.tid in self._store:
            raise RelationError(f"duplicate tid {t.tid!r} in relation {self._schema.name!r}")
        self._store.insert(t)

    def delete(self, tid: Any) -> Tuple:
        """Delete and return the tuple with identifier ``tid``."""
        t = self._store.pop(tid)
        if t is None:
            raise RelationError(f"cannot delete unknown tid {tid!r}")
        return t

    def discard(self, tid: Any) -> Tuple | None:
        """Delete the tuple with identifier ``tid`` if present."""
        return self._store.pop(tid)

    def _extend(self, other: "Relation") -> None:
        """Bulk-append another relation's tuples (duplicate tids rejected)."""
        for tid in other.tids():
            if tid in self._store:
                raise RelationError(
                    f"duplicate tid {tid!r} in relation {self._schema.name!r}"
                )
        self._store.extend(other.store)

    # -- algebra -------------------------------------------------------------------

    def project(self, attributes: Iterable[str], name: str | None = None) -> "Relation":
        """Vertical projection onto ``attributes`` (the key is kept)."""
        fragment_schema = self._schema.project(attributes, name=name)
        return Relation(
            fragment_schema, storage=self._store.project(fragment_schema.attribute_names)
        )

    def select(
        self, predicate: Callable[[Tuple], bool], name: str | None = None
    ) -> "Relation":
        """Horizontal selection of the tuples satisfying ``predicate``.

        ``predicate`` is passed a read-only mapping with ``.tid`` — the
        stored tuple, or a zero-copy row view on columnar storage.
        """
        fragment_schema = Schema(
            name or f"{self._schema.name}_sel",
            self._schema.attribute_names,
            self._schema.key,
        )
        return Relation(fragment_schema, storage=self._store.select(predicate))

    def join(self, other: "Relation", name: str | None = None) -> "Relation":
        """Key join of two vertical fragments of the same relation.

        Only tids present in both operands survive, matching the natural
        join on the key attribute used by the paper for reconstruction.
        """
        attrs: list[str] = list(self._schema.attribute_names)
        for a in other.schema.attribute_names:
            if a not in attrs:
                attrs.append(a)
        joined_schema = Schema(name or self._schema.name, attrs, self._schema.key)
        return Relation(
            joined_schema,
            storage=self._store.join([other.store], joined_schema.attribute_names),
        )

    def union(self, other: "Relation", name: str | None = None) -> "Relation":
        """Disjoint union of two horizontal fragments."""
        if set(other.schema.attribute_names) != set(self._schema.attribute_names):
            raise SchemaError("union requires identical attribute sets")
        result_schema = Schema(
            name or self._schema.name,
            self._schema.attribute_names,
            self._schema.key,
        )
        result = Relation(
            result_schema, storage=self._store.project(result_schema.attribute_names)
        )
        result._extend(other)
        return result

    def copy(self) -> "Relation":
        """A shallow copy (tuples are immutable so sharing them is safe)."""
        return Relation(self._schema, storage=self._store.copy())

    def __getstate__(self) -> dict[str, Any]:
        # A vertical fragment crosses a process boundary as its projection:
        # only its columns ship, not the resident relation it views.
        state = dict(self.__dict__)
        if isinstance(self._store, ProjectionView):
            state["_store"] = self._store.copy()
        return state

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Relation({self._schema.name!r}, {len(self)} tuples, {self.storage})"
