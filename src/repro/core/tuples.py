"""Tuples of a relation.

A :class:`Tuple` is an immutable mapping from attribute names to values
together with a tuple identifier (``tid``).  The tid plays the role of
the key attribute of the paper's schemas: it is globally unique within a
relation, is preserved by both vertical and horizontal fragmentation,
and is the unit in which violations are reported (``V(Sigma, D)`` is a
set of tuples, identified by their tids).

Physically a tuple is a values tuple plus a *layout* (attribute name ->
position) that every tuple with the same attribute list shares, so a
row costs one small object and ``8 * arity`` bytes instead of a private
``dict`` per row.
"""

from __future__ import annotations

from operator import itemgetter
from typing import Any, Callable, Iterable, Iterator, Mapping, Sequence


class _Layout(dict):
    """Attribute name -> position in the values tuple (shared, never mutated)."""

    __slots__ = ()

    def __reduce__(self):
        # Re-share on load: an unpickled tuple gets the receiving
        # process's layout for its attribute list, not a private copy.
        return (_shared_layout, (tuple(self),))


# One layout per distinct attribute list seen by the process; bounded by
# the number of schemas and fragment attribute lists, not by |D|.
_LAYOUTS: dict[tuple[str, ...], _Layout] = {}


def _shared_layout(attributes: tuple[str, ...]) -> _Layout:
    layout = _LAYOUTS.get(attributes)
    if layout is None:
        # dict.fromkeys drops repeated names, keeping positions contiguous.
        layout = _Layout((a, i) for i, a in enumerate(dict.fromkeys(attributes)))
        layout = _LAYOUTS.setdefault(attributes, layout)
    return layout


# One merge plan per ordered pair of layouts joined by :meth:`Tuple.merge`,
# keyed by identity (a plan holds both layouts, so the ids stay taken).
_MERGE_PLANS: dict[tuple[int, int], tuple] = {}


def _merge_plan(left: _Layout, right: _Layout) -> tuple:
    """``(merged layout, right positions to append, shared (attribute,
    left position, right position) triples, the two layouts)``."""
    plan = _MERGE_PLANS[id(left), id(right)] = (
        _shared_layout((*left, *(a for a in right if a not in left))),
        tuple(i for a, i in right.items() if a not in left),
        tuple((a, left[a], i) for a, i in right.items() if a in left),
        (left, right),
    )
    return plan


def _from_layout(tid: Any, layout: _Layout, values: tuple[Any, ...]) -> "Tuple":
    t = Tuple.__new__(Tuple)
    t._tid = tid
    t._layout = layout
    t._vals = values
    t._hash = None
    return t


def values_picker(positions: Sequence[int]) -> Callable[[tuple], tuple]:
    """``values -> tuple(values[i] for i in positions)``, at C speed."""
    if len(positions) == 1:
        (i,) = positions
        return lambda values: (values[i],)
    return itemgetter(*positions)


def rows_of(
    tuples: Iterable["Tuple"], attributes: Sequence[str]
) -> Iterator[tuple[Any, tuple[Any, ...]]]:
    """``(t.tid, t.values_for(attributes))`` for every tuple, in order.

    The source positions are resolved once per distinct tuple layout,
    not once per tuple, and a tuple whose attribute list already is
    ``attributes`` hands out its own values tuple (immutable, so sharing
    it is safe).  Raises ``KeyError`` on a tuple lacking an attribute.
    """
    names = tuple(attributes)
    source: _Layout | None = None
    pick: Callable[[tuple], tuple] | None = None
    for t in tuples:
        if t._layout is not source:
            source = t._layout
            pick = (
                None if tuple(source) == names else values_picker([source[a] for a in names])
            )
        yield t._tid, (t._vals if pick is None else pick(t._vals))


def tuple_factory(attributes: Sequence[str]) -> Callable[[Any, tuple], "Tuple"]:
    """``make(tid, values)``: a tuple over ``attributes`` from values listed
    in that order (taken as is — no copy and no arity check).

    The layout is looked up once here instead of once per tuple, which
    is what bulk builders (fragmentation, reconstruction, generators)
    need.  ``attributes`` must not repeat a name.
    """
    layout = _shared_layout(tuple(attributes))

    def make(tid: Any, values: tuple[Any, ...]) -> "Tuple":
        return _from_layout(tid, layout, values)

    return make


class Tuple(Mapping[str, Any]):
    """An immutable, hashable relational tuple.

    Parameters
    ----------
    tid:
        Unique tuple identifier (the key value).
    values:
        Mapping from attribute name to value.  Values are treated as
        opaque except for equality comparison, which is all the CFD
        semantics requires.
    """

    __slots__ = ("_tid", "_layout", "_vals", "_hash")

    def __init__(self, tid: Any, values: Mapping[str, Any]):
        self._tid = tid
        if type(values) is Tuple:
            self._layout = values._layout
            self._vals = values._vals
        else:
            layout = self._layout = _shared_layout(tuple(values))
            if type(values) is dict and len(layout) == len(values):
                self._vals = tuple(values.values())
            else:
                self._vals = tuple(values[a] for a in layout)
        self._hash: int | None = None

    # -- mapping protocol ----------------------------------------------------

    def __getitem__(self, attribute: str) -> Any:
        return self._vals[self._layout[attribute]]

    def __iter__(self) -> Iterator[str]:
        return iter(self._layout)

    def __len__(self) -> int:
        return len(self._vals)

    def __contains__(self, attribute: object) -> bool:
        return attribute in self._layout

    # -- identity ------------------------------------------------------------

    @property
    def tid(self) -> Any:
        """The tuple identifier (key value)."""
        return self._tid

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self._tid, frozenset(zip(self._layout, self._vals))))
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Tuple):
            return NotImplemented
        if self._tid != other._tid:
            return False
        if self._layout is other._layout:
            return self._vals == other._vals
        # Same attributes listed in another order: compare as mappings.
        return self.as_dict() == other.as_dict()

    def __reduce__(self):
        # The cached hash stays behind: string hashes differ per process.
        return (_from_layout, (self._tid, self._layout, self._vals))

    # -- projection and helpers ----------------------------------------------

    def values_for(self, attributes: Iterable[str]) -> tuple[Any, ...]:
        """Return the values of ``attributes`` in the given order.

        This is the ``t[X]`` notation of the paper for a list of
        attributes X.
        """
        layout, vals = self._layout, self._vals
        return tuple(vals[layout[a]] for a in attributes)

    def project(self, attributes: Iterable[str]) -> "Tuple":
        """Return a new tuple restricted to ``attributes`` (same tid)."""
        mine, vals = self._layout, self._vals
        layout = _shared_layout(tuple(attributes))
        return _from_layout(self._tid, layout, tuple(vals[mine[a]] for a in layout))

    def merge(self, other: "Tuple") -> "Tuple":
        """Join two fragments of the same logical tuple (same tid).

        The result lists this tuple's attributes, then the other's new
        ones; values of shared attributes must agree (``ValueError``
        otherwise) and this tuple's are kept.
        """
        if other._tid != self._tid:
            raise ValueError(
                f"cannot merge tuples with different tids: {self._tid!r} != {other._tid!r}"
            )
        left, right = self._layout, other._layout
        layout, appended, shared, _ = _MERGE_PLANS.get(
            (id(left), id(right))
        ) or _merge_plan(left, right)
        mine, theirs = self._vals, other._vals
        for attr, i, j in shared:
            if mine[i] != theirs[j]:
                raise ValueError(
                    f"conflicting values for attribute {attr!r} while merging tid {self._tid!r}"
                )
        return _from_layout(
            self._tid, layout, mine + tuple(map(theirs.__getitem__, appended))
        )

    def with_values(self, **updates: Any) -> "Tuple":
        """Return a copy with some attribute values replaced."""
        values = self.as_dict()
        values.update(updates)
        return Tuple(self._tid, values)

    def as_dict(self) -> dict[str, Any]:
        """A plain ``dict`` copy of the attribute values."""
        return dict(zip(self._layout, self._vals))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        cols = ", ".join(f"{k}={v!r}" for k, v in zip(self._layout, self._vals))
        return f"Tuple(tid={self._tid!r}, {cols})"
