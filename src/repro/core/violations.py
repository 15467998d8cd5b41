"""Violation sets and deltas.

``V(phi, D)`` is the set of tuples of ``D`` that violate the CFD
``phi``; ``V(Sigma, D)`` is the union over all CFDs in ``Sigma``.  The
paper requires violations to be "marked with those CFDs that they
violate" when deltas for several CFDs are combined (Section 4), so a
:class:`ViolationSet` maps each violating tid to the set of names of the
CFDs it violates.

:class:`ViolationDelta` carries the changes ``delta-V = delta-V+ union
delta-V-`` produced by the incremental detectors, again per CFD.
"""

from __future__ import annotations

from itertools import repeat
from typing import Any, Collection, Iterable, Iterator, Mapping

# The marks of a tid are an immutable frozenset shared by every tid (in
# every ViolationSet and ViolationDelta of the process) that carries the
# same CFD names: per tid the containers hold one pointer, not one
# mutable set.  The table holds one entry per distinct combination of
# CFD names ever marked, which is bounded by the rule sets in use, not
# by |D|.  Sharing is an optimisation only — nothing compares marks by
# identity, so unpickled (unshared) marks behave the same.
_Marks = frozenset
_SHARED: dict[_Marks, _Marks] = {}


def _with(marks: _Marks, cfd_name: str) -> _Marks:
    grown = marks | {cfd_name}
    return _SHARED.setdefault(grown, grown)


def _without(marks: _Marks, cfd_name: str) -> _Marks:
    shrunk = marks - {cfd_name}
    return _SHARED.setdefault(shrunk, shrunk)


_NO_MARKS: _Marks = frozenset()


def _discard(store: dict[Any, _Marks], tid: Any, cfd_name: str) -> bool:
    """Drop one (tid, CFD) mark from ``store``; False if it was not there."""
    marks = store.get(tid, _NO_MARKS)
    if cfd_name not in marks:
        return False
    if len(marks) == 1:
        del store[tid]
    else:
        store[tid] = _without(marks, cfd_name)
    return True


class _Grown(dict):
    """``marks -> marks | {name}`` for one CFD name, shared, filled on demand."""

    def __init__(self, name: str):
        super().__init__()
        self._name = name

    def __missing__(self, marks: _Marks) -> _Marks:
        grown = self[marks] = _with(marks, self._name)
        return grown


def _mutable(store: dict[Any, _Marks]) -> dict[Any, set[str]]:
    """A deep copy callers may mutate: fresh ``set`` per tid."""
    return {tid: set(marks) for tid, marks in store.items()}


class ViolationSet:
    """A set of violating tuples, each tagged with the CFDs it violates."""

    def __init__(self, entries: Mapping[Any, Iterable[str]] | None = None):
        self._by_tid: dict[Any, _Marks] = {}
        if entries:
            for tid, cfd_names in entries.items():
                for name in cfd_names:
                    self.add(tid, name)

    # -- mutation -------------------------------------------------------------

    def add(self, tid: Any, cfd_name: str) -> bool:
        """Mark ``tid`` as violating ``cfd_name``.  Returns True if new."""
        marks = self._by_tid.get(tid, _NO_MARKS)
        if cfd_name in marks:
            return False
        self._by_tid[tid] = _with(marks, cfd_name)
        return True

    def _mark_all(self, tids: Collection[Any], cfd_name: str) -> None:
        """``add(tid, cfd_name)`` for every tid, without a Python-level loop:
        one ``dict.update`` whose new marks come from a per-name table of
        the shared frozensets."""
        by_tid = self._by_tid
        grown = _Grown(cfd_name)
        by_tid.update(
            zip(tids, map(grown.__getitem__, map(by_tid.get, tids, repeat(_NO_MARKS))))
        )

    def remove(self, tid: Any, cfd_name: str) -> bool:
        """Unmark ``tid`` for ``cfd_name``.  Returns True if it was marked."""
        return _discard(self._by_tid, tid, cfd_name)

    def discard_tuple(self, tid: Any) -> set[str]:
        """Drop every mark of ``tid`` (used when the tuple is deleted)."""
        return set(self._by_tid.pop(tid, _NO_MARKS))

    def apply(self, delta: "ViolationDelta") -> None:
        """Apply a delta in place: additions then removals."""
        for tid, cfd_name in delta.added_pairs():
            self.add(tid, cfd_name)
        for tid, cfd_name in delta.removed_pairs():
            self.remove(tid, cfd_name)

    # -- queries ---------------------------------------------------------------

    def __contains__(self, tid: Any) -> bool:
        return tid in self._by_tid

    def __len__(self) -> int:
        return len(self._by_tid)

    def __iter__(self) -> Iterator[Any]:
        return iter(self._by_tid)

    def tids(self) -> set[Any]:
        """All violating tuple identifiers."""
        return set(self._by_tid)

    def cfds_of(self, tid: Any) -> set[str]:
        """The names of the CFDs that ``tid`` violates (empty if none)."""
        return set(self._by_tid.get(tid, _NO_MARKS))

    def violates(self, tid: Any, cfd_name: str) -> bool:
        """Whether ``tid`` is marked as violating ``cfd_name``."""
        return cfd_name in self._by_tid.get(tid, _NO_MARKS)

    def tids_for(self, cfd_name: str) -> set[Any]:
        """All tids violating a given CFD, i.e. ``V(phi, D)``."""
        return {tid for tid, marks in self._by_tid.items() if cfd_name in marks}

    def as_dict(self) -> dict[Any, set[str]]:
        """A copy of the tid -> {cfd names} mapping."""
        return _mutable(self._by_tid)

    def copy(self) -> "ViolationSet":
        clone = ViolationSet()
        clone._by_tid = dict(self._by_tid)
        return clone

    # -- comparison --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ViolationSet):
            return NotImplemented
        return self._by_tid == other._by_tid

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ViolationSet({len(self._by_tid)} tuples)"


class ViolationDelta:
    """Changes to a violation set: ``delta-V+`` (added) and ``delta-V-`` (removed).

    Both sides are per-CFD sets of tids.  The paper observes that
    insertions only produce ``delta-V+`` and deletions only produce
    ``delta-V-``; the incremental algorithms preserve that property and
    the tests assert it.

    The delta records the *net* effect: adding a (tid, CFD) mark that is
    currently recorded as removed cancels the removal (and vice versa),
    so a batch containing a deletion followed by a re-insertion of the
    same group yields an empty net change and the delta can be applied
    to the old violation set in any order.
    """

    def __init__(self) -> None:
        self._added: dict[Any, _Marks] = {}
        self._removed: dict[Any, _Marks] = {}

    # -- mutation ----------------------------------------------------------------

    def add(self, tid: Any, cfd_name: str) -> None:
        """Record that ``tid`` becomes a violation of ``cfd_name``."""
        if _discard(self._removed, tid, cfd_name):
            return
        self._added[tid] = _with(self._added.get(tid, _NO_MARKS), cfd_name)

    def remove(self, tid: Any, cfd_name: str) -> None:
        """Record that ``tid`` stops being a violation of ``cfd_name``."""
        if _discard(self._added, tid, cfd_name):
            return
        self._removed[tid] = _with(self._removed.get(tid, _NO_MARKS), cfd_name)

    def merge(self, other: "ViolationDelta") -> None:
        """Fold another delta into this one (net semantics are preserved)."""
        for tid, names in other._added.items():
            for name in names:
                self.add(tid, name)
        for tid, names in other._removed.items():
            for name in names:
                self.remove(tid, name)

    # -- views -------------------------------------------------------------------

    @property
    def added(self) -> dict[Any, set[str]]:
        """tid -> CFD names newly violated (``delta-V+``)."""
        return _mutable(self._added)

    @property
    def removed(self) -> dict[Any, set[str]]:
        """tid -> CFD names no longer violated (``delta-V-``)."""
        return _mutable(self._removed)

    def added_tids(self) -> set[Any]:
        return set(self._added)

    def removed_tids(self) -> set[Any]:
        return set(self._removed)

    def added_pairs(self) -> Iterator[tuple[Any, str]]:
        for tid, names in self._added.items():
            for name in names:
                yield tid, name

    def removed_pairs(self) -> Iterator[tuple[Any, str]]:
        for tid, names in self._removed.items():
            for name in names:
                yield tid, name

    def is_empty(self) -> bool:
        return not self._added and not self._removed

    def size(self) -> int:
        """|delta-V| counted as the number of (tid, CFD) change pairs."""
        return sum(len(v) for v in self._added.values()) + sum(
            len(v) for v in self._removed.values()
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ViolationDelta):
            return NotImplemented
        return self._added == other._added and self._removed == other._removed

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"ViolationDelta(+{len(self._added)}, -{len(self._removed)})"


def diff_violations(old: ViolationSet, new: ViolationSet) -> ViolationDelta:
    """Compute the delta turning ``old`` into ``new`` (reference helper)."""
    delta = ViolationDelta()
    old_map = old._by_tid
    new_map = new._by_tid
    # Equal marks are mostly the same shared frozenset: skip those tids
    # with one identity test.
    for tid, names in new_map.items():
        was = old_map.get(tid, _NO_MARKS)
        if names is not was:
            for name in names - was:
                delta.add(tid, name)
    for tid, names in old_map.items():
        now = new_map.get(tid, _NO_MARKS)
        if names is not now:
            for name in names - now:
                delta.remove(tid, name)
    return delta
