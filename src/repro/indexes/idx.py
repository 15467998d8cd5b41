"""The IDX index of Section 4.

For a variable CFD ``phi = (X -> B, tp)``, the IDX groups the tuples
that the CFD applies to (those whose ``X`` values match ``tp[X]``) by
their LHS equivalence class; inside each class it stores the distinct
``B`` values and, per value, the set of tuple ids: this is exactly
``set(t[X])`` of the paper — "for each ``[t]_X`` an IDX stores distinct
values of the B attribute and their associated tuple ids".

The same structure is used per site by the horizontal detector (keyed by
local tuples only) and globally by the vertical detector (stored at the
site the HEV plan assigns to the CFD).

A class holds its tids as the keys of a dict (values ``None``), not a
set.  A set's table grows 4x while it has fewer than 50 000 members and
then sits at 15-60 % load; a dict grows 2x and its entries stay dense.
The classes of one CFD are about equally large, and under hash
partitioning there are hundreds of them. They cross the same resize
threshold at nearly the same |D|, so with sets the index memory jumped
in steps. On incHor's per-site indexes (10^5 TPCH tuples, 8 sites, 10
CFDs, then 2.2·10^5 → 3·10^5 updates), sets grew from 130 to 181 MB and
dicts from 101 to 134 MB.  A dict of int keys and ``None`` values is
also not tracked by the cyclic GC.
"""

from __future__ import annotations

from collections.abc import Set
from time import perf_counter
from typing import Any, Callable, Hashable, Iterable, Iterator, Mapping

from repro.core.cfd import CFD, UNNAMED
from repro.core.storage import store_of
from repro.core.tuples import Tuple, values_picker
from repro.core.violations import ViolationSet
from repro.obs import profile as _prof


class IndexError_(RuntimeError):
    """Raised when the index is asked to remove an unknown tuple."""


class ClassView(Set):
    """Read-only live view of one RHS class ``[t]_{X ∪ {B}}`` (its tids)."""

    __slots__ = ("_tids",)

    def __init__(self, tids: dict[Any, None]):
        self._tids = tids

    def __contains__(self, tid: object) -> bool:
        return tid in self._tids

    def __iter__(self) -> Iterator[Any]:
        return iter(self._tids)

    def __len__(self) -> int:
        return len(self._tids)

    @classmethod
    def _from_iterable(cls, tids: Iterable[Any]) -> set[Any]:
        # set algebra on a view (view | other, ...) yields a plain set
        return set(tids)


class GroupView(Mapping[Any, ClassView]):
    """Read-only live view of one LHS group ``set(t[X])``: RHS value -> class.

    Building a view and every access through it is O(1) — nothing is
    copied — which is what lets a single-update probe cost the same for
    a group of ten and of ten thousand members.  The view follows later
    changes of the index; callers that need a snapshot copy it.
    """

    __slots__ = ("_group",)

    def __init__(self, group: Mapping[Any, dict[Any, None]]):
        self._group = group

    def __getitem__(self, rhs_value: Any) -> ClassView:
        return ClassView(self._group[rhs_value])

    def __iter__(self) -> Iterator[Any]:
        return iter(self._group)

    def __len__(self) -> int:
        return len(self._group)

    def __contains__(self, rhs_value: object) -> bool:
        return rhs_value in self._group


_NO_GROUP: dict[Any, dict[Any, None]] = {}


class CFDIndex:
    """Group index for one variable CFD: LHS key -> {RHS value -> {tid: None}}."""

    def __init__(self, cfd: CFD):
        if cfd.is_constant():
            raise ValueError(
                f"CFDIndex only applies to variable CFDs; {cfd.name!r} is constant"
            )
        self._cfd = cfd
        self._groups: dict[tuple[Hashable, ...], dict[Any, dict[Any, None]]] = {}
        # Hot-path caches: the per-tuple methods below run once per tuple
        # per CFD, so resolve the attribute lists and the pattern's LHS
        # constants once here instead of walking the pattern entries
        # (a linear scan each) on every call.
        self._lhs: tuple[str, ...] = cfd.lhs
        self._rhs: str = cfd.rhs
        self._lhs_constants: tuple[tuple[str, Any], ...] = tuple(
            (a, cfd.pattern.entry(a))
            for a in cfd.lhs
            if cfd.pattern.entry(a) is not UNNAMED
        )

    @property
    def cfd(self) -> CFD:
        return self._cfd

    # -- keying --------------------------------------------------------------------

    def lhs_key(self, t: Mapping[str, Any]) -> tuple[Hashable, ...]:
        """The grouping key ``t[X]`` (the semantic content of ``id[t_X]``)."""
        return tuple(t[a] for a in self._lhs)

    def applies_to(self, t: Mapping[str, Any]) -> bool:
        """Whether the CFD's pattern covers ``t`` (i.e. ``t[X] ~ tp[X]``)."""
        for a, constant in self._lhs_constants:
            if t[a] != constant:
                return False
        return True

    def row_plan(
        self, layout: Mapping[str, int]
    ) -> tuple[Callable[[tuple], tuple], int, tuple[tuple[int, Any], ...], dict]:
        """How to index values tuples laid out by ``layout`` (attribute ->
        position): the LHS key picker, the RHS position, the ``(position,
        constant)`` pairs :meth:`applies_to` tests with ``!=``, and the live
        group dict the key's classes go into."""
        return (
            values_picker([layout[a] for a in self._lhs]),
            layout[self._rhs],
            tuple((layout[a], constant) for a, constant in self._lhs_constants),
            self._groups,
        )

    # -- queries -----------------------------------------------------------------------

    def view(self, lhs_key: tuple[Hashable, ...]) -> GroupView:
        """``set(t[X])`` as a read-only live view (O(1); empty if no such group)."""
        return GroupView(self._groups.get(lhs_key, _NO_GROUP))

    def classes(self, lhs_key: tuple[Hashable, ...]) -> dict[Any, set[Any]]:
        """``set(t[X])``: distinct B values of the group, each with its tids.

        A deep copy for tests and diagnostics — O(|group|) to build, so
        the update path reads :meth:`view` instead.  Mutating the result
        does not affect the index.
        """
        group = self._groups.get(lhs_key, _NO_GROUP)
        return {value: set(tids) for value, tids in group.items()}

    def class_count(self, lhs_key: tuple[Hashable, ...]) -> int:
        """``|set(t[X])|``: how many distinct B values the group holds."""
        return len(self._groups.get(lhs_key, ()))

    def class_of(self, lhs_key: tuple[Hashable, ...], rhs_value: Any) -> set[Any]:
        """``[t]_{X ∪ {B}}``: the tids sharing both the LHS key and the B value.

        A copy (O(|class|)) for tests and diagnostics; the update path
        reads ``view(lhs_key)`` instead.
        """
        return set(self._groups.get(lhs_key, _NO_GROUP).get(rhs_value, ()))

    def group_size(self, lhs_key: tuple[Hashable, ...]) -> int:
        """Total number of tuples in the LHS group."""
        return sum(len(tids) for tids in self._groups.get(lhs_key, _NO_GROUP).values())

    def groups(self) -> Iterable[tuple[tuple[Hashable, ...], dict[Any, set[Any]]]]:
        """Iterate over (lhs_key, {rhs_value: tids}) copies (diagnostics/tests)."""
        for key, group in self._groups.items():
            yield key, {value: set(tids) for value, tids in group.items()}

    def __len__(self) -> int:
        """Number of LHS groups currently indexed."""
        return len(self._groups)

    def total_tuples(self) -> int:
        return sum(
            len(tids) for group in self._groups.values() for tids in group.values()
        )

    # -- maintenance ----------------------------------------------------------------------

    def add_tuple(self, t: Tuple) -> bool:
        """Index ``t`` if the CFD applies to it.  Returns True if indexed."""
        if not self.applies_to(t):
            return False
        self.add(self.lhs_key(t), t[self._rhs], t.tid)
        return True

    def add(self, lhs_key: tuple[Hashable, ...], rhs_value: Any, tid: Any) -> None:
        self._groups.setdefault(lhs_key, {}).setdefault(rhs_value, {})[tid] = None

    def remove_tuple(self, t: Tuple) -> bool:
        """Remove ``t`` if the CFD applies to it.  Returns True if removed."""
        if not self.applies_to(t):
            return False
        self.remove(self.lhs_key(t), t[self._rhs], t.tid)
        return True

    def remove(self, lhs_key: tuple[Hashable, ...], rhs_value: Any, tid: Any) -> None:
        group = self._groups.get(lhs_key)
        if not group or rhs_value not in group or tid not in group[rhs_value]:
            raise IndexError_(
                f"tuple {tid!r} not indexed under key {lhs_key!r} / value {rhs_value!r}"
            )
        del group[rhs_value][tid]
        if not group[rhs_value]:
            del group[rhs_value]
        if not group:
            del self._groups[lhs_key]

    def load_group(
        self, lhs_key: tuple[Hashable, ...], by_rhs: Mapping[Any, Iterable[Any]]
    ) -> None:
        """Merge one pre-grouped equivalence class (bulk columnar builds)."""
        group = self._groups.setdefault(lhs_key, {})
        for rhs_value, tids in by_rhs.items():
            group.setdefault(rhs_value, {}).update(dict.fromkeys(tids))

    def build_from(self, tuples: Iterable[Tuple]) -> None:
        """Index every applicable tuple of a relation or any tuples (initial
        build): one sweep of the store holding them."""
        store_of(tuples).build_indexes([self])


def _violating_tids(indexes: Iterable[CFDIndex]) -> set[Any]:
    """``V(phi, D)`` of one variable CFD, read off its index slices.

    A key's groups from every slice are merged first (horizontal sites
    each index their own tuples; a key may live at several of them);
    when the merged group holds two or more RHS values, all its members
    violate — the group invariant of Section 4.
    """
    by_key: dict[tuple[Hashable, ...], list[dict[Any, dict[Any, None]]]] = {}
    for index in indexes:
        for key, group in index._groups.items():
            groups = by_key.get(key)
            if groups is None:
                by_key[key] = [group]
            else:
                groups.append(group)
    violating: set[Any] = set()
    for groups in by_key.values():
        if len(groups) == 1:
            if len(groups[0]) > 1:
                violating.update(*groups[0].values())
        elif len(set().union(*groups)) > 1:
            for group in groups:
                violating.update(*group.values())
    return violating


def _tid_sets(
    indexes: Mapping[str, Iterable[CFDIndex]], constant: Iterable[ViolationSet]
) -> Iterator[tuple[str, set[Any]]]:
    """``(name, V(phi, D))`` for every CFD: the constant CFDs' sets from one
    pass over ``constant``, then each variable CFD's set only when asked for."""
    by_constant: dict[str, set[Any]] = {}
    for part in constant:
        for tid in part:
            for name in part.cfds_of(tid):
                by_constant.setdefault(name, set()).add(tid)
    for name in list(by_constant):
        yield name, by_constant.pop(name)
    for name, slices in indexes.items():
        yield name, _violating_tids(slices)


def violations_from_index(
    indexes: Mapping[str, Iterable[CFDIndex]],
    constant: Iterable[ViolationSet] = (),
) -> ViolationSet:
    """``V(Sigma, D)`` of freshly built indexes, without scanning ``D``.

    ``indexes`` maps every variable CFD's name to its index (incVer) or
    per-site index slices (incHor); ``constant`` holds the violations of
    the constant CFDs, which no IDX covers (in parts, e.g. one per
    horizontal fragment: a constant CFD is violated by single tuples).
    The marks are assembled in bulk (:meth:`ViolationSet._mark_all`) from
    one CFD's violating tids at a time, so the result equals a centralized
    detection over the indexed tuples and the read-off never holds |Sigma|
    tid sets at once.
    """
    if _prof.enabled:
        _t0 = perf_counter()
    violations = ViolationSet()
    for name, tids in _tid_sets(indexes, constant):
        violations._mark_all(tids, name)
        # Do not hold this set while the next one is built.
        del tids
    if _prof.enabled:
        _prof.note("idx.violations_from_index", perf_counter() - _t0, len(violations))
    return violations
