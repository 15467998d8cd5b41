"""Single-update incremental detection for one variable CFD.

These are the algorithms ``incVIns`` and ``incVDel`` of Fig. 4,
expressed over the :class:`~repro.indexes.idx.CFDIndex` group index
(``set(t[X])`` and ``[t]_{X ∪ {B}}`` in the paper's notation).  They
return the per-CFD change to the violation set and maintain the index in
the same pass.  Both read the live group through
:meth:`~repro.indexes.idx.CFDIndex.view` — nothing is copied — so an
update costs ``O(1 + |delta-V|)``: a constant number of index probes
plus the tids whose status it changes, whatever the size of the group.

They rest on one invariant: all members of an LHS group share one
violation status for the CFD — the group is violating exactly when it
holds more than one distinct RHS value.  The number of classes before
the update therefore decides, without visiting any member, whether the
existing members already are violations.

The routines are pure index/tuple logic: communication (which eqids are
shipped to compute the IDX key) is accounted for separately by the HEV
plan in :mod:`repro.vertical.incver`, because the number of eqids
shipped does not depend on the values involved (Section 5).
"""

from __future__ import annotations

from typing import Any

from repro.core.tuples import Tuple
from repro.indexes.idx import CFDIndex


def incremental_insert(index: CFDIndex, t: Tuple) -> set[Any]:
    """``incVIns``: tids that become violations of the CFD when ``t`` is inserted.

    Case analysis on ``set(t[X])`` before the insertion (Fig. 4):

    * more than one RHS class — every existing member of the group is
      already a violation, so ``t`` is the only new one;
    * exactly one class holding a different RHS value — ``t`` and the
      whole class become violations;
    * exactly one class holding the same RHS value, or no class at all —
      nothing changes.
    """
    if not index.applies_to(t):
        return set()
    key = index.lhs_key(t)
    rhs_value = t[index.cfd.rhs]
    group = index.view(key)
    added: set[Any] = set()
    if len(group) > 1:
        added.add(t.tid)
    elif len(group) == 1:
        ((existing_value, existing_tids),) = group.items()
        if existing_value != rhs_value:
            added.add(t.tid)
            added.update(existing_tids)
    index.add(key, rhs_value, t.tid)
    return added


def incremental_delete(index: CFDIndex, t: Tuple) -> set[Any]:
    """``incVDel``: tids that stop being violations of the CFD when ``t`` is deleted.

    Case analysis on ``[t]_{X ∪ {B}}`` and ``set(t[X])`` before the
    deletion (Fig. 4):

    * ``t``'s RHS class keeps other members — only ``t`` itself leaves
      the violation set (and only if the group had at least two classes,
      otherwise nobody was a violation);
    * ``t`` was alone in its class and the group had more than two
      classes — only ``t`` leaves;
    * ``t`` was alone in its class and the group had exactly two classes
      — ``t`` and the entire remaining class leave;
    * otherwise nothing was a violation and nothing changes.
    """
    if not index.applies_to(t):
        return set()
    key = index.lhs_key(t)
    rhs_value = t[index.cfd.rhs]
    group = index.view(key)
    own_class = group.get(rhs_value, ())
    if t.tid not in own_class:
        raise ValueError(
            f"tuple {t.tid!r} is not indexed for CFD {index.cfd.name!r}; cannot delete"
        )
    removed: set[Any] = set()
    n_classes = len(group)
    if len(own_class) > 1:
        if n_classes > 1:
            removed.add(t.tid)
    else:
        if n_classes > 2:
            removed.add(t.tid)
        elif n_classes == 2:
            removed.add(t.tid)
            for value, tids in group.items():
                if value != rhs_value:
                    removed.update(tids)
    index.remove(key, rhs_value, t.tid)
    return removed
