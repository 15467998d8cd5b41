"""Single-update protocol for a general variable CFD over horizontal partitions.

This implements the insert/delete case analysis of Section 6 for a
variable CFD that cannot be checked locally.  Each site keeps a
:class:`~repro.indexes.idx.CFDIndex` over its *local* tuples; the site
receiving an update decides from its local classes whether the change
can be resolved locally, and only otherwise broadcasts the updated tuple
(or, with the MD5 optimization, its 128-bit digest plus the values the
remote check needs) to the other sites.

The communication cost is at most one broadcast (``n - 1`` messages) per
update — independent of |D| — and many updates ship nothing at all:

* an inserted tuple whose (LHS, RHS) class already has local members
  never needs a broadcast;
* a deleted tuple that was not a violation, or whose class keeps local
  members, never needs a broadcast.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping

from repro.core.cfd import CFD
from repro.core.tuples import Tuple
from repro.core.violations import ViolationSet
from repro.distributed.message import MessageKind
from repro.distributed.network import Network
from repro.distributed.serialization import (
    MD5_BYTES,
    TID_BYTES,
    estimate_tuple_bytes,
    md5_digest,
)
from repro.indexes.idx import CFDIndex

MarkFn = Callable[[Any], None]


class GeneralCFDProtocol:
    """Insert/delete handling for one general variable CFD.

    Parameters
    ----------
    cfd:
        The variable CFD.
    site_indices:
        Per-site local IDX structures (site id -> :class:`CFDIndex`).
    violations:
        The live violation set (consulted for "is this tuple already a
        known violation of this CFD?").
    network:
        Shipments are charged here.
    eligible_sites:
        The sites that can possibly hold tuples matching the CFD's
        pattern (sites whose fragmentation predicate conflicts with the
        pattern constants are excluded up front — the ``Fi ∧ F_phi``
        optimization).
    use_md5:
        When True, broadcasts ship an MD5 digest of the tuple plus the
        LHS/RHS values needed by the remote check instead of the whole
        tuple (the optimization at the end of Section 6).
    """

    def __init__(
        self,
        cfd: CFD,
        site_indices: Mapping[int, CFDIndex],
        violations: ViolationSet,
        network: Network,
        eligible_sites: list[int],
        use_md5: bool = True,
    ):
        self._cfd = cfd
        self._indices = site_indices
        self._violations = violations
        self._network = network
        self._eligible_sites = list(eligible_sites)
        self._use_md5 = use_md5

    # -- shipment helpers ----------------------------------------------------------

    def _broadcast_cost(self, t: Tuple) -> int:
        if self._use_md5:
            # digest of the full tuple + the values the remote lookup needs
            needed = list(self._cfd.attributes)
            return MD5_BYTES + TID_BYTES + estimate_tuple_bytes(t, needed) - TID_BYTES
        return estimate_tuple_bytes(t)

    def _broadcast(self, home_site: int, t: Tuple, tag: str) -> list[int]:
        """Ship ``t`` (or its digest) to every other eligible site."""
        targets = [s for s in self._eligible_sites if s != home_site]
        kind = MessageKind.DIGEST if self._use_md5 else MessageKind.TUPLE
        payload: Any
        if self._use_md5:
            payload = {
                "tid": t.tid,
                "digest": md5_digest(t),
                "key": {a: t[a] for a in self._cfd.attributes},
            }
        else:
            payload = t
        cost = self._broadcast_cost(t)
        for target in targets:
            self._network.send(home_site, target, kind, payload, cost, units=1, tag=tag)
        return targets

    def _notify(self, home_site: int, target: int, payload: Any, tag: str) -> None:
        """A small control message (e.g. "unmark this class")."""
        self._network.send(
            home_site, target, MessageKind.CONTROL, payload, TID_BYTES, units=1, tag=tag
        )

    # -- insertion -------------------------------------------------------------------

    @staticmethod
    def _conflicts(group: Mapping[Any, Any], rhs_value: Any) -> bool:
        """Whether ``group`` holds a class with an RHS value other than ``rhs_value``."""
        return len(group) > (1 if rhs_value in group else 0)

    def _group_is_marked(self, members: Iterable[Any]) -> bool:
        """The violation status of an LHS group, read off one member.

        All members of a global LHS group share one violation status for
        the CFD (the group violates exactly when it holds two distinct
        RHS values anywhere), and the protocol keeps the violation set in
        step with the indices update by update — so one representative
        answers for the group, and a marked representative means no
        other member is left to mark.
        """
        for tid in members:
            return self._violations.violates(tid, self._cfd.name)
        return False

    def insert(
        self, home_site: int, t: Tuple, mark: MarkFn, unmark: MarkFn
    ) -> None:
        """Process the insertion of ``t`` at ``home_site``.

        ``O(n + |delta-V|)`` for ``n`` sites: the local and remote groups
        are read through live views, never copied or scanned.
        """
        cfd = self._cfd
        if not cfd.lhs_matches(t):
            return
        index = self._indices[home_site]
        key = index.lhs_key(t)
        local = index.view(key)
        rhs_value = t[cfd.rhs]
        same_class = local.get(rhs_value, ())
        has_diff_classes = self._conflicts(local, rhs_value)

        t_violates = False
        if same_class:
            # Local tuples share t's (X, B): t's status equals theirs, and no tuple
            # anywhere changes status, so no shipment is needed.
            t_violates = has_diff_classes or self._group_is_marked(same_class)
        else:
            local_conflict_known = False
            if has_diff_classes:
                t_violates = True
                local_conflict_known = self._group_is_marked(
                    next(iter(local.values()))
                )
                if not local_conflict_known:
                    # Existing local tuples were not violations; they become ones now.
                    for tids in local.values():
                        for tid in tids:
                            mark(tid)
            if not local_conflict_known:
                # Either there is no local conflict at all (t's status must be
                # decided remotely) or the local conflict was not previously a
                # violation (so the whole group held a single RHS value and
                # remote members of it become violations now).  Only then is a
                # broadcast needed — when a conflicting local tuple is already
                # a known violation, every other tuple that could conflict with
                # t is a known violation too (Example 9 of the paper).
                for target in self._broadcast(home_site, t, f"{cfd.name}:ins"):
                    remote = self._indices[target].view(key)
                    if self._conflicts(remote, rhs_value):
                        t_violates = True
                        if len(remote) == 1:
                            # A single remote class may belong to a group that
                            # was clean until now; a multi-class group is
                            # already marked throughout.
                            (tids,) = remote.values()
                            if not self._group_is_marked(tids):
                                for tid in tids:
                                    mark(tid)
        if t_violates:
            mark(t.tid)
        index.add(key, rhs_value, t.tid)

    # -- deletion ----------------------------------------------------------------------

    def delete(
        self, home_site: int, t: Tuple, mark: MarkFn, unmark: MarkFn
    ) -> None:
        """Process the deletion of ``t`` from ``home_site``.

        ``O(n + |delta-V|)`` for ``n`` sites: deciding whether the group
        is left with a single RHS value stops at the second distinct
        value, and only a group that does become clean is walked.
        """
        cfd = self._cfd
        if not cfd.lhs_matches(t):
            return
        index = self._indices[home_site]
        key = index.lhs_key(t)
        rhs_value = t[cfd.rhs]
        was_violation = self._violations.violates(t.tid, cfd.name)
        index.remove(key, rhs_value, t.tid)
        if not was_violation:
            # Deletions never create violations; a non-violating tuple leaves quietly.
            return
        unmark(t.tid)

        local = index.view(key)
        if rhs_value in local:
            # Other local tuples still carry t's (X, B) value: the global picture of
            # the group is unchanged, nothing else loses its violation status.
            return

        # t's class might now be empty globally; consult the other sites.
        remotes = [
            (target, self._indices[target].view(key))
            for target in self._broadcast(home_site, t, f"{cfd.name}:del")
        ]
        remaining: set[Any] = set()
        for view in (local, *(remote for _target, remote in remotes)):
            if rhs_value in view or len(view) > 1:
                # t's class survives at some other site, or the group still holds
                # two RHS values: nothing else changes.
                return
            remaining.update(view)
            if len(remaining) > 1:
                return
        if not remaining:
            return
        # The group is left with a single RHS value: its members no longer
        # violate the CFD.  Unmark them wherever they live.
        (survivor,) = remaining
        for tid in local.get(survivor, ()):
            unmark(tid)
        for target, remote in remotes:
            if remote:
                for tid in remote[survivor]:
                    unmark(tid)
                self._notify(home_site, target, {"unmark": key}, f"{cfd.name}:unmark")
