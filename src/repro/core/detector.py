"""Centralized (single-site) CFD violation detection.

For a centralized database the paper notes that two SQL queries suffice
to find ``V(Sigma, D)`` (one for the constant part, one for the variable
part of each tableau).  :class:`CentralizedDetector` is the in-memory
equivalent and serves two roles in this repository:

* the *correctness reference* against which both distributed incremental
  detectors are checked (property tests compare their results tuple for
  tuple), and
* the building block of the distributed batch baselines, which ship data
  to a coordinator and then run centralized detection there.

The check itself belongs to the store holding the data
(:mod:`repro.core.storage`): the rules compile into same-LHS groups and
``store.check`` sweeps the data once per group, on any backend.  Each
group is checked and its tids marked before the next group is checked,
so computing ``V(Sigma, D)`` from scratch never holds |Sigma| violating
tid sets at once.
"""

from __future__ import annotations

from typing import Any, Iterable, Sequence

from repro.core.cfd import CFD
from repro.core.relation import Relation
from repro.core.storage import store_of
from repro.core.tuples import Tuple
from repro.core.violations import ViolationSet
from repro.rulefuse import compile_rule_set


def check_task(tuples: Any, groups: Sequence[Any]) -> list[Any]:
    """``check(groups)`` on the store holding ``tuples`` — the pure unit the
    schedulers fan out; results stay in the store's wire form."""
    return store_of(tuples).check(groups)


def mark_violations(
    violations: ViolationSet, store: Any, groups: Sequence[Any], found: Sequence[Any]
) -> None:
    """Mark the tids of ``found`` — ``check(groups)``'s results, decoded by
    ``store`` — as violating their rules."""
    rules = (cfd for group in groups for cfd in group.members)
    for cfd, result in zip(rules, found):
        violations._mark_all(store.tids_of(result), cfd.name)


class CentralizedDetector:
    """Batch detector for a set of CFDs over an in-memory relation.

    The rules compile into same-LHS groups and the relation's store
    checks and marks one group per ``store.check`` call — with a
    :class:`~repro.runtime.scheduler.SiteScheduler`, one round per group —
    so only one group's violating tids are held besides the marks.
    Fusion changes how many passes the data sees, never the verdicts.
    """

    def __init__(self, cfds: Iterable[CFD], scheduler: Any = None):
        self._cfds = list(cfds)
        self._scheduler = scheduler
        self._groups = compile_rule_set(self._cfds)

    @property
    def cfds(self) -> list[CFD]:
        return list(self._cfds)

    # -- per-CFD detection -------------------------------------------------------

    @staticmethod
    def violations_of(cfd: CFD, tuples: Iterable[Tuple]) -> set[Any]:
        """``V(phi, D)`` as a set of tids, for one CFD over a relation or any tuples.

        Constant CFDs are violated by single tuples whose LHS matches
        the pattern but whose RHS value differs from the constant.  For
        variable CFDs, the tuples whose LHS matches the pattern group by
        their LHS values; every group holding two or more distinct RHS
        values consists entirely of violations.
        """
        store = store_of(tuples)
        (found,) = store.check(compile_rule_set([cfd]))
        return store.tids_of(found)

    # -- full detection -------------------------------------------------------------

    def detect(self, relation: Relation | Iterable[Tuple]) -> ViolationSet:
        """Compute ``V(Sigma, D)`` with per-CFD marks."""
        store = store_of(relation)
        violations = ViolationSet()
        if self._scheduler is None:
            for group in self._groups:
                mark_violations(violations, store, (group,), store.check((group,)))
            return violations
        from repro.runtime.scheduler import SiteTask

        for i, group in enumerate(self._groups):
            task = SiteTask(i, check_task, (relation, (group,)), label=",".join(group.lhs))
            # No name keeps the round's result alive into the next round.
            mark_violations(violations, store, (group,), self._scheduler.run([task])[0].value)
        return violations


def detect_violations(cfds: Iterable[CFD], relation: Relation | Iterable[Tuple]) -> ViolationSet:
    """Convenience wrapper: ``V(Sigma, D)`` for a set of CFDs over ``relation``."""
    return CentralizedDetector(cfds).detect(relation)
