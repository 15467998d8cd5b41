"""Batch (reference) detection of matching-dependency violations.

The exhaustive detector compares every pair of tuples and is the
correctness reference for the incremental detector, exactly as the
centralized CFD detector is for incVer/incHor.  A blocked variant uses
the :class:`~repro.similarity.blocking.BlockingIndex` to skip pairs that
cannot be LHS-similar; with complete blocking keys the two produce the
same result, which the test-suite asserts.
"""

from __future__ import annotations

from itertools import combinations
from typing import Any, Iterable

from repro.core.tuples import Tuple
from repro.core.violations import ViolationSet
from repro.similarity.blocking import BlockingIndex
from repro.similarity.md import MatchingDependency


def _md_violations_task(
    md: MatchingDependency, tuples: list[Tuple], use_blocking: bool
) -> set[Any]:
    """Candidate matching for one MD — the pure unit the scheduler fans out."""
    if use_blocking:
        return MDDetector.violations_of_blocked(md, tuples)
    return MDDetector.violations_of(md, tuples)


class MDDetector:
    """Batch detector for a set of matching dependencies.

    With a :class:`~repro.runtime.scheduler.SiteScheduler`, ``detect``
    runs the candidate matching of every MD as one independent task;
    without one it loops serially (the default).
    """

    def __init__(
        self,
        mds: Iterable[MatchingDependency],
        use_blocking: bool = True,
        scheduler: Any = None,
    ):
        self._mds = list(mds)
        self._use_blocking = use_blocking
        self._scheduler = scheduler

    @property
    def mds(self) -> list[MatchingDependency]:
        return list(self._mds)

    # -- per-MD detection ------------------------------------------------------------

    @staticmethod
    def violations_of(md: MatchingDependency, tuples: Iterable[Tuple]) -> set[Any]:
        """Exhaustive pairwise detection of one MD (quadratic, reference only)."""
        items = list(tuples)
        violating: set[Any] = set()
        for left, right in combinations(items, 2):
            if md.pair_violates(left, right):
                violating.add(left.tid)
                violating.add(right.tid)
        return violating

    @staticmethod
    def violations_of_blocked(md: MatchingDependency, tuples: Iterable[Tuple]) -> set[Any]:
        """Detection of one MD using the blocking index to prune comparisons."""
        items = {t.tid: t for t in tuples}
        index = BlockingIndex(md)
        index.build_from((tid, t) for tid, t in items.items())
        violating: set[Any] = set()
        for tid, t in items.items():
            for other_tid in index.candidates(t, exclude=tid):
                if other_tid in violating and tid in violating:
                    continue
                if md.pair_violates(t, items[other_tid]):
                    violating.add(tid)
                    violating.add(other_tid)
        return violating

    # -- full detection -----------------------------------------------------------------

    def detect(self, relation: Iterable[Tuple]) -> ViolationSet:
        """All MD violations, each tuple marked with the MDs it violates."""
        tuples = list(relation)
        violations = ViolationSet()
        if self._scheduler is not None:
            from repro.runtime.scheduler import SiteTask

            tasks = [
                SiteTask(
                    i,
                    _md_violations_task,
                    (md, tuples, self._use_blocking),
                    label=md.name,
                )
                for i, md in enumerate(self._mds)
            ]
            for md, result in zip(self._mds, self._scheduler.run(tasks)):
                for tid in result.value:
                    violations.add(tid, md.name)
            return violations
        for md in self._mds:
            if self._use_blocking:
                violating = self.violations_of_blocked(md, tuples)
            else:
                violating = self.violations_of(md, tuples)
            for tid in violating:
                violations.add(tid, md.name)
        return violations


def detect_md_violations(
    mds: Iterable[MatchingDependency], relation: Iterable[Tuple], use_blocking: bool = True
) -> ViolationSet:
    """Convenience wrapper mirroring :func:`repro.core.detector.detect_violations`."""
    return MDDetector(mds, use_blocking=use_blocking).detect(relation)
