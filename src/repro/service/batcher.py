"""The coalescing batcher: per-tenant queues with a fold window.

Submitted updates land in a per-tenant FIFO stamped with their ingest
time.  A queue becomes *due* when it holds ``max_batch`` updates, when
its oldest update has waited ``max_delay`` seconds, or when a flush or
shutdown forces the window — at which point the dispatcher drains up to
``max_batch`` entries and folds them into one
:class:`~repro.core.updates.UpdateBatch`.  The fold is what turns a
stream of per-client singleton submissions into the real batch sizes
the detectors (and the adaptive planner's :class:`BatchProfile`) were
built for: one scheduler round, one normalization pass and one shipment
wave amortized over the whole window instead of per update.

All methods must be called with the owning service's lock held; the
queue itself carries no lock.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.core.updates import Update, UpdateBatch
from repro.service.admission import TenantQuota


@dataclass(frozen=True)
class PendingUpdate:
    """One queued update and the monotonic instant it was accepted."""

    update: Update
    enqueued_at: float


class CoalescingQueue:
    """A tenant's pending updates plus the coalescing-window clock."""

    def __init__(self, quota: TenantQuota):
        self.quota = quota
        self._items: deque[PendingUpdate] = deque()
        self.max_depth = 0

    def __len__(self) -> int:
        return len(self._items)

    @property
    def pending(self) -> int:
        return len(self._items)

    def push(self, update: Update, now: float) -> None:
        self._items.append(PendingUpdate(update, now))
        if len(self._items) > self.max_depth:
            self.max_depth = len(self._items)

    def due(self, now: float, force: bool = False) -> bool:
        """Is the window ready to fold?

        ``force`` (flush/shutdown) makes any non-empty queue due
        immediately instead of waiting out ``max_delay``.
        """
        if not self._items:
            return False
        if force or len(self._items) >= self.quota.max_batch:
            return True
        return now - self._items[0].enqueued_at >= self.quota.max_delay

    def next_deadline(self, now: float) -> float | None:
        """When this queue will become due on its own (None if empty)."""
        if not self._items:
            return None
        if len(self._items) >= self.quota.max_batch:
            return now
        return self._items[0].enqueued_at + self.quota.max_delay

    def as_dict(self) -> dict:
        """JSON-ready queue view (service ``status()`` / dashboards)."""
        return {
            "pending": len(self._items),
            "max_depth": self.max_depth,
            "max_batch": self.quota.max_batch,
            "max_delay_s": self.quota.max_delay,
        }

    def drain(self) -> list[PendingUpdate]:
        """Pop one window's worth of updates (up to ``max_batch``)."""
        n = min(len(self._items), self.quota.max_batch)
        return [self._items.popleft() for _ in range(n)]

    @staticmethod
    def fold(items: list[PendingUpdate]) -> UpdateBatch:
        """Coalesce drained entries into the batch the session applies."""
        return UpdateBatch(item.update for item in items)
