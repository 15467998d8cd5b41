"""The simulated network: shipment accounting.

Every cross-site transfer made by any detector goes through a
:class:`Network` instance.  The network delivers payloads synchronously
(the receiver simply gets the Python object) and records, per message
kind and per (sender, receiver) pair, how many messages, logical units
and bytes were shipped.  :class:`NetworkStats` snapshots feed the
experiment reports: Fig. 9(c)/(h) plot shipped bytes, Fig. 10 counts
shipped eqids.
"""

from __future__ import annotations

import threading
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.distributed.message import Message, MessageKind


@dataclass
class NetworkStats:
    """An immutable snapshot of the network counters."""

    messages: int = 0
    bytes: int = 0
    units_by_kind: dict[str, int] = field(default_factory=dict)
    bytes_by_kind: dict[str, int] = field(default_factory=dict)
    messages_by_pair: dict[tuple[int, int], int] = field(default_factory=dict)

    @property
    def eqids_shipped(self) -> int:
        """Number of equivalence-class ids shipped (Fig. 10 metric)."""
        return self.units_by_kind.get(MessageKind.EQID.value, 0)

    @property
    def tuples_shipped(self) -> int:
        """Number of whole or partial tuples shipped."""
        return self.units_by_kind.get(MessageKind.TUPLE.value, 0) + self.units_by_kind.get(
            MessageKind.PARTIAL_TUPLE.value, 0
        )

    @staticmethod
    def _diff_counters(later: dict, earlier: dict) -> dict:
        """Per-key difference over the *union* of keys (nonzero entries only)."""
        deltas = {}
        for key in later.keys() | earlier.keys():
            delta = later.get(key, 0) - earlier.get(key, 0)
            if delta:
                deltas[key] = delta
        return deltas

    def cost_vector(self, local_work: float = 0.0):
        """This snapshot as a planner :class:`~repro.planner.cost.CostVector`.

        Estimates and actuals share one type, so the adaptive planner
        can subtract them directly (lazy import: the planner package
        depends on this module's snapshots, not the other way round).
        """
        from repro.planner.cost import CostVector

        return CostVector.from_stats(self, local_work=local_work)

    def diff(self, earlier: "NetworkStats") -> "NetworkStats":
        """Counters accumulated since ``earlier`` was taken.

        Total on all snapshot pairs: keys present only in ``earlier``
        (e.g. after :meth:`Network.reset`) yield negative entries rather
        than being silently dropped, so ``a.diff(b)`` is always the
        exact counter movement from ``b`` to ``a``.
        """
        return NetworkStats(
            messages=self.messages - earlier.messages,
            bytes=self.bytes - earlier.bytes,
            units_by_kind=self._diff_counters(self.units_by_kind, earlier.units_by_kind),
            bytes_by_kind=self._diff_counters(self.bytes_by_kind, earlier.bytes_by_kind),
            messages_by_pair=self._diff_counters(
                self.messages_by_pair, earlier.messages_by_pair
            ),
        )


class Network:
    """The shipment ledger: synchronous delivery with full accounting.

    Two ways in.  :meth:`send` / :meth:`ship` deliver one payload and
    charge one message — what the incremental detectors use, a handful
    per update.  :meth:`charge` takes a *total*: ``messages`` unit-sized
    messages of ``size_bytes`` altogether from one site to another —
    what the batch baselines use, once per (site, CFD), so a wave over
    ``|D|`` tuples costs the ledger ``O(#sites * |Sigma|)`` operations
    while the counters read exactly as after that many single sends.

    Counter accumulation is guarded by a lock, so detector tasks running
    on the thread backend may ship concurrently without corrupting the
    ledger; :meth:`stats` and :meth:`reset` take the same lock and hence
    always see (or produce) a consistent snapshot.
    """

    def __init__(self, record_messages: bool = False):
        self._record_messages = record_messages
        self._lock = threading.Lock()
        self._log: list[Message] = []
        self._messages = 0
        self._bytes = 0
        self._units_by_kind: dict[str, int] = defaultdict(int)
        self._bytes_by_kind: dict[str, int] = defaultdict(int)
        self._messages_by_pair: dict[tuple[int, int], int] = defaultdict(int)

    # -- shipping ----------------------------------------------------------------

    def ship(self, message: Message) -> Any:
        """Deliver ``message`` and account for it; returns the payload."""
        with self._lock:
            self._messages += 1
            self._bytes += message.size_bytes
            self._units_by_kind[message.kind.value] += message.units
            self._bytes_by_kind[message.kind.value] += message.size_bytes
            self._messages_by_pair[(message.sender, message.receiver)] += 1
            if self._record_messages:
                self._log.append(message)
        return message.payload

    def send(
        self,
        sender: int,
        receiver: int,
        kind: MessageKind,
        payload: Any,
        size_bytes: int,
        units: int = 1,
        tag: str = "",
    ) -> Any:
        """Convenience wrapper building and shipping a :class:`Message`."""
        return self.ship(Message(sender, receiver, kind, payload, size_bytes, units, tag))

    def charge(
        self,
        sender: int,
        receiver: int,
        kind: MessageKind,
        messages: int,
        size_bytes: int,
        tag: str = "",
    ) -> None:
        """Account for ``messages`` one-unit messages totalling ``size_bytes``.

        Moves every counter as ``messages`` single :meth:`send` calls of
        that kind between that pair would, under one lock acquisition,
        and rejects what a :class:`Message` rejects.  Nothing is
        delivered (the caller computed the totals where the data lives);
        a recording network logs the one payload-less :class:`Message`
        whose ``units`` is the message count.  Zero messages charge
        nothing.
        """
        entry = Message(sender, receiver, kind, None, size_bytes, messages, tag)
        if not messages:
            return
        with self._lock:
            self._messages += messages
            self._bytes += size_bytes
            self._units_by_kind[kind.value] += messages
            self._bytes_by_kind[kind.value] += size_bytes
            self._messages_by_pair[(sender, receiver)] += messages
            if self._record_messages:
                self._log.append(entry)

    def broadcast(
        self,
        sender: int,
        receivers: Iterable[int],
        kind: MessageKind,
        payload: Any,
        size_bytes: int,
        units: int = 1,
        tag: str = "",
    ) -> None:
        """Ship the same payload to several sites (one message per receiver)."""
        for receiver in receivers:
            if receiver != sender:
                self.send(sender, receiver, kind, payload, size_bytes, units, tag)

    # -- accounting --------------------------------------------------------------------
    #
    # Every read takes the counter lock.  The two totals used to be read
    # bare, which let an exporter racing a concurrent :meth:`reset` see
    # one counter from before the reset and the other from after — a
    # torn pair that reconciles with nothing.  ``totals()`` reads both
    # under one lock acquisition for callers that need them together.

    @property
    def total_messages(self) -> int:
        with self._lock:
            return self._messages

    @property
    def total_bytes(self) -> int:
        with self._lock:
            return self._bytes

    def totals(self) -> tuple[int, int]:
        """``(messages, bytes)`` read atomically with respect to reset()."""
        with self._lock:
            return self._messages, self._bytes

    @property
    def log(self) -> list[Message]:
        """The recorded messages (only if ``record_messages=True``)."""
        return list(self._log)

    def _snapshot_locked(self) -> NetworkStats:
        """Build a snapshot; the caller must hold the lock."""
        return NetworkStats(
            messages=self._messages,
            bytes=self._bytes,
            units_by_kind=dict(self._units_by_kind),
            bytes_by_kind=dict(self._bytes_by_kind),
            messages_by_pair=dict(self._messages_by_pair),
        )

    def stats(self) -> NetworkStats:
        """A consistent snapshot of the current counters."""
        with self._lock:
            return self._snapshot_locked()

    def reset(self) -> NetworkStats:
        """Zero all counters (and drop the message log).

        Returns the final pre-reset snapshot so callers zeroing the
        ledger between batches keep the totals they are discarding.
        Snapshot and clear happen under one lock acquisition, so a
        concurrent :meth:`stats` (e.g. a ``service.metrics()`` export)
        observes either the full pre-reset ledger or the zeroed one —
        never a mixture — and no shipment is ever counted in both the
        returned snapshot and the post-reset ledger.
        """
        with self._lock:
            final = self._snapshot_locked()
            self._log.clear()
            self._messages = 0
            self._bytes = 0
            self._units_by_kind.clear()
            self._bytes_by_kind.clear()
            self._messages_by_pair.clear()
        return final
