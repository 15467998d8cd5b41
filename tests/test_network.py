"""Tests for the simulated network and its shipment accounting."""

import sys
import threading

import pytest

from repro.distributed.message import Message, MessageKind
from repro.distributed.network import Network, NetworkStats


class TestMessage:
    def test_same_sender_receiver_rejected(self):
        with pytest.raises(ValueError):
            Message(1, 1, MessageKind.EQID, 7, 8)

    def test_negative_sizes_rejected(self):
        with pytest.raises(ValueError):
            Message(0, 1, MessageKind.EQID, 7, -1)
        with pytest.raises(ValueError):
            Message(0, 1, MessageKind.EQID, 7, 8, units=-2)


class TestNetworkAccounting:
    def test_send_returns_payload(self):
        net = Network()
        assert net.send(0, 1, MessageKind.TUPLE, {"x": 1}, 20) == {"x": 1}

    def test_counters(self):
        net = Network()
        net.send(0, 1, MessageKind.EQID, 1, 8)
        net.send(1, 2, MessageKind.EQID, 2, 8)
        net.send(0, 2, MessageKind.TUPLE, "t", 100)
        stats = net.stats()
        assert stats.messages == 3
        assert stats.bytes == 116
        assert stats.eqids_shipped == 2
        assert stats.tuples_shipped == 1
        assert stats.messages_by_pair[(0, 1)] == 1

    def test_units_are_accumulated(self):
        net = Network()
        net.send(0, 1, MessageKind.EQID, [1, 2, 3], 24, units=3)
        assert net.stats().eqids_shipped == 3

    def test_partial_tuples_count_as_tuples(self):
        net = Network()
        net.send(0, 1, MessageKind.PARTIAL_TUPLE, "p", 10)
        assert net.stats().tuples_shipped == 1

    def test_broadcast_skips_sender(self):
        net = Network()
        net.broadcast(0, [0, 1, 2], MessageKind.CONTROL, "x", 4)
        assert net.total_messages == 2

    def test_reset(self):
        net = Network()
        net.send(0, 1, MessageKind.EQID, 1, 8)
        net.reset()
        assert net.total_messages == 0
        assert net.total_bytes == 0
        assert net.stats().eqids_shipped == 0

    def test_message_log_optional(self):
        silent = Network()
        silent.send(0, 1, MessageKind.EQID, 1, 8)
        assert silent.log == []
        recording = Network(record_messages=True)
        recording.send(0, 1, MessageKind.EQID, 1, 8)
        assert len(recording.log) == 1
        assert recording.log[0].kind is MessageKind.EQID


class TestBulkCharge:
    """``charge`` is N unit-sized ``send``s on every counter, in one step."""

    def test_equals_single_sends_on_every_counter(self):
        sizes = [10, 0, 7, 25]
        single, bulk = Network(), Network()
        for net in (single, bulk):
            net.send(2, 0, MessageKind.EQID, None, 8)  # counters start non-empty
        for size in sizes:
            single.send(1, 0, MessageKind.PARTIAL_TUPLE, None, size, units=1, tag="phi")
        bulk.charge(1, 0, MessageKind.PARTIAL_TUPLE, len(sizes), sum(sizes), tag="phi")
        assert bulk.stats() == single.stats()
        assert bulk.totals() == single.totals() == (5, 50)
        assert bulk.stats().tuples_shipped == 4

    def test_rejects_what_a_message_rejects(self):
        net = Network()
        with pytest.raises(ValueError):
            net.charge(1, 1, MessageKind.PARTIAL_TUPLE, 3, 30)
        with pytest.raises(ValueError):
            net.charge(1, 0, MessageKind.PARTIAL_TUPLE, -1, 30)
        with pytest.raises(ValueError):
            net.charge(1, 0, MessageKind.PARTIAL_TUPLE, 3, -30)
        assert net.stats() == NetworkStats()

    def test_zero_messages_charge_nothing(self):
        net = Network(record_messages=True)
        net.charge(1, 0, MessageKind.PARTIAL_TUPLE, 0, 0)
        assert net.stats() == NetworkStats()  # no zero-valued keys either
        assert net.log == []

    def test_recorded_as_one_entry_counting_its_messages(self):
        net = Network(record_messages=True)
        net.charge(1, 0, MessageKind.PARTIAL_TUPLE, 4, 42, tag="phi")
        (entry,) = net.log
        assert (entry.sender, entry.receiver, entry.kind) == (1, 0, MessageKind.PARTIAL_TUPLE)
        assert (entry.units, entry.size_bytes, entry.tag) == (4, 42, "phi")
        assert net.stats().units_by_kind == {"partial_tuple": 4}

    def test_two_chargers_racing_stats_and_reset_lose_nothing(self):
        """Every charge moves ``PER_CHARGE`` messages of ``BYTES_EACH`` bytes,
        so a consistent snapshot has ``bytes == messages * BYTES_EACH`` on the
        totals and on the per-kind and per-pair counters; a lost update or a
        charge counted on both sides of a reset breaks conservation."""
        PER_CHARGE, BYTES_EACH, CHARGES_EACH = 7, 3, 2000
        net = Network()
        stop = threading.Event()
        torn: list[str] = []
        snapshots: list[NetworkStats] = []

        def consistent(stats: NetworkStats) -> bool:
            return (
                stats.bytes == stats.messages * BYTES_EACH
                and sum(stats.units_by_kind.values()) == stats.messages
                and sum(stats.bytes_by_kind.values()) == stats.bytes
                and sum(stats.messages_by_pair.values()) == stats.messages
            )

        def charger(sender: int) -> None:
            for _ in range(CHARGES_EACH):
                net.charge(
                    sender, 0, MessageKind.PARTIAL_TUPLE, PER_CHARGE, PER_CHARGE * BYTES_EACH
                )

        def observer() -> None:
            while not stop.is_set():
                if not consistent(net.stats()):
                    torn.append("stats tore")
                snapshot = net.reset()
                if not consistent(snapshot):
                    torn.append("reset snapshot tore")
                snapshots.append(snapshot)

        chargers = [threading.Thread(target=charger, args=(s,)) for s in (1, 2)]
        watcher = threading.Thread(target=observer)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in (watcher, *chargers):
                t.start()
            for t in chargers:
                t.join(timeout=60)
            stop.set()
            watcher.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in (watcher, *chargers))
        assert not torn, torn[:5]
        snapshots.append(net.reset())
        assert sum(s.messages for s in snapshots) == 2 * CHARGES_EACH * PER_CHARGE
        assert sum(s.bytes for s in snapshots) == 2 * CHARGES_EACH * PER_CHARGE * BYTES_EACH
        by_pair: dict = {}
        for s in snapshots:
            for pair, count in s.messages_by_pair.items():
                by_pair[pair] = by_pair.get(pair, 0) + count
        assert by_pair == {(1, 0): CHARGES_EACH * PER_CHARGE, (2, 0): CHARGES_EACH * PER_CHARGE}


class TestNetworkStatsDiff:
    def test_diff_isolates_a_window(self):
        net = Network()
        net.send(0, 1, MessageKind.EQID, 1, 8)
        before = net.stats()
        net.send(0, 1, MessageKind.EQID, 2, 8)
        net.send(1, 2, MessageKind.TUPLE, "t", 30)
        window = net.stats().diff(before)
        assert window.messages == 2
        assert window.bytes == 38
        assert window.eqids_shipped == 1
        assert window.tuples_shipped == 1

    def test_diff_of_identical_snapshots_is_zero(self):
        net = Network()
        net.send(0, 1, MessageKind.EQID, 1, 8)
        stats = net.stats()
        window = stats.diff(stats)
        assert window.messages == 0
        assert window.units_by_kind == {}

    def test_default_stats_are_empty(self):
        stats = NetworkStats()
        assert stats.eqids_shipped == 0
        assert stats.tuples_shipped == 0
