"""Serialization helpers and shipment-size estimation.

The detection algorithms never serialize data for real (the cluster is
simulated in-process), but the experiments report *data shipment* in
bytes, so every message carries a size estimate computed here.  The
module also implements the MD5 optimization of Section 6: instead of
shipping an entire (possibly wide) tuple, a site may ship its 128-bit
MD5 digest when the receiver only needs to test equality.

Bulk (whole-fragment) shipments additionally support *column encoding*:
instead of one row dict per tuple, a fragment ships each attribute as a
dictionary of distinct values plus a code per row
(:func:`encode_relation_columns`), so repeated values cross the wire
once.  :func:`estimate_relation_bytes` picks the encoding from the
relation's storage backend, and :func:`ship_fragment` charges the
resulting (usually much smaller) size to a network.  Per-detection
messages keep the paper's row-oriented cost model — the storage backend
never changes a detector's shipment counters.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Any, Iterable, Mapping, Sequence

#: Size, in bytes, of an equivalence-class identifier on the wire.
EQID_BYTES = 8

#: Size, in bytes, of an MD5 digest on the wire (128 bits).
MD5_BYTES = 16

#: Size, in bytes, of a tuple identifier on the wire.
TID_BYTES = 8

#: Maximum size, in bytes, of one dictionary code in a column-encoded
#: shipment; actual blocks pack codes to the dictionary width (see
#: :func:`code_width`).
CODE_BYTES = 4


def code_width(n_values: int) -> int:
    """Bytes per code for a dictionary of ``n_values`` distinct values.

    Codes are packed to the narrowest whole-byte width that can address
    the dictionary (1 byte up to 256 distinct values, 2 up to 65536,
    ...), capped at :data:`CODE_BYTES`.
    """
    if n_values <= 1:
        return 1
    return min(CODE_BYTES, ((n_values - 1).bit_length() + 7) // 8)


def estimate_value_bytes(value: Any) -> int:
    """A deterministic byte-size estimate for a single attribute value."""
    if value is None:
        return 1
    if isinstance(value, bool):
        return 1
    if isinstance(value, int):
        return 8
    if isinstance(value, float):
        return 8
    return len(str(value).encode("utf-8"))


class PriceTable:
    """:func:`estimate_value_bytes`, estimated once per distinct value.

    A batch shipment scan prices whole columns of a fragment, and a
    column repeats its values; the table keys each estimate by ``(type,
    value)`` — ``1``, ``1.0`` and ``True`` compare equal but cost 8, 8
    and 1 bytes — and sums a column with C-level loops.  One table
    serves every column a site task prices, so a value shipped for
    several CFDs is estimated once.
    """

    def __init__(self) -> None:
        self._sizes: dict[tuple[type, Any], int] = {}

    def total(self, values: Sequence[Any]) -> int:
        """``sum(estimate_value_bytes(v) for v in values)``."""
        sizes = self._sizes
        try:
            for key in set(zip(map(type, values), values)).difference(sizes):
                sizes[key] = estimate_value_bytes(key[1])
        except TypeError:  # an unhashable value: nothing to key it by
            return sum(map(estimate_value_bytes, values))
        return sum(map(sizes.__getitem__, zip(map(type, values), values)))

    def shipment(self, count: int, columns: Iterable[Sequence[Any]]) -> tuple[int, int]:
        """``(count, bytes)`` of shipping ``count`` partial tuples.

        ``columns`` holds the shipped values attribute by attribute
        (``count`` values each); the wire form adds a tid per tuple, as
        :func:`estimate_tuple_bytes` does.
        """
        return count, TID_BYTES * count + sum(map(self.total, columns))


def estimate_tuple_bytes(values: Mapping[str, Any], attributes: Iterable[str] | None = None) -> int:
    """Byte-size estimate for shipping a (partial) tuple.

    ``attributes`` restricts the estimate to a projection; by default
    every attribute of the mapping is counted.  A tid is always
    included, matching what the algorithms actually send.
    """
    attrs = list(attributes) if attributes is not None else list(values)
    return TID_BYTES + sum(estimate_value_bytes(values[a]) for a in attrs)


def md5_digest(values: Mapping[str, Any], attributes: Iterable[str] | None = None) -> str:
    """The MD5 digest of a tuple's values over ``attributes`` (schema order given by caller).

    Used by the horizontal detector's MD5 optimization: equality of two
    tuples on the digested attributes can be tested remotely by shipping
    16 bytes instead of the full tuple.
    """
    attrs = list(attributes) if attributes is not None else sorted(values)
    hasher = hashlib.md5()
    for attr in attrs:
        hasher.update(attr.encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(str(values[attr]).encode("utf-8"))
        hasher.update(b"\x01")
    return hasher.hexdigest()


def tuple_fingerprint(values: Mapping[str, Any], attributes: Iterable[str]) -> tuple[str, int]:
    """Digest plus wire size for the MD5-optimized shipment of a tuple."""
    return md5_digest(values, attributes), TID_BYTES + MD5_BYTES


# -- column-encoded bulk shipments -------------------------------------------------------


@dataclass(frozen=True)
class ColumnBlock:
    """One attribute of a column-encoded shipment.

    ``values`` holds each distinct value once (in order of first
    appearance); ``codes`` holds one index into ``values`` per row.
    """

    attribute: str
    values: tuple[Any, ...]
    codes: tuple[int, ...]

    def wire_bytes(self) -> int:
        """Estimated wire size: the dictionary once plus one packed code per row."""
        return sum(estimate_value_bytes(v) for v in self.values) + code_width(
            len(self.values)
        ) * len(self.codes)


def encode_relation_columns(
    relation: Iterable[Mapping[str, Any]], attributes: Iterable[str] | None = None
) -> tuple[list[Any], list[ColumnBlock]]:
    """Column-encode a relation (or any iterable of mappings with ``.tid``).

    Returns ``(tids, blocks)``: the row identifiers in iteration order
    and one :class:`ColumnBlock` per attribute.  Codes are local to the
    shipment (dense, first-appearance order), so the encoding is
    self-contained regardless of the sender's storage backend.
    """
    rows = list(relation)
    if attributes is None:
        attrs = list(getattr(relation, "schema").attribute_names) if hasattr(
            relation, "schema"
        ) else (list(rows[0]) if rows else [])
    else:
        attrs = list(attributes)
    # A fresh ValueDictionary per column assigns dense first-appearance
    # codes — exactly the local encoding a shipment needs (lazy import:
    # repro.columnar.dictionary imports this module for size estimates).
    from repro.columnar.dictionary import ValueDictionary

    tids = [getattr(t, "tid") for t in rows]
    blocks = []
    for a in attrs:
        dictionary = ValueDictionary()
        codes = tuple(dictionary.intern(t[a]) for t in rows)
        blocks.append(ColumnBlock(a, tuple(dictionary.values_list()), codes))
    return tids, blocks


def estimate_column_bytes(tids: list[Any], blocks: Iterable[ColumnBlock]) -> int:
    """Wire size of a column-encoded shipment (tids plus every block)."""
    return TID_BYTES * len(tids) + sum(block.wire_bytes() for block in blocks)


def estimate_relation_bytes(
    relation: Any, attributes: Iterable[str] | None = None, encoding: str | None = None
) -> int:
    """Wire size of shipping a whole relation.

    ``encoding`` forces ``"rows"`` (one dict per tuple, the paper's
    per-tuple cost model summed) or ``"columnar"`` (dictionary-encoded
    columns); by default the relation's own storage backend decides, so
    columnar fragments are charged for the column blocks they would
    actually send, row and SQL-backed relations keep the row cost model
    (the store's ``estimate_bytes``).
    """
    if encoding == "rows":
        return sum(estimate_tuple_bytes(t, attributes) for t in relation)
    if encoding == "columnar":
        tids, blocks = encode_relation_columns(relation, attributes)
        return estimate_column_bytes(tids, blocks)
    from repro.core.storage import store_of

    return store_of(relation).estimate_bytes(attributes)


def ship_fragment(
    network: Any,
    sender: int,
    receiver: int,
    relation: Any,
    attributes: Iterable[str] | None = None,
    tag: str = "fragment",
) -> int:
    """Charge one whole-fragment shipment to ``network`` and return its bytes.

    Used when fragments move wholesale (deployments, re-partitioning
    experiments); the size follows the relation's storage backend via
    :func:`estimate_relation_bytes`.
    """
    from repro.distributed.message import MessageKind

    attrs = list(attributes) if attributes is not None else None
    nbytes = estimate_relation_bytes(relation, attrs)
    network.send(
        sender,
        receiver,
        MessageKind.PARTIAL_TUPLE if attrs is not None else MessageKind.TUPLE,
        {"rows": len(relation), "encoding": getattr(relation, "storage", "rows")},
        nbytes,
        units=len(relation),
        tag=tag,
    )
    return nbytes
