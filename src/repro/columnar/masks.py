"""Integer bitset row masks for allocation-free violation sweeps.

A *mask* is a plain Python ``int`` whose bit ``r`` is set iff physical
row ``r`` of a :class:`~repro.columnar.store.ColumnStore` belongs to the
set.  Python integers are arbitrary-precision, so one mask covers a
fragment of any size, and the inner CFD sweeps become a handful of
big-int operations (``|``, ``& ~``, ``bit_count``) on cached per-group
masks instead of building a per-tuple ``set`` per CFD per round:

* grouping rows by an LHS key is done once per attribute tuple and
  cached as ``{key: mask}`` on the store;
* "every row of the group whose RHS code is not the majority/constant
  code" is ``group_mask & ~ok_mask`` — no iteration until the final
  decode of the (usually tiny) violating mask back to tids.

Masks are built from *live* physical row indexes, so they are
invalidated (dropped from the store's cache) whenever the store mutates
or compacts.
"""

from __future__ import annotations

from itertools import compress, count
from typing import Any, Iterable, Iterator

#: At most this many set bits, a mask is decoded bit by bit: a few
#: big-int operations beat a scan of its binary form.
FEW_BITS = 16

#: ``"0"``/``"1"`` digits -> falsy/truthy bytes for ``compress``.
_DIGITS = bytes.maketrans(b"01", b"\x00\x01")


def rows_to_mask(rows: Iterable[int]) -> int:
    """Pack an iterable of physical row indexes into one bitset ``int``."""
    top = -1
    packed = bytearray()
    for r in rows:
        byte = r >> 3
        if byte > top:
            packed.extend(b"\x00" * (byte - top))
            top = byte
        packed[byte] |= 1 << (r & 7)
    return int.from_bytes(packed, "little")


def iter_mask_rows(mask: int) -> Iterator[int]:
    """Yield the set bit positions (physical rows) of ``mask``, ascending.

    Linear in the mask's length: beyond :data:`FEW_BITS` set bits the
    binary form is scanned once at C level — ``compress`` over its
    digits when at least one bit in eight is set, ``str.find`` from one
    set bit to the next otherwise.  (Stripping the lowest bit again and
    again costs a whole-mask operation per bit, quadratic on dense masks.)
    """
    ones = mask.bit_count()
    if ones <= FEW_BITS:
        return _lowest_first(mask)
    digits = bin(mask)[:1:-1]  # digit r is bit r
    if ones * 8 >= len(digits):
        return compress(count(), digits.encode("ascii").translate(_DIGITS))
    return _found_ones(digits)


def _lowest_first(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _found_ones(digits: str) -> Iterator[int]:
    find = digits.find
    r = find("1")
    while r >= 0:
        yield r
        r = find("1", r + 1)


def mask_to_tids(store: Any, mask: int) -> set[Any]:
    """Decode a violation mask back to the tids of its rows."""
    return set(map(store.tids_list().__getitem__, iter_mask_rows(mask)))
