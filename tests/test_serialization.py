"""Tests for shipment-size estimation and MD5 tuple coding."""

from repro.distributed.serialization import (
    EQID_BYTES,
    MD5_BYTES,
    TID_BYTES,
    PriceTable,
    estimate_tuple_bytes,
    estimate_value_bytes,
    md5_digest,
    tuple_fingerprint,
)


class TestValueSizes:
    def test_none_and_bool(self):
        assert estimate_value_bytes(None) == 1
        assert estimate_value_bytes(True) == 1

    def test_numbers(self):
        assert estimate_value_bytes(12345) == 8
        assert estimate_value_bytes(3.14) == 8

    def test_strings_by_utf8_length(self):
        assert estimate_value_bytes("abc") == 3
        assert estimate_value_bytes("ü") == 2

    def test_constants_are_positive(self):
        assert EQID_BYTES > 0 and MD5_BYTES == 16 and TID_BYTES > 0


class TestPriceTable:
    def test_equal_values_of_different_types_keep_their_own_price(self):
        values = [1, 1.0, True, None, 0, False, "1", "ü", 1, 1.0, True]
        prices = PriceTable()
        assert prices.total(values) == sum(map(estimate_value_bytes, values))
        assert [prices.total([v]) for v in (1, 1.0, True, None)] == [8, 8, 1, 1]
        assert [prices.total([v]) for v in (True, 1.0, 1)] == [1, 8, 8]  # any order

    def test_unhashable_values_are_priced_directly(self):
        values = ["ab", [1, 2], {"x": 1}, "ab"]
        assert PriceTable().total(values) == sum(map(estimate_value_bytes, values))

    def test_shipment_adds_a_tid_per_tuple(self):
        rows = [{"a": "xy", "b": 1}, {"a": "xy", "b": True}, {"a": None, "b": 2.5}]
        columns = [[r["a"] for r in rows], [r["b"] for r in rows]]
        assert PriceTable().shipment(len(rows), columns) == (
            3,
            sum(estimate_tuple_bytes(r) for r in rows),
        )
        assert PriceTable().shipment(0, []) == (0, 0)


class TestTupleSizes:
    def test_estimate_includes_tid_overhead(self):
        values = {"a": "xy", "b": 1}
        assert estimate_tuple_bytes(values) == TID_BYTES + 2 + 8

    def test_estimate_with_projection(self):
        values = {"a": "xy", "b": 1}
        assert estimate_tuple_bytes(values, ["a"]) == TID_BYTES + 2

    def test_wider_tuples_cost_more(self):
        narrow = estimate_tuple_bytes({"a": "xxxx"})
        wide = estimate_tuple_bytes({"a": "xxxx", "b": "yyyy", "c": "zzzz"})
        assert wide > narrow


class TestMD5:
    def test_digest_is_stable(self):
        values = {"a": 1, "b": "x"}
        assert md5_digest(values) == md5_digest(dict(values))

    def test_digest_depends_on_values(self):
        assert md5_digest({"a": 1}) != md5_digest({"a": 2})

    def test_digest_depends_on_attribute_names(self):
        assert md5_digest({"a": 1}) != md5_digest({"b": 1})

    def test_digest_projection(self):
        full = {"a": 1, "b": 2}
        assert md5_digest(full, ["a"]) == md5_digest({"a": 1}, ["a"])

    def test_digest_is_hex_of_128_bits(self):
        assert len(md5_digest({"a": 1})) == 32

    def test_fingerprint_size_is_fixed(self):
        digest, size = tuple_fingerprint({"a": "a long string value " * 10}, ["a"])
        assert size == TID_BYTES + MD5_BYTES
        assert len(digest) == 32
