"""Internal-key encoding and the internal-key comparator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError
from repro.lsm.internal import (
    InternalKeyComparator,
    MARK_FIELDS_SIZE,
    MAX_SEQUENCE,
    TYPE_DELETION,
    TYPE_VALUE,
    encode_internal_key,
    extract_user_key,
    make_lookup_key,
    pack_sequence_and_type,
    parse_internal_key,
)
from repro.util.comparator import BytewiseComparator

ICMP = InternalKeyComparator(BytewiseComparator())


class TestEncoding:
    def test_roundtrip(self):
        key = encode_internal_key(b"user", 42, TYPE_VALUE)
        parsed = parse_internal_key(key)
        assert parsed.user_key == b"user"
        assert parsed.sequence == 42
        assert parsed.value_type == TYPE_VALUE
        assert not parsed.is_deletion

    def test_mark_fields_are_eight_bytes(self):
        key = encode_internal_key(b"k", 1, TYPE_VALUE)
        assert len(key) == 1 + MARK_FIELDS_SIZE

    def test_deletion_flag(self):
        key = encode_internal_key(b"k", 7, TYPE_DELETION)
        assert parse_internal_key(key).is_deletion

    def test_extract_user_key(self):
        key = encode_internal_key(b"hello", 1, TYPE_VALUE)
        assert extract_user_key(key) == b"hello"

    def test_max_sequence(self):
        key = encode_internal_key(b"k", MAX_SEQUENCE, TYPE_VALUE)
        assert parse_internal_key(key).sequence == MAX_SEQUENCE

    def test_sequence_out_of_range(self):
        with pytest.raises(CorruptionError):
            pack_sequence_and_type(MAX_SEQUENCE + 1, TYPE_VALUE)

    def test_bad_type_byte(self):
        with pytest.raises(CorruptionError):
            pack_sequence_and_type(1, 0x7)

    def test_short_key_rejected(self):
        with pytest.raises(CorruptionError):
            parse_internal_key(b"short")

    def test_unknown_type_rejected_on_parse(self):
        raw = b"user" + (99).to_bytes(8, "little")
        with pytest.raises(CorruptionError):
            parse_internal_key(raw)


class TestComparator:
    def test_user_key_order_dominates(self):
        a = encode_internal_key(b"aaa", 1, TYPE_VALUE)
        b = encode_internal_key(b"bbb", 100, TYPE_VALUE)
        assert ICMP.compare(a, b) < 0

    def test_newer_sequence_sorts_first(self):
        newer = encode_internal_key(b"k", 10, TYPE_VALUE)
        older = encode_internal_key(b"k", 5, TYPE_VALUE)
        assert ICMP.compare(newer, older) < 0

    def test_same_sequence_value_before_deletion(self):
        # TYPE_VALUE (1) > TYPE_DELETION (0); higher trailer sorts first.
        value = encode_internal_key(b"k", 5, TYPE_VALUE)
        deletion = encode_internal_key(b"k", 5, TYPE_DELETION)
        assert ICMP.compare(value, deletion) < 0

    def test_equal(self):
        a = encode_internal_key(b"k", 5, TYPE_VALUE)
        assert ICMP.compare(a, bytes(a)) == 0

    def test_lookup_key_sorts_at_or_before_entries(self):
        lookup = make_lookup_key(b"k", 10)
        entry_at_10 = encode_internal_key(b"k", 10, TYPE_VALUE)
        entry_at_9 = encode_internal_key(b"k", 9, TYPE_VALUE)
        entry_at_11 = encode_internal_key(b"k", 11, TYPE_VALUE)
        assert ICMP.compare(lookup, entry_at_10) <= 0
        assert ICMP.compare(lookup, entry_at_9) < 0
        assert ICMP.compare(entry_at_11, lookup) < 0

    def test_find_shortest_separator_respects_order(self):
        a = encode_internal_key(b"abcdef", 5, TYPE_VALUE)
        b = encode_internal_key(b"abzz", 9, TYPE_VALUE)
        sep = ICMP.find_shortest_separator(a, b)
        assert ICMP.compare(a, sep) <= 0
        assert ICMP.compare(sep, b) < 0

    def test_find_short_successor_not_smaller(self):
        key = encode_internal_key(b"abc", 3, TYPE_VALUE)
        successor = ICMP.find_short_successor(key)
        assert ICMP.compare(key, successor) <= 0


#: Few distinct bytes, so draws share prefixes, are proper prefixes of
#: one another, repeat, and carry ``\x00`` / ``\xff`` anywhere.
USER_KEYS = st.lists(st.sampled_from([0x00, 0x01, 0x61, 0xFE, 0xFF]),
                     max_size=5).map(bytes)
#: Few sequences, so equal user keys meet at equal and differing marks.
INTERNAL_KEYS = st.builds(
    encode_internal_key, USER_KEYS,
    st.sampled_from([0, 1, 2, 255, 256, MAX_SEQUENCE]),
    st.sampled_from([TYPE_VALUE, TYPE_DELETION]))


class TestSortKey:
    @settings(max_examples=300, deadline=None)
    @given(INTERNAL_KEYS, INTERNAL_KEYS)
    def test_native_order_is_compare(self, a, b):
        order = ICMP.compare(a, b)
        key_a, key_b = ICMP.sort_key(a), ICMP.sort_key(b)
        assert (key_a < key_b) == (order < 0)
        assert (key_a == key_b) == (order == 0)
        assert (key_a > key_b) == (order > 0)

    def test_short_key_rejected_like_compare(self):
        short = b"\x00" * (MARK_FIELDS_SIZE - 1)
        good = encode_internal_key(b"k", 1, TYPE_VALUE)
        with pytest.raises(CorruptionError):
            ICMP.compare(short, good)
        with pytest.raises(CorruptionError):
            ICMP.sort_key(short)
        assert ICMP.sort_key(good[-MARK_FIELDS_SIZE:]) is not None
