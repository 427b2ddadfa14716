"""Bytewise comparator order and key-shortening hooks."""

from hypothesis import given
from hypothesis import strategies as st

from repro.util.comparator import BytewiseComparator

CMP = BytewiseComparator()


class TestCompare:
    def test_equal(self):
        assert CMP.compare(b"abc", b"abc") == 0

    def test_ordering(self):
        assert CMP.compare(b"a", b"b") < 0
        assert CMP.compare(b"b", b"a") > 0

    def test_prefix_sorts_first(self):
        assert CMP.compare(b"abc", b"abcd") < 0

    def test_byte_order_unsigned(self):
        assert CMP.compare(b"\x7f", b"\x80") < 0


class TestShortestSeparator:
    def test_shortens_to_prefix_plus_one(self):
        sep = CMP.find_shortest_separator(b"abcdefghij", b"abzzzz")
        assert sep == b"abd"

    def test_separator_in_range(self):
        start, limit = b"helloworld", b"hellozzz"
        sep = CMP.find_shortest_separator(start, limit)
        assert start <= sep < limit

    def test_prefix_relationship_unchanged(self):
        assert CMP.find_shortest_separator(b"abc", b"abcdef") == b"abc"

    def test_no_room_unchanged(self):
        # 'a' + 1 == 'b' which is not < limit[shared]... boundary case.
        assert CMP.find_shortest_separator(b"abc1", b"abc2") == b"abc1"

    def test_0xff_unchanged(self):
        assert CMP.find_shortest_separator(b"a\xff1", b"azz") == b"a\xff1"


class TestShortSuccessor:
    def test_increments_first_byte(self):
        assert CMP.find_short_successor(b"abc") == b"b"

    def test_skips_0xff(self):
        assert CMP.find_short_successor(b"\xffabc") == b"\xffb"

    def test_all_0xff_unchanged(self):
        assert CMP.find_short_successor(b"\xff\xff") == b"\xff\xff"

    def test_successor_not_smaller(self):
        for key in (b"", b"a", b"zz", b"\xff", b"m\xffq"):
            assert CMP.find_short_successor(key) >= key


@given(st.binary(min_size=1, max_size=30), st.binary(min_size=1, max_size=30))
def test_separator_invariant_property(a, b):
    if a >= b:
        a, b = b, a
    if a == b:
        return
    sep = CMP.find_shortest_separator(a, b)
    assert a <= sep < b
    assert len(sep) <= len(a)


@given(st.binary(max_size=30))
def test_successor_invariant_property(key):
    successor = CMP.find_short_successor(key)
    assert successor >= key
    assert len(successor) <= max(1, len(key))
