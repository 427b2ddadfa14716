"""Merging iterator: order, tie-breaking, exhaustion."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.iterator import merging_iterator


def bytewise(key: bytes) -> bytes:
    """Sort key of the plain ``bytes`` order."""
    return key


def kv(*keys):
    return [(k, b"v-" + k) for k in keys]


class TestMerging:
    def test_empty_sources(self):
        assert list(merging_iterator([], bytewise)) == []

    def test_single_source(self):
        entries = kv(b"a", b"b", b"c")
        assert list(merging_iterator([iter(entries)], bytewise)) == entries

    def test_two_disjoint(self):
        left = kv(b"a", b"c")
        right = kv(b"b", b"d")
        merged = list(merging_iterator([iter(left), iter(right)], bytewise))
        assert [k for k, _ in merged] == [b"a", b"b", b"c", b"d"]

    def test_interleaved_many(self):
        sources = [kv(*[f"{i:03d}{j}".encode() for i in range(50)])
                   for j in range(5)]
        merged = list(merging_iterator(map(iter, sources), bytewise))
        keys = [k for k, _ in merged]
        assert keys == sorted(keys)
        assert len(keys) == 250

    def test_tie_breaks_by_source_order(self):
        first = [(b"k", b"from-first")]
        second = [(b"k", b"from-second")]
        merged = list(merging_iterator([iter(first), iter(second)],
                                       bytewise))
        assert merged[0] == (b"k", b"from-first")
        assert merged[1] == (b"k", b"from-second")

    def test_equal_sort_keys_keep_source_order(self):
        """The tie rule is on the *sort key*: three sources whose keys
        differ but sort equal come out earliest source first, every
        round."""
        sources = [[(b"a2", b""), (b"b2", b"")],
                   [(b"a0", b""), (b"b0", b"")],
                   [(b"a1", b""), (b"b1", b"")]]
        merged = list(merging_iterator(map(iter, sources),
                                       lambda key: key[:1]))
        assert [k for k, _ in merged] == [b"a2", b"a0", b"a1",
                                          b"b2", b"b0", b"b1"]

    def test_exhausted_source_removed(self):
        short = kv(b"a")
        long = kv(b"b", b"c", b"d")
        merged = list(merging_iterator([iter(short), iter(long)], bytewise))
        assert len(merged) == 4

    def test_some_sources_empty(self):
        merged = list(merging_iterator(
            [iter([]), iter(kv(b"x")), iter([])], bytewise))
        assert merged == kv(b"x")


@settings(max_examples=50, deadline=None)
@given(st.lists(
    st.lists(st.binary(min_size=1, max_size=6), max_size=30),
    max_size=5))
def test_merge_equals_sorted_property(source_keys):
    sources = [sorted(set(keys)) for keys in source_keys]
    expected = sorted(k for keys in sources for k in keys)
    merged = list(merging_iterator(
        [iter([(k, b"") for k in keys]) for keys in sources], bytewise))
    assert [k for k, _ in merged] == expected
