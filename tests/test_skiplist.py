"""Skiplist ordering, seek semantics, and property-based checks."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.skiplist import SkipList


def fill(skiplist, keys):
    """Each key maps to itself, so items read back as the keys."""
    for key in keys:
        skiplist.insert(key, key)


@pytest.fixture
def skiplist():
    return SkipList()


class TestBasics:
    def test_empty(self, skiplist):
        assert len(skiplist) == 0
        assert list(skiplist) == []
        assert skiplist.seek(b"") is None

    def test_insert_and_contains(self, skiplist):
        fill(skiplist, (b"b", b"a", b"c"))
        assert skiplist.seek(b"a") == b"a"
        assert skiplist.seek(b"b") == b"b"
        assert skiplist.seek(b"z") is None
        assert len(skiplist) == 3

    def test_items_are_what_lookups_return(self, skiplist):
        skiplist.insert((b"k", -2), "newer")
        skiplist.insert((b"k", -1), "older")
        assert skiplist.seek((b"k", -5)) == "newer"
        assert list(skiplist.iter_from((b"k", -1))) == ["older"]

    def test_iteration_is_sorted(self, skiplist):
        fill(skiplist, (b"m", b"a", b"z", b"k", b"b"))
        assert list(skiplist) == [b"a", b"b", b"k", b"m", b"z"]

    def test_duplicate_insert_raises(self, skiplist):
        skiplist.insert(b"x", 1)
        with pytest.raises(ValueError):
            skiplist.insert(b"x", 2)
        assert list(skiplist) == [1]


class TestSeek:
    def test_seek_exact(self, skiplist):
        fill(skiplist, (b"a", b"c", b"e"))
        assert skiplist.seek(b"c") == b"c"

    def test_seek_between(self, skiplist):
        fill(skiplist, (b"a", b"c", b"e"))
        assert skiplist.seek(b"b") == b"c"

    def test_seek_past_end(self, skiplist):
        fill(skiplist, (b"a",))
        assert skiplist.seek(b"z") is None

    def test_iter_from(self, skiplist):
        fill(skiplist, (b"a", b"c", b"e", b"g"))
        assert list(skiplist.iter_from(b"c")) == [b"c", b"e", b"g"]
        assert list(skiplist.iter_from(b"d")) == [b"e", b"g"]


class TestScale:
    def test_many_keys_stay_sorted(self):
        skiplist = SkipList()
        import random
        rng = random.Random(11)
        keys = [f"{rng.randrange(10**9):012d}".encode() for _ in range(3000)]
        unique = sorted(set(keys))
        fill(skiplist, set(keys))
        assert list(skiplist) == unique
        assert len(skiplist) == len(unique)


@settings(max_examples=50, deadline=None)
@given(st.sets(st.binary(min_size=1, max_size=12), max_size=200))
def test_sorted_iteration_property(keys):
    skiplist = SkipList()
    fill(skiplist, keys)
    assert list(skiplist) == sorted(keys)


@settings(max_examples=50, deadline=None)
@given(st.sets(st.binary(min_size=1, max_size=8), min_size=1, max_size=60),
       st.binary(min_size=1, max_size=8))
def test_seek_property(keys, probe):
    skiplist = SkipList()
    fill(skiplist, keys)
    expected = min((k for k in keys if k >= probe), default=None)
    assert skiplist.seek(probe) == expected
