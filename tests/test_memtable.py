"""MemTable semantics: versions, tombstones, snapshots, iteration."""

import pytest

from repro.errors import NotFoundError
from repro.lsm.internal import InternalKeyComparator, extract_user_key
from repro.lsm.memtable import MemTable
from repro.util.comparator import BytewiseComparator


@pytest.fixture
def memtable():
    return MemTable(InternalKeyComparator(BytewiseComparator()))


class TestPutGet:
    def test_get_missing_returns_none(self, memtable):
        assert memtable.get(b"nope", 100) is None

    def test_put_then_get(self, memtable):
        memtable.put(1, b"k", b"v")
        assert memtable.get(b"k", 100) == b"v"

    def test_newest_version_wins(self, memtable):
        memtable.put(1, b"k", b"old")
        memtable.put(2, b"k", b"new")
        assert memtable.get(b"k", 100) == b"new"

    def test_snapshot_isolation(self, memtable):
        memtable.put(1, b"k", b"old")
        memtable.put(5, b"k", b"new")
        assert memtable.get(b"k", 1) == b"old"
        assert memtable.get(b"k", 4) == b"old"
        assert memtable.get(b"k", 5) == b"new"

    def test_delete_raises_not_found(self, memtable):
        memtable.put(1, b"k", b"v")
        memtable.delete(2, b"k")
        with pytest.raises(NotFoundError):
            memtable.get(b"k", 100)

    def test_delete_then_old_snapshot_still_sees_value(self, memtable):
        memtable.put(1, b"k", b"v")
        memtable.delete(2, b"k")
        assert memtable.get(b"k", 1) == b"v"

    def test_reinsert_after_delete(self, memtable):
        memtable.put(1, b"k", b"v1")
        memtable.delete(2, b"k")
        memtable.put(3, b"k", b"v2")
        assert memtable.get(b"k", 100) == b"v2"

    def test_prefix_keys_do_not_collide(self, memtable):
        memtable.put(1, b"ab", b"1")
        memtable.put(2, b"abc", b"2")
        assert memtable.get(b"ab", 100) == b"1"
        assert memtable.get(b"abc", 100) == b"2"


class TestIteration:
    def test_sorted_by_user_key_then_sequence_desc(self, memtable):
        memtable.put(1, b"b", b"b1")
        memtable.put(2, b"a", b"a1")
        memtable.put(3, b"a", b"a2")
        entries = list(memtable)
        user_keys = [extract_user_key(k) for k, _ in entries]
        assert user_keys == [b"a", b"a", b"b"]
        assert entries[0][1] == b"a2"  # newer version first
        assert entries[1][1] == b"a1"

    def test_len_counts_all_versions(self, memtable):
        memtable.put(1, b"k", b"1")
        memtable.put(2, b"k", b"2")
        assert len(memtable) == 2


class TestMemoryAccounting:
    def test_usage_grows(self, memtable):
        before = memtable.approximate_memory_usage
        memtable.put(1, b"key", b"x" * 100)
        assert memtable.approximate_memory_usage > before + 100

    def test_empty_usage_zero(self, memtable):
        assert memtable.approximate_memory_usage == 0

    def test_usage_is_the_arena_encoding_size(self, memtable):
        """Swap points, and so every flush and on-disk byte, hang on this
        number: 208,316 is what the length-prefixed entry blobs of this
        insert list added up to before nodes stopped storing them (key
        and value lengths on both sides of each varint32 width)."""
        sizes = [0, 1, 100, 119, 120, 127, 128, 129, 16383, 16384, 70000]
        for sequence, size in enumerate(sizes, 1):
            memtable.put(sequence, b"k" * (size % 200), b"v" * size)
            memtable.delete(sequence + 100, b"d" * size)
        assert memtable.approximate_memory_usage == 208316
        assert len(memtable) == 22


class TestDuplicates:
    def test_same_key_sequence_and_type_raises(self, memtable):
        memtable.put(7, b"k", b"first")
        with pytest.raises(ValueError):
            memtable.put(7, b"k", b"second")
        assert memtable.get(b"k", 100) == b"first"
        assert len(memtable) == 1

    def test_same_sequence_other_type_is_another_entry(self, memtable):
        memtable.put(7, b"k", b"v")
        memtable.delete(7, b"k")
        assert len(memtable) == 2
