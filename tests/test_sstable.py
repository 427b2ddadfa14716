"""SSTable builder/reader: format, index, filter, cache, corruption."""

import pytest

from repro.errors import CorruptionError, InvalidArgumentError
from repro.lsm.cache import LRUCache
from repro.lsm.compaction import _BufferFile
from repro.lsm.internal import encode_internal_key, TYPE_VALUE
from repro.lsm.sstable import (
    BlockHandle,
    FOOTER_SIZE,
    TABLE_MAGIC,
    TableBuilder,
    TableReader,
)
from tests.conftest import build_table_image, make_entries


class TestBlockHandle:
    def test_roundtrip(self):
        handle = BlockHandle(12345, 678)
        decoded, offset = BlockHandle.decode(handle.encode())
        assert decoded == handle
        assert offset == len(handle.encode())


class TestBuilder:
    def test_stats_accounting(self, options, icmp):
        entries = make_entries(300, value_size=64)
        dest = _BufferFile()
        builder = TableBuilder(options, dest, icmp)
        for key, value in entries:
            builder.add(key, value)
        stats = builder.finish()
        assert stats.num_entries == 300
        assert stats.num_data_blocks > 1
        assert stats.file_bytes == len(dest.getvalue())
        assert stats.raw_value_bytes == sum(len(v) for _, v in entries)

    def test_out_of_order_rejected(self, options, icmp):
        builder = TableBuilder(options, _BufferFile(), icmp)
        builder.add(encode_internal_key(b"b", 1, TYPE_VALUE), b"v")
        with pytest.raises(InvalidArgumentError):
            builder.add(encode_internal_key(b"a", 1, TYPE_VALUE), b"v")

    def test_add_after_finish_rejected(self, options, icmp):
        builder = TableBuilder(options, _BufferFile(), icmp)
        builder.add(encode_internal_key(b"a", 1, TYPE_VALUE), b"v")
        builder.finish()
        with pytest.raises(InvalidArgumentError):
            builder.add(encode_internal_key(b"b", 1, TYPE_VALUE), b"v")

    def test_smallest_largest_tracked(self, options, icmp):
        entries = make_entries(50)
        dest = _BufferFile()
        builder = TableBuilder(options, dest, icmp)
        for key, value in entries:
            builder.add(key, value)
        builder.finish()
        assert builder.smallest_key == entries[0][0]
        assert builder.largest_key == entries[-1][0]

    def test_footer_magic(self, options, icmp, table_factory):
        image = table_factory(make_entries(10))
        magic = int.from_bytes(image[-8:], "little")
        assert magic == TABLE_MAGIC
        assert len(image) > FOOTER_SIZE


class TestReader:
    def test_full_iteration(self, options, icmp, table_factory):
        entries = make_entries(400, value_size=32)
        reader = TableReader(table_factory(entries), icmp, options)
        assert list(reader) == entries

    def test_point_get(self, options, icmp, table_factory):
        entries = make_entries(200)
        reader = TableReader(table_factory(entries), icmp, options)
        target = entries[123][0]
        assert reader.get(target) == entries[123]

    def test_get_past_end(self, options, icmp, table_factory):
        entries = make_entries(20)
        reader = TableReader(table_factory(entries), icmp, options)
        beyond = encode_internal_key(b"\xff" * 16, 1, TYPE_VALUE)
        assert reader.get(beyond) is None

    def test_iter_from_midpoint(self, options, icmp, table_factory):
        entries = make_entries(200)
        reader = TableReader(table_factory(entries), icmp, options)
        suffix = list(reader.iter_from(entries[150][0]))
        assert suffix == entries[150:]

    def test_index_entries_cover_all_blocks(self, options, icmp,
                                            table_factory):
        entries = make_entries(400, value_size=64)
        reader = TableReader(table_factory(entries), icmp, options)
        index = reader.index_entries()
        assert len(index) > 1
        # Every index key must be >= the last key of its block: re-walk.
        last_key = entries[-1][0]
        assert icmp.compare(index[-1][0], last_key) >= 0

    def test_bloom_filter_rejects_absent(self, options, icmp, table_factory):
        entries = make_entries(300)
        reader = TableReader(table_factory(entries), icmp, options)
        present_hits = sum(
            reader.key_may_match(key[:-8]) for key, _ in entries)
        assert present_hits == len(entries)
        absent_hits = sum(
            reader.key_may_match(f"zz-absent-{i}".encode())
            for i in range(500))
        assert absent_hits < 30

    def test_no_compression_mode(self, plain_options, icmp):
        entries = make_entries(100)
        image = build_table_image(entries, plain_options, icmp)
        reader = TableReader(image, icmp, plain_options)
        assert list(reader) == entries

    def test_block_cache_hits(self, options, icmp, table_factory):
        entries = make_entries(200)
        cache = LRUCache(1 << 20)
        reader = TableReader(table_factory(entries), icmp, options,
                             block_cache=cache, file_number=7)
        list(reader)
        misses_after_first = cache.misses
        list(reader)
        assert cache.misses == misses_after_first
        assert cache.hits > 0


class TestCorruption:
    def test_bad_magic(self, options, icmp, table_factory):
        image = bytearray(table_factory(make_entries(10)))
        image[-1] ^= 0xFF
        with pytest.raises(CorruptionError):
            TableReader(bytes(image), icmp, options)

    def test_too_short(self, options, icmp):
        with pytest.raises(CorruptionError):
            TableReader(b"tiny", icmp, options)

    def test_flipped_data_byte_detected(self, options, icmp, table_factory):
        image = bytearray(table_factory(make_entries(200, value_size=64)))
        image[10] ^= 0xFF  # inside the first data block
        reader = TableReader(bytes(image), icmp, options)
        with pytest.raises(CorruptionError):
            list(reader)
