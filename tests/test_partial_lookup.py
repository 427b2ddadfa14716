"""A point lookup that misses the block cache decodes its snappy block
only as far as its answer.

The partial lookup must answer exactly what ``Block(raw).seek`` answers
on every block ``BlockBuilder`` builds, fall back to it on what it does
not parse, and leave the block cache's accounting and hit / miss counts
as they were: a partly decoded block is charged at its full length and
is replaced by the whole block at its second hit.
"""

from __future__ import annotations

import sys
import threading
from dataclasses import replace

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import snappy
from repro.lsm.block import Block, BlockBuilder
from repro.lsm.cache import LRUCache
from repro.lsm.internal import (
    MAX_SEQUENCE,
    TYPE_VALUE,
    InternalKeyComparator,
    encode_internal_key,
)
from repro.lsm.options import Options
from repro.lsm.sstable import TableReader, _PartialBlock, _seek_partial
from repro.util.comparator import BytewiseComparator
from tests.conftest import build_table_image

BYTEWISE = InternalKeyComparator(BytewiseComparator())

#: Value lengths of one- and two-byte varints (128 B is the first of
#: those); :func:`blocks` may give one key a value of >= 16 KiB (three).
_VALUE_SIZES = st.sampled_from([0, 7, 127, 128, 300])


@st.composite
def blocks(draw):
    """``(restart interval, sorted entries)`` for one block: user keys
    sharing prefixes, some of >= 128 bytes, each in one to three
    versions."""
    prefix = draw(st.sampled_from([b"", b"k", b"p" * 130]))
    suffixes = draw(st.lists(st.text("abc", min_size=1, max_size=5),
                             min_size=1, max_size=20, unique=True))
    big = draw(st.booleans())
    entries = []
    for n, suffix in enumerate(suffixes):
        user_key = prefix + suffix.encode()
        for sequence in draw(st.lists(st.integers(1, 50), min_size=1,
                                      max_size=3, unique=True)):
            size = 16 * 1024 + 3 if big and n == 0 else draw(_VALUE_SIZES)
            entries.append((encode_internal_key(user_key, sequence,
                                                TYPE_VALUE),
                            bytes([n % 5 + 1]) * size))
    entries.sort(key=lambda entry: BYTEWISE.sort_key(entry[0]))
    interval = draw(st.sampled_from([1, 16]))
    return interval, entries


def targets(entries):
    """Lookup keys before the first entry, equal to each, between them,
    after the last, and between the last and the index separator."""
    users = {key[:-8] for key, _ in entries}
    users |= {u + b"\x00" for u in users} | {u[:-1] for u in users}
    users |= {b"", b"\xff" * 3}
    keys = [key for key, _ in entries]
    found = [encode_internal_key(u, s, TYPE_VALUE)
             for u in users for s in (0, 25, MAX_SEQUENCE)]
    found += keys
    for key in keys:
        # The versions just newer and just older than each entry's.
        sequence = int.from_bytes(key[-8:], "little") >> 8
        found += [encode_internal_key(key[:-8], sequence + delta, TYPE_VALUE)
                  for delta in (-1, 1)]
    found.append(BYTEWISE.find_short_successor(keys[-1]))
    return found


def build_block(interval, entries) -> bytes:
    builder = BlockBuilder(interval)
    for key, value in entries:
        builder.add(key, value)
    return builder.finish()


@settings(max_examples=80, deadline=None)
@given(blocks())
def test_partial_lookup_answers_as_block_seek(block):
    interval, entries = block
    raw = build_block(interval, entries)
    payload = snappy.compress(raw)
    for target in targets(entries):
        expected = Block(raw).seek(target, BYTEWISE)
        found, cached = _seek_partial(payload, True, target, BYTEWISE)
        assert found == expected
        assert len(cached) == len(raw)
        if type(cached) is _PartialBlock:
            assert cached.finish() == raw
        else:
            assert cached == raw


@settings(max_examples=40, deadline=None)
@given(blocks(), st.sampled_from(["snappy", "none"]))
def test_table_get_answers_as_block_seek(block, compression):
    """Through ``TableReader.get``, one block per table, stored snappy
    compressed or uncompressed."""
    interval, entries = block
    options = Options(block_size=1 << 24, sstable_size=1 << 24,
                      block_restart_interval=interval,
                      compression=compression, bloom_bits_per_key=0)
    raw = build_block(interval, entries)
    image = build_table_image(entries, options, BYTEWISE)
    cache = LRUCache(1 << 30)
    reader = TableReader(image, BYTEWISE, options, cache)
    for target in targets(entries):
        expected = Block(raw).seek(target, BYTEWISE)
        assert TableReader(image, BYTEWISE, options).get(target) \
            == expected
        assert reader.get(target) == expected
    assert cache.usage == len(raw)


def _compressible(count: int, value_size: int = 128):
    return [(encode_internal_key(b"%08d" % i, 1, TYPE_VALUE),
             bytes([i % 7]) * value_size) for i in range(count)]


def _options(**changes) -> Options:
    return replace(Options(compression="snappy", block_size=4096,
                           bloom_bits_per_key=0), **changes)


class TestCachedPartialBlock:
    def test_second_lookup_promotes_at_the_same_charge(self):
        options = _options()
        entries = _compressible(200)
        cache = LRUCache(1 << 20)
        reader = TableReader(build_table_image(entries, options, BYTEWISE),
                             BYTEWISE, options, cache, file_number=3)
        assert reader.get(entries[2][0]) == entries[2]
        [(cache_key, partial)] = cache._entries.items()
        assert type(partial) is _PartialBlock
        assert len(partial.out) < len(partial)  # decoded only in part
        usage = cache.usage
        assert (cache.hits, cache.misses) == (0, 1)

        assert reader.get(entries[9][0]) == entries[9]
        whole = cache._entries[cache_key]
        assert type(whole) is bytes
        assert cache.usage == usage == len(whole)
        assert (cache.hits, cache.misses) == (1, 1)
        assert Block(whole).seek(entries[2][0], BYTEWISE) == entries[2]

    def test_counts_are_one_miss_per_block(self):
        """Every key read twice: a miss per block, every other get a hit,
        and the cache ends holding whole blocks only."""
        options = _options()
        entries = _compressible(300)
        cache = LRUCache(1 << 20)
        reader = TableReader(build_table_image(entries, options, BYTEWISE),
                             BYTEWISE, options, cache)
        for _ in range(2):
            for key, value in entries:
                assert reader.get(key) == (key, value)
        blocks = len(reader.index_entries())
        assert blocks > 3
        assert cache.misses == blocks
        assert cache.hits == 2 * len(entries) - blocks
        assert all(type(v) is bytes for v in cache._entries.values())

    def test_a_scan_promotes_a_partial_block(self):
        options = _options()
        entries = _compressible(100)
        cache = LRUCache(1 << 20)
        reader = TableReader(build_table_image(entries, options, BYTEWISE),
                             BYTEWISE, options, cache)
        reader.get(entries[0][0])
        [partial] = cache._entries.values()
        assert list(reader) == entries
        first = cache._entries[(0, 0)]
        assert type(first) is bytes and len(first) == len(partial)
        assert all(type(v) is bytes for v in cache._entries.values())

    def test_four_threads_on_one_partial_block(self):
        options = _options(block_size=16 * 1024)
        entries = _compressible(100)
        cache = LRUCache(1 << 20)
        reader = TableReader(build_table_image(entries, options, BYTEWISE),
                             BYTEWISE, options, cache)
        in_block = [entry for entry in entries
                    if entry[0] < reader.index_entries()[0][0]]
        assert len(in_block) > 20
        reader.get(in_block[0][0])
        [cached] = cache._entries.values()
        assert type(cached) is _PartialBlock
        usage = cache.usage
        start = threading.Barrier(4)
        wrong = []

        def look_up(offset: int) -> None:
            start.wait()
            for i in range(200):
                key, value = in_block[(offset + i) % len(in_block)]
                if reader.get(key) != (key, value):
                    wrong.append(key)

        threads = [threading.Thread(target=look_up, args=(n * 7,))
                   for n in range(4)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        [cached] = cache._entries.values()
        assert type(cached) is bytes
        assert cache.usage == usage == len(cached)
        assert (cache.hits, cache.misses) == (800, 1)
