"""Property and type-mix tests for the zero-copy hot paths.

The codec overhaul made ``decode_varint32/64``, ``VarintCursor``, and
``Block`` operate directly on ``memoryview``/``bytearray`` slices
without materializing ``bytes``.  These tests hold that contract:

* seeded/Hypothesis round-trips for varints (both widths, boundary
  values, concatenated streams walked by cursor and by offset);
* block codec round-trips including the prefix-compression edge cases —
  empty key, shared prefix longer than a restart interval's worth of
  deltas, zero-length values;
* sstable build -> iterate round-trips driven by the same generators;
* every decoder accepts bytes, bytearray, and memoryview (including
  non-zero-offset slices) and yields identical results.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm.block import Block, BlockBuilder
from repro.lsm.filter import BloomFilterPolicy
from repro.lsm.internal import (
    InternalKeyComparator,
    TYPE_VALUE,
    encode_internal_key,
)
from repro.lsm.options import Options
from repro.lsm.sstable import TableReader
from repro.util.comparator import BytewiseComparator
from repro.util.varint import (
    VarintCursor,
    decode_varint32,
    decode_varint64,
    encode_varint32,
    encode_varint64,
)

from tests.conftest import build_table_image

ICMP = InternalKeyComparator(BytewiseComparator())
CMP = BytewiseComparator()

#: The three buffer types every decoder must treat identically.
BUFFER_KINDS = [bytes, bytearray, memoryview]


def kinds_of(data: bytes):
    return [bytes(data), bytearray(data), memoryview(data)]


# ----------------------------------------------------------------------
# Varints
# ----------------------------------------------------------------------

_BOUNDARY_VALUES = sorted({0, 1, 127, 128, (1 << 14) - 1, 1 << 14,
                           (1 << 21) - 1, 1 << 21, (1 << 28) - 1, 1 << 28,
                           (1 << 32) - 1, (1 << 35) - 1, 1 << 35,
                           (1 << 56) - 1, (1 << 64) - 1})


class TestVarintRoundTrip:
    @pytest.mark.parametrize("value", _BOUNDARY_VALUES)
    def test_boundary_values(self, value):
        encoded = encode_varint64(value)
        for buf in kinds_of(encoded):
            assert decode_varint64(buf) == (value, len(encoded))
        if value < (1 << 32):
            encoded32 = encode_varint32(value)
            for buf in kinds_of(encoded32):
                assert decode_varint32(buf) == (value, len(encoded32))

    @given(st.lists(st.integers(0, (1 << 64) - 1), min_size=1,
                    max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_concatenated_stream(self, values):
        stream = b"".join(encode_varint64(v) for v in values)
        for buf in kinds_of(stream):
            offset = 0
            decoded = []
            while offset < len(stream):
                value, offset = decode_varint64(buf, offset)
                decoded.append(value)
            assert decoded == values

    @given(st.lists(st.integers(0, (1 << 64) - 1), min_size=1,
                    max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_cursor_matches_offset_walk(self, values):
        stream = b"".join(encode_varint64(v) for v in values)
        for buf in kinds_of(stream):
            cursor = VarintCursor(buf)
            assert [cursor.next64() for _ in values] == values
            assert cursor.at_end

    def test_cursor_skip_and_mixed_widths(self):
        rng = random.Random(99)
        parts, expect = [], []
        for _ in range(300):
            width = rng.choice((32, 64))
            value = rng.randrange(1 << (28 if width == 32 else 56))
            payload = bytes(rng.randrange(256)
                            for _ in range(rng.randrange(0, 5)))
            parts.append((encode_varint32(value) if width == 32
                          else encode_varint64(value)) + payload)
            expect.append((value, len(payload)))
        stream = b"".join(parts)
        for buf in kinds_of(stream):
            cursor = VarintCursor(buf)
            for value, skip in expect:
                assert cursor.next64() == value
                cursor.skip(skip)
            assert cursor.at_end

    def test_nonzero_offset_slices(self):
        """Decoding from a sliced memoryview must match decoding the
        same varint at an offset of the full buffer."""
        value = 123456789
        stream = b"\xff" * 7 + encode_varint64(value)
        full = memoryview(stream)
        assert decode_varint64(full, 7)[0] == value
        assert decode_varint64(full[7:], 0)[0] == value


# ----------------------------------------------------------------------
# Block codec
# ----------------------------------------------------------------------

def _round_trip(entries, restart_interval):
    builder = BlockBuilder(restart_interval)
    for key, value in entries:
        builder.add(key, value)
    image = builder.finish()
    for buf in kinds_of(image):
        assert list(Block(buf)) == entries
    return image


class TestBlockRoundTrip:
    def test_empty_key(self):
        """An empty first key yields a zero-length restart key; every
        later entry shares a 0-byte prefix with it."""
        entries = [(b"", b"root"), (b"a", b"1"), (b"ab", b"2")]
        _round_trip(entries, restart_interval=16)

    def test_zero_length_values(self):
        entries = [(b"k%03d" % i, b"") for i in range(50)]
        _round_trip(entries, restart_interval=4)

    def test_shared_prefix_longer_than_restart_interval(self):
        """A run of keys sharing a long prefix spans several restart
        intervals, so restarts re-emit the full key mid-run."""
        prefix = b"shared/prefix/longer/than/one/interval/"
        entries = [(prefix + b"%04d" % i, b"v%d" % i) for i in range(40)]
        image = _round_trip(entries, restart_interval=4)
        block = Block(image)
        for key, value in entries:
            assert block.seek(key, CMP) == (key, value)

    @given(st.sets(st.binary(max_size=48), min_size=1, max_size=150),
           st.sampled_from([1, 2, 4, 16]))
    @settings(max_examples=60, deadline=None)
    def test_random_entries(self, keys, restart_interval):
        entries = [(key, key[::-1]) for key in sorted(keys)]
        image = _round_trip(entries, restart_interval)
        block = Block(image)
        for key, value in random.Random(0).sample(
                entries, min(10, len(entries))):
            assert block.seek(key, CMP) == (key, value)

    def test_iter_from_on_all_buffer_kinds(self):
        entries = [(b"key%04d" % i, b"v" * (i % 7)) for i in range(100)]
        builder = BlockBuilder(8)
        for key, value in entries:
            builder.add(key, value)
        image = builder.finish()
        for buf in kinds_of(image):
            tail = list(Block(buf).iter_from(b"key0050", CMP))
            assert tail == entries[50:]


# ----------------------------------------------------------------------
# SSTable build -> iterate
# ----------------------------------------------------------------------

_user_keys = st.sets(st.binary(min_size=1, max_size=24), min_size=1,
                     max_size=100)


class TestSstableRoundTrip:
    @given(_user_keys, st.sampled_from(["snappy", "none"]))
    @settings(max_examples=40, deadline=None)
    def test_build_iterate(self, keys, compression):
        options = Options(block_size=256, sstable_size=1 << 20,
                          compression=compression, bloom_bits_per_key=10,
                          block_restart_interval=4)
        entries = [(encode_internal_key(user, seq, TYPE_VALUE),
                    user * (seq % 4))
                   for seq, user in enumerate(sorted(keys), start=1)]
        image = build_table_image(entries, options, ICMP)
        reader = TableReader(image, ICMP, options)
        assert list(reader) == entries

    def test_reader_accepts_all_buffer_kinds(self):
        options = Options(compression="none", bloom_bits_per_key=0,
                          block_size=512, sstable_size=1 << 20)
        entries = [(encode_internal_key(b"key%05d" % i, i + 1, TYPE_VALUE),
                    b"value" * 3) for i in range(200)]
        image = build_table_image(entries, options, ICMP)
        for buf in kinds_of(image):
            assert list(TableReader(buf, ICMP, options)) == entries


# ----------------------------------------------------------------------
# Bloom probe split: one hash per lookup, many filters probed with it
# ----------------------------------------------------------------------

class TestBloomHashSplit:
    #: Keys of every length 0-9 (all four tail cases of the hash, with
    #: and without whole words before them), some in the filter.
    KEYS = [bytes(range(65, 65 + n)) for n in range(10)] + [
        bytes([n]) * n for n in range(10)]

    @pytest.mark.parametrize("bits_per_key", [1, 4, 10, 20, 43, 60])
    def test_hash_then_probe_equals_key_probe(self, bits_per_key):
        policy = BloomFilterPolicy(bits_per_key)
        filters = [policy.create_filter(self.KEYS[:cut])
                   for cut in (0, 1, 7, len(self.KEYS))]
        # A filter whose trailing byte says k > 30 is a reserved
        # encoding: every probe answers "maybe"; a stub answers "no".
        filters += [filters[-1][:-1] + b"\x1f", b"\x06", b""]
        for data in filters:
            for key in self.KEYS:
                assert (BloomFilterPolicy.hash_may_match(
                            BloomFilterPolicy.hash_key(key), data)
                        == BloomFilterPolicy.key_may_match(key, data))
        full = filters[3]
        assert all(BloomFilterPolicy.key_may_match(k, full)
                   for k in self.KEYS)

    def test_table_reader_takes_the_precomputed_hash(self):
        entries = [(encode_internal_key(b"k%04d" % i, i + 1, TYPE_VALUE),
                    b"v") for i in range(0, 400, 2)]
        reader = TableReader(
            build_table_image(entries, Options(bloom_bits_per_key=10), ICMP),
            ICMP, Options())
        for i in range(400):
            key = b"k%04d" % i
            assert (reader.key_may_match(key, BloomFilterPolicy.hash_key(key))
                    == reader.key_may_match(key))
            if i % 2 == 0:
                assert reader.key_may_match(key)
