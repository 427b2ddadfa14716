"""Block format: prefix compression, restart points, seek."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CorruptionError
from repro.lsm.block import Block, BlockBuilder
from repro.util.comparator import BytewiseComparator

CMP = BytewiseComparator()


def build(entries, restart_interval=16):
    builder = BlockBuilder(restart_interval)
    for key, value in entries:
        builder.add(key, value)
    return Block(builder.finish())


class TestBuilder:
    def test_empty_block_roundtrip(self):
        block = build([])
        assert list(block) == []

    def test_single_entry(self):
        block = build([(b"key", b"value")])
        assert list(block) == [(b"key", b"value")]

    def test_prefix_compression_saves_space(self):
        entries = [(f"commonprefix{i:06d}".encode(), b"v") for i in range(64)]
        small = BlockBuilder(16)
        for key, value in entries:
            small.add(key, value)
        uncompressed = BlockBuilder(1)  # restart every key = no sharing
        for key, value in entries:
            uncompressed.add(key, value)
        assert len(small.finish()) < len(uncompressed.finish())

    def test_size_estimate_tracks_content(self):
        builder = BlockBuilder()
        empty_estimate = builder.current_size_estimate()
        builder.add(b"abc", b"x" * 100)
        assert builder.current_size_estimate() > empty_estimate + 100

    def test_finish_twice_raises(self):
        builder = BlockBuilder()
        builder.add(b"a", b"1")
        builder.finish()
        with pytest.raises(ValueError):
            builder.finish()

    def test_add_after_finish_raises(self):
        builder = BlockBuilder()
        builder.finish()
        with pytest.raises(ValueError):
            builder.add(b"a", b"1")

    def test_reset_allows_reuse(self):
        builder = BlockBuilder()
        builder.add(b"a", b"1")
        builder.finish()
        builder.reset()
        builder.add(b"b", b"2")
        assert list(Block(builder.finish())) == [(b"b", b"2")]


class TestIteration:
    def test_order_preserved(self):
        entries = [(f"k{i:04d}".encode(), f"v{i}".encode())
                   for i in range(100)]
        assert list(build(entries)) == entries

    def test_restart_interval_one(self):
        entries = [(f"k{i:04d}".encode(), b"v") for i in range(20)]
        assert list(build(entries, restart_interval=1)) == entries

    def test_empty_values(self):
        entries = [(b"a", b""), (b"b", b"")]
        assert list(build(entries)) == entries


class TestSeek:
    ENTRIES = [(f"key{i:04d}".encode(), f"val{i}".encode())
               for i in range(0, 200, 2)]

    def test_seek_exact(self):
        block = build(self.ENTRIES)
        assert block.seek(b"key0100", CMP) == (b"key0100", b"val100")

    def test_seek_between_lands_on_next(self):
        block = build(self.ENTRIES)
        assert block.seek(b"key0101", CMP) == (b"key0102", b"val102")

    def test_seek_before_first(self):
        block = build(self.ENTRIES)
        assert block.seek(b"a", CMP) == self.ENTRIES[0]

    def test_seek_after_last(self):
        block = build(self.ENTRIES)
        assert block.seek(b"zzz", CMP) is None

    def test_iter_from_yields_suffix(self):
        block = build(self.ENTRIES)
        result = list(block.iter_from(b"key0190", CMP))
        assert result == self.ENTRIES[95:]


class TestCorruption:
    def test_too_small(self):
        with pytest.raises(CorruptionError):
            Block(b"xy")

    def test_zero_restarts(self):
        from repro.util.coding import encode_fixed32
        with pytest.raises(CorruptionError):
            Block(encode_fixed32(0))

    def test_restart_array_overrun(self):
        from repro.util.coding import encode_fixed32
        with pytest.raises(CorruptionError):
            Block(encode_fixed32(9999))


@settings(max_examples=40, deadline=None)
@given(st.sets(st.binary(min_size=1, max_size=20), min_size=1, max_size=80),
       st.integers(min_value=1, max_value=8))
def test_roundtrip_property(keys, restart_interval):
    entries = [(k, k[::-1]) for k in sorted(keys)]
    block = build(entries, restart_interval)
    assert list(block) == entries


@settings(max_examples=40, deadline=None)
@given(st.sets(st.binary(min_size=1, max_size=10), min_size=1, max_size=40),
       st.binary(min_size=1, max_size=10))
def test_seek_property(keys, probe):
    entries = [(k, b"v") for k in sorted(keys)]
    block = build(entries, 4)
    expected = min((k for k in keys if k >= probe), default=None)
    found = block.seek(probe, CMP)
    if expected is None:
        assert found is None
    else:
        assert found == (expected, b"v")


# ----------------------------------------------------------------------
# seek() is a direct loop: it must stay "the first item of iter_from()"
# ----------------------------------------------------------------------

def first_of_iter_from(block, probe):
    return next(block.iter_from(probe, CMP), None)


VALUE_LENGTHS = st.sampled_from([0, 1, 127, 128, 300, 16_383, 16_384])
IMAGE_TYPES = st.sampled_from([bytes, bytearray, memoryview])


@settings(max_examples=80, deadline=None)
@given(st.sets(st.binary(min_size=0, max_size=12), min_size=1, max_size=40),
       st.data(), st.sampled_from([1, 2, 16]), IMAGE_TYPES)
def test_seek_is_first_of_iter_from(keys, data, restart_interval, image_type):
    ordered = sorted(keys)
    # Long values are drawn sparingly: one 16 KiB value per block is
    # enough to cross the two- and three-byte varint boundaries.
    lengths = [data.draw(VALUE_LENGTHS) if i % 7 == 0 else (i % 3) * 64
               for i in range(len(ordered))]
    entries = [(k, bytes([i % 251]) * n)
               for i, (k, n) in enumerate(zip(ordered, lengths))]
    builder = BlockBuilder(restart_interval)
    for key, value in entries:
        builder.add(key, value)
    block = Block(image_type(builder.finish()))
    assert list(block) == entries
    probes = set(keys) | {b"", b"\xff" * 13}
    probes |= {k + b"\x00" for k in keys} | {k[:-1] for k in keys if k}
    for probe in probes:
        found = block.seek(probe, CMP)
        assert found == first_of_iter_from(block, probe)
        assert found == next(((k, v) for k, v in entries if k >= probe),
                             None)
        if found is not None:
            assert type(found[0]) is bytes and type(found[1]) is bytes


def _image(entries: bytes, restarts) -> bytes:
    import struct
    return entries + struct.pack(f"<{len(restarts) + 1}I", *restarts,
                                 len(restarts))


def _entry(shared: int, key_delta: bytes, value: bytes) -> bytes:
    return bytes([shared, len(key_delta), len(value)]) + key_delta + value


class TestMalformedSeek:
    """Images a builder never writes: seek() raises what iter_from()
    raises on them."""

    CASES = {
        # The second entry claims 40 value bytes; the block holds 2.
        "entry overruns the restart array": (
            _image(_entry(0, b"a", b"1") + bytes([1, 1, 40]) + b"bxx", [0]),
            b"ab"),
        # The last entry's value length is a varint that never ends.
        "truncated entry": (
            _image(_entry(0, b"a", b"1") + bytes([0, 1]) + b"\x80" * 5,
                   [0]),
            b"b"),
        # shared = 5 after a one-byte key.
        "shared prefix longer than the previous key": (
            _image(_entry(0, b"a", b"1") + _entry(5, b"b", b"2"), [0]),
            b"b"),
        # The second restart point lands on an entry with shared = 1.
        "restart entry with shared bytes": (
            _image(_entry(0, b"a", b"1") + _entry(1, b"b", b"2")
                   + _entry(0, b"c", b"3"), [0, 5, 10]),
            b"c"),
    }

    @pytest.mark.parametrize("name", sorted(CASES))
    @pytest.mark.parametrize("image_type", [bytes, bytearray, memoryview])
    def test_seek_raises_like_iter_from(self, name, image_type):
        image, probe = self.CASES[name]
        block = Block(image_type(image))
        with pytest.raises(CorruptionError) as from_iter:
            first_of_iter_from(block, probe)
        with pytest.raises(CorruptionError) as from_seek:
            block.seek(probe, CMP)
        assert str(from_seek.value) == str(from_iter.value)
