"""CRC32C vectors (RFC 3720 / LevelDB test suite), masking, and the
agreement of every leg with the byte loop that defines the function."""

import importlib
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.util.crc32c import crc32c, crc32c_many, mask_crc, unmask_crc

# ``repro.util`` re-exports the function under the module's name.
crc_module = importlib.import_module("repro.util.crc32c")

_U32 = 0xFFFFFFFF
_SEG, _CHUNK = crc_module._SEG, crc_module._CHUNK
_BULK_MIN, _TWO_LEVEL_MIN = crc_module._BULK_MIN, crc_module._TWO_LEVEL_MIN

#: Lengths where a leg, a segment or a chunk begins or ends.
EDGE_LENGTHS = sorted({
    0, 1, 3, 4, 5,
    _SEG - 1, _SEG, _SEG + 1, 2 * _SEG - 1, 2 * _SEG + 1,
    _BULK_MIN - 1, _BULK_MIN, _BULK_MIN + 1,
    _TWO_LEVEL_MIN - 1, _TWO_LEVEL_MIN, _TWO_LEVEL_MIN + 1,
    _CHUNK - 1, _CHUNK, _CHUNK + 1, _CHUNK + 3, _CHUNK + 4,
    _CHUNK + _BULK_MIN - 1, _CHUNK + _BULK_MIN,
    _CHUNK + _TWO_LEVEL_MIN - 1, _CHUNK + _TWO_LEVEL_MIN,
    2 * _CHUNK - 1, 2 * _CHUNK, 2 * _CHUNK + 1, 3 * _CHUNK,
})

lengths = st.one_of(st.sampled_from(EDGE_LENGTHS),
                    st.integers(min_value=0, max_value=3 * _CHUNK))
seeds = st.integers(min_value=0, max_value=2 ** 32 - 1)
states = st.integers(min_value=0, max_value=_U32)


def reference(data, value: int = 0) -> int:
    """The byte-at-a-time loop: the definition every leg is held to."""
    return crc_module._crc_bytes(data, value ^ _U32) ^ _U32


def forced_leg(bulk_min: int, two_level_min: int):
    """Send every length >= 4 to one numpy leg, whatever its size."""
    return mock.patch.multiple(crc_module, _BULK_MIN=bulk_min,
                               _TWO_LEVEL_MIN=two_level_min)


class TestVectors:
    def test_empty(self):
        assert crc32c(b"") == 0

    def test_all_zeros_32(self):
        # RFC 3720 B.4: 32 bytes of zeros.
        assert crc32c(b"\x00" * 32) == 0x8A9136AA

    def test_all_ones_32(self):
        assert crc32c(b"\xff" * 32) == 0x62A8AB43

    def test_ascending(self):
        data = bytes(range(32))
        assert crc32c(data) == 0x46DD794E

    def test_descending(self):
        data = bytes(range(31, -1, -1))
        assert crc32c(data) == 0x113FDB5C

    def test_standard_check_string(self):
        assert crc32c(b"123456789") == 0xE3069283


class TestIncremental:
    def test_extend_equals_whole(self):
        data = b"hello world, this is crc32c"
        whole = crc32c(data)
        partial = crc32c(data[10:], crc32c(data[:10]))
        assert partial == whole

    def test_different_inputs_differ(self):
        assert crc32c(b"a") != crc32c(b"b")


class TestMasking:
    def test_mask_changes_value(self):
        crc = crc32c(b"foo")
        assert mask_crc(crc) != crc

    def test_mask_is_invertible(self):
        for data in (b"", b"a", b"leveldb", bytes(100)):
            crc = crc32c(data)
            assert unmask_crc(mask_crc(crc)) == crc

    def test_double_mask_not_identity(self):
        crc = crc32c(b"foo")
        assert mask_crc(mask_crc(crc)) != crc


@given(st.binary(max_size=500), st.integers(min_value=0, max_value=499))
def test_incremental_property(data, split):
    split = min(split, len(data))
    assert crc32c(data[split:], crc32c(data[:split])) == crc32c(data)


needs_numpy = pytest.mark.skipif(crc_module._np is None,
                                 reason="the numpy legs need numpy")


@settings(max_examples=150, deadline=None)
@given(lengths, seeds, states)
def test_dispatched_and_slice8_legs_match_byte_loop(length, seed, value):
    data = random.Random(seed).randbytes(length)
    expected = reference(data, value)
    assert crc32c(data, value) == expected
    assert crc_module._crc_slice8(data, value ^ _U32) ^ _U32 == expected


@needs_numpy
@settings(max_examples=150, deadline=None)
@given(lengths, seeds, states)
def test_two_level_kernel_matches_byte_loop_at_every_length(
        length, seed, value):
    """Also below its dispatch length: segments of ``_SEG`` +- 1 bytes,
    a lone short segment, a four-byte chunk tail."""
    data = random.Random(seed).randbytes(length)
    with forced_leg(bulk_min=4, two_level_min=4):
        assert crc32c(data, value) == reference(data, value)


@needs_numpy
@settings(max_examples=100, deadline=None)
@given(st.one_of(st.sampled_from([n for n in EDGE_LENGTHS
                                  if n < _TWO_LEVEL_MIN]),
                 st.integers(min_value=0, max_value=_TWO_LEVEL_MIN - 1)),
       seeds, states)
def test_one_level_leg_matches_byte_loop_at_every_length(
        length, seed, value):
    data = random.Random(seed).randbytes(length)
    with forced_leg(bulk_min=4, two_level_min=_TWO_LEVEL_MIN):
        assert crc32c(data, value) == reference(data, value)


@settings(max_examples=100, deadline=None)
@given(lengths, seeds, st.floats(min_value=0.0, max_value=1.0))
def test_running_value_equals_whole_at_any_split(length, seed, where):
    data = random.Random(seed).randbytes(length)
    split = int(where * length)
    assert crc32c(data[split:], crc32c(data[:split])) == crc32c(data)


@pytest.mark.parametrize("length", [10, 170, _TWO_LEVEL_MIN + 7,
                                    4200, 2 * _CHUNK + 100])
def test_buffer_types_agree(length):
    data = random.Random(length).randbytes(length)
    expected = reference(data)
    assert crc32c(data) == expected
    assert crc32c(bytearray(data)) == expected
    assert crc32c(memoryview(data)) == expected
    # A view into the middle of a larger buffer, as `_read_block` passes.
    framed = b"head" + data + b"tail"
    assert crc32c(memoryview(framed)[4:4 + length]) == expected
    assert crc32c_many([data, bytearray(data)]) == [expected, expected]


def test_input_is_not_modified():
    data = bytearray(random.Random(1).randbytes(4200))
    before = bytes(data)
    crc32c(data, 0x12345678)
    assert bytes(data) == before


@given(st.integers(min_value=0, max_value=2 ** 32 - 1))
def test_mask_roundtrip_property(value):
    assert unmask_crc(mask_crc(value)) == value
