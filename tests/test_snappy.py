"""Snappy codec: format details, round-trips, corruption rejection, and
the byte identity of the compressor's scalar and numpy legs."""

import hashlib
import os
import random
import sys
import threading
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import snappy
from repro.errors import CorruptionError
from repro.lsm.block import BlockBuilder
from repro.util.varint import decode_varint32

GOLDEN_DIGEST = os.path.join(os.path.dirname(__file__), "golden",
                             "snappy_corpus.sha256")

needs_numpy = pytest.mark.skipif(
    snappy._np is None,
    reason="numpy not installed; only the scalar leg exists")


def scalar_compress(data: bytes) -> bytes:
    """``compress`` through the scalar leg only: the format's definition."""
    with mock.patch.object(snappy, "_np", None):
        return snappy.compress(data)


def bulk_compress(data: bytes) -> bytes:
    """``compress`` with the numpy leg taking every fragment it can."""
    with mock.patch.object(snappy, "_BULK_MIN", snappy.MIN_MATCH):
        return snappy.compress(data)


def legs_agree(data: bytes) -> bytes:
    compressed = scalar_compress(data)
    assert bulk_compress(data) == compressed
    assert snappy.compress(data) == compressed
    assert snappy.decompress(compressed) == data
    return compressed


def low_entropy(seed: int, symbols: int, length: int) -> bytes:
    """Few symbols: long slot chains, skipped interiors, offset-1 runs."""
    rng = random.Random(seed)
    return bytes(rng.choices(range(symbols), k=length))


def sstable_block(seed: int, entries: int, value_len: int = 128,
                  versions: int = 3) -> bytes:
    """A data block of the e2e generator's shape: 16 B keys; values of an
    8 B version, then half hash output and half one repeated byte.  With
    few ``versions`` the tails are the same run again and again, so slot
    chains cross the interiors of many earlier matches."""
    rng = random.Random(seed)
    builder = BlockBuilder(16)
    noise = (value_len - 8) // 2
    for sequence, k in enumerate(sorted(rng.sample(range(10 ** 6), entries))):
        version = rng.randrange(1, versions + 1)
        head = version.to_bytes(8, "big")
        key = b"%016d" % k
        builder.add(key + (sequence << 8 | 1).to_bytes(8, "little"),
                    head + hashlib.shake_128(head + key).digest(noise)
                    + bytes([version % 251]) * (value_len - 8 - noise))
    return builder.finish()


def elements(compressed: bytes) -> list[tuple]:
    """``("literal", length)`` / ``("copy", length, offset)`` per element
    of a stream whose offsets are at most two bytes wide."""
    _, pos = decode_varint32(compressed, 0)
    found = []
    while pos < len(compressed):
        tag = compressed[pos]
        pos += 1
        if tag & 0b11 == 0b00:
            length = (tag >> 2) + 1
            if length > 60:
                extra = length - 60
                length = int.from_bytes(compressed[pos:pos + extra],
                                        "little") + 1
                pos += extra
            found.append(("literal", length))
            pos += length
        elif tag & 0b11 == 0b01:
            found.append(("copy", ((tag >> 2) & 0x7) + 4,
                          (tag >> 5) << 8 | compressed[pos]))
            pos += 1
        else:
            assert tag & 0b11 == 0b10
            found.append(("copy", (tag >> 2) + 1,
                          int.from_bytes(compressed[pos:pos + 2], "little")))
            pos += 2
    return found


class TestFormat:
    def test_empty_input(self):
        compressed = snappy.compress(b"")
        assert snappy.decompress(compressed) == b""
        assert compressed == b"\x00"

    def test_preamble_is_uncompressed_length(self):
        data = b"abcdefgh" * 10
        compressed = snappy.compress(data)
        length, _ = decode_varint32(compressed, 0)
        assert length == len(data)

    def test_single_byte(self):
        assert snappy.decompress(snappy.compress(b"x")) == b"x"

    def test_incompressible_close_to_raw(self):
        import random
        data = bytes(random.Random(5).randrange(256) for _ in range(1000))
        compressed = snappy.compress(data)
        assert len(compressed) <= snappy.max_compressed_length(len(data))
        assert snappy.decompress(compressed) == data

    def test_repetitive_compresses_well(self):
        data = b"the quick brown fox " * 500
        compressed = snappy.compress(data)
        assert len(compressed) < len(data) // 4
        assert snappy.decompress(compressed) == data

    def test_run_of_one_byte(self):
        # Overlapping copy (offset 1) path.
        data = b"a" * 10_000
        compressed = snappy.compress(data)
        # ~3 bytes per 64-byte copy element.
        assert len(compressed) < 600
        assert snappy.decompress(compressed) == data

    def test_long_match_split_into_copies(self):
        data = b"0123456789abcdef" * 100
        assert snappy.decompress(snappy.compress(data)) == data

    def test_crosses_fragment_boundary(self):
        data = (b"pattern-" * 9000) + bytes(range(256)) * 300
        assert len(data) > 65536 * 2
        assert snappy.decompress(snappy.compress(data)) == data

    def test_literal_length_escape_60(self):
        # > 60-byte incompressible literal uses the 1-byte length escape.
        import random
        data = bytes(random.Random(7).randrange(256) for _ in range(100))
        assert snappy.decompress(snappy.compress(data)) == data


class TestDecompressHandwritten:
    def test_pure_literal(self):
        # length 5 literal "hello": tag (5-1)<<2, then bytes.
        raw = bytes([5]) + bytes([(5 - 1) << 2]) + b"hello"
        assert snappy.decompress(raw) == b"hello"

    def test_copy1(self):
        # "abcd" then copy len=4 offset=4 -> "abcdabcd"
        body = bytes([(4 - 1) << 2]) + b"abcd"
        copy = bytes([0b01 | ((4 - 4) << 2) | (0 << 5), 4])
        raw = bytes([8]) + body + copy
        assert snappy.decompress(raw) == b"abcdabcd"

    def test_copy2(self):
        body = bytes([(4 - 1) << 2]) + b"wxyz"
        copy = bytes([0b10 | ((4 - 1) << 2)]) + (4).to_bytes(2, "little")
        raw = bytes([8]) + body + copy
        assert snappy.decompress(raw) == b"wxyzwxyz"

    def test_overlapping_copy(self):
        # "ab" then copy len=6 offset=2 -> "abababab"
        body = bytes([(2 - 1) << 2]) + b"ab"
        copy = bytes([0b01 | ((6 - 4) << 2) | (0 << 5), 2])
        raw = bytes([8]) + body + copy
        assert snappy.decompress(raw) == b"abababab"


    def test_offset_one_run(self):
        # "x" then copy len=9 offset=1 -> ten x's
        raw = bytes([10, 0 << 2]) + b"x" + bytes([0b10 | ((9 - 1) << 2), 1, 0])
        assert snappy.decompress(raw) == b"x" * 10

    def test_pattern_not_a_divisor_of_length(self):
        # "abc" then copy len=10 offset=3 -> "abc" + "abcabcabca"
        raw = (bytes([13, (3 - 1) << 2]) + b"abc"
               + bytes([0b01 | ((10 - 4) << 2), 3]))
        assert snappy.decompress(raw) == b"abcabcabcabca"

    def test_offset_equals_length(self):
        # The boundary between the plain and the overlapping copy.
        raw = (bytes([10, (5 - 1) << 2]) + b"hello"
               + bytes([0b01 | ((5 - 4) << 2), 5]))
        assert snappy.decompress(raw) == b"hellohello"

    def test_copy4(self):
        body = bytes([(4 - 1) << 2]) + b"wxyz"
        copy = bytes([0b11 | ((4 - 1) << 2)]) + (4).to_bytes(4, "little")
        assert snappy.decompress(bytes([8]) + body + copy) == b"wxyzwxyz"


class TestCorruption:
    def test_elements_overrun_preamble(self):
        # Rejected at the element that passes the preamble length, before
        # the out-of-range offset behind it is even looked at.
        body = bytes([(2 - 1) << 2]) + b"ab"
        copy = bytes([0b10 | ((64 - 1) << 2), 1, 0])
        bad_offset = bytes([0b01 | (0 << 2), 0])
        with pytest.raises(CorruptionError, match="passes preamble 4"):
            snappy.decompress(bytes([4]) + body + copy + bad_offset)

    def test_literal_overruns_preamble(self):
        raw = bytes([3]) + bytes([(5 - 1) << 2]) + b"hello"
        with pytest.raises(CorruptionError, match="passes preamble 3"):
            snappy.decompress(raw)

    def test_length_mismatch(self):
        raw = bytes([10]) + bytes([(5 - 1) << 2]) + b"hello"
        with pytest.raises(CorruptionError):
            snappy.decompress(raw)

    def test_truncated_literal(self):
        raw = bytes([5]) + bytes([(5 - 1) << 2]) + b"he"
        with pytest.raises(CorruptionError):
            snappy.decompress(raw)

    def test_copy_offset_zero(self):
        raw = bytes([4]) + bytes([0b01 | (0 << 2), 0])
        with pytest.raises(CorruptionError):
            snappy.decompress(raw)

    def test_copy_offset_beyond_output(self):
        body = bytes([(2 - 1) << 2]) + b"ab"
        copy = bytes([0b01 | (0 << 2), 50])
        raw = bytes([6]) + body + copy
        with pytest.raises(CorruptionError):
            snappy.decompress(raw)

    def test_truncated_copy_offset(self):
        raw = bytes([4]) + bytes([0b10 | ((4 - 1) << 2), 0x01])
        with pytest.raises(CorruptionError):
            snappy.decompress(raw)


@settings(max_examples=60, deadline=None)
@given(st.binary(max_size=4096))
def test_roundtrip_property(data):
    assert snappy.decompress(snappy.compress(data)) == data


@settings(max_examples=30, deadline=None)
@given(st.lists(st.sampled_from([b"abc", b"hello world", b"x" * 40, b"q"]),
                max_size=200))
def test_roundtrip_repetitive_property(parts):
    data = b"".join(parts)
    compressed = snappy.compress(data)
    assert snappy.decompress(compressed) == data
    assert len(compressed) <= snappy.max_compressed_length(len(data))


# ----------------------------------------------------------------------
# The two compressor legs write the same bytes
# ----------------------------------------------------------------------

@needs_numpy
@settings(max_examples=70, deadline=None)
@given(st.binary(max_size=8192))
def test_legs_agree_on_binary(data):
    legs_agree(data)


@needs_numpy
@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32), st.sampled_from([2, 3, 4, 16]),
       st.integers(0, 8192))
def test_legs_agree_on_low_entropy(seed, symbols, length):
    legs_agree(low_entropy(seed, symbols, length))


@needs_numpy
@settings(max_examples=50, deadline=None)
@given(st.integers(0, 2 ** 32), st.integers(1, 40),
       st.sampled_from([16, 128, 150]), st.sampled_from([1, 3, 1 << 20]))
def test_legs_agree_on_sstable_blocks(seed, entries, value_len, versions):
    legs_agree(sstable_block(seed, entries, value_len, versions))


@needs_numpy
class TestLegsAgreeAtTheEdges:
    @pytest.mark.parametrize("length", range(9))
    def test_tiny_inputs(self, length):
        for pattern in (b"aaaaaaaa", b"abababab", bytes(range(8))):
            legs_agree(pattern[:length])

    def test_match_runs_to_the_last_byte(self):
        noise = random.Random(3).randbytes(40)
        compressed = legs_agree(noise + b"-" + noise)
        assert elements(compressed) == [("literal", 41), ("copy", 40, 41)]

    @pytest.mark.parametrize("length,split", [
        (64, [64]), (65, [60, 5]), (67, [60, 7]), (68, [64, 4]),
        (69, [64, 5]), (130, [64, 60, 6]), (132, [64, 64, 4])])
    def test_long_match_split(self, length, split):
        noise = random.Random(4).randbytes(140)
        stop = bytes([noise[length] ^ 0xFF])
        compressed = legs_agree(noise + b"-" + noise[:length] + stop)
        assert elements(compressed) == (
            [("literal", 141)] + [("copy", part, 141) for part in split]
            + [("literal", 1)])

    @pytest.mark.parametrize("length", [65535, 65536, 65537, 65536 * 2 + 77])
    def test_fragments_are_independent(self, length):
        # Low entropy, so every 4-byte word recurs on both sides of each
        # fragment boundary; no candidate may cross one.
        data = low_entropy(length, 4, length)
        compressed = legs_agree(data)
        _, body = decode_varint32(compressed, 0)
        alone = b""
        for start in range(0, length, 65536):
            fragment = scalar_compress(data[start:start + 65536])
            alone += fragment[decode_varint32(fragment, 0)[1]:]
        assert compressed[body:] == alone


def corpus() -> list[bytes]:
    """The seeded inputs behind ``golden/snappy_corpus.sha256``."""
    rng = random.Random(19)
    inputs = [b"", b"a", b"abcd", b"abcde", b"a" * 70_000]
    for symbols in (2, 3, 4, 16, 256):
        for length in (5, 63, 64, 700, 4096, 9000):
            inputs.append(low_entropy(rng.randrange(1 << 30), symbols, length))
    for entries in (1, 7, 27, 28, 60):
        inputs.append(sstable_block(rng.randrange(1 << 30), entries))
        inputs.append(sstable_block(rng.randrange(1 << 30), entries,
                                    versions=1 << 20))
    inputs.append(sstable_block(5, 40, value_len=16))
    inputs.append(low_entropy(6, 4, 65536 + 4097))
    inputs.append(low_entropy(7, 200, 65536 * 2 + 5))
    return inputs


def corpus_digest(compress) -> str:
    digest = hashlib.sha256()
    for data in corpus():
        digest.update(compress(data))
    return digest.hexdigest()


@pytest.mark.parametrize("compress", [
    scalar_compress,
    pytest.param(snappy.compress, marks=needs_numpy),
    pytest.param(bulk_compress, marks=needs_numpy),
], ids=["scalar", "numpy", "numpy-every-fragment"])
def test_on_disk_bytes_pinned(compress):
    """The digest was computed at the commit before the numpy leg existed:
    blocks on disk must never depend on the leg or on this module's age."""
    with open(GOLDEN_DIGEST) as f:
        assert corpus_digest(compress) == f.read().strip()


def test_concurrent_compress_matches_serial():
    """Flush and merge steps on different threads compress concurrently:
    the numpy leg may share no mutable scratch between calls."""
    inputs = [sstable_block(11, 28), low_entropy(12, 3, 4096)]
    serial = [snappy.compress(data) for data in inputs]
    results: list[list[bytes]] = [[], []]

    def work(which: int) -> None:
        for _ in range(200):
            results[which].append(snappy.compress(inputs[which]))

    threads = [threading.Thread(target=work, args=(which,))
               for which in range(2)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for which in range(2):
        assert results[which] == [serial[which]] * 200
