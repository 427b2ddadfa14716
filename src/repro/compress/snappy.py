"""Pure-Python Snappy block-format codec.

The format (https://github.com/google/snappy/blob/main/format_description.txt)
is a varint32 *uncompressed length* preamble followed by a sequence of
elements.  Each element starts with a tag byte whose low two bits select:

====  ======================  =========================================
tag   element                 layout
====  ======================  =========================================
0b00  literal                 length-1 in tag bits 2..7 if < 60, else
                              tag value 60..63 selects a 1..4 byte
                              little-endian length-1 that follows
0b01  copy, 1-byte offset     length-4 in tag bits 2..4 (4..11 bytes),
                              offset = tag bits 5..7 << 8 | next byte
0b10  copy, 2-byte offset     length-1 in tag bits 2..7 (1..64 bytes),
                              16-bit little-endian offset follows
0b11  copy, 4-byte offset     as 0b10 with a 32-bit offset
====  ======================  =========================================

The compressor is a greedy hash-table matcher in the spirit of the
reference implementation: it scans 4-byte windows, emits pending bytes as a
literal when a back-reference of at least :data:`MIN_MATCH` bytes is found,
and splits long matches into <= 64-byte copy elements.  Output is readable
by any conforming Snappy decoder.

The matcher has two legs that write the same bytes, chosen the way
:mod:`repro.util.crc32c` chooses its own (no numpy, or a fragment under
:data:`_BULK_MIN` bytes, takes the scalar leg; nothing outside this module
selects one):

* :func:`_compress_fragment` is the format's *definition*: one Python
  iteration per byte position outside emitted matches, each storing
  ``table[slot] = pos`` and matching iff the slot's previous occupant holds
  the same 4-byte word.
* :func:`_compress_fragment_bulk` computes every window, every slot and each
  position's previous same-slot position for the whole fragment with numpy,
  and iterates only over the positions where a match is possible.

Why they agree: the scalar loop inserts every position except the interiors
of matches it emitted, so its candidate at ``p`` is "the nearest earlier
same-slot position not inside an emitted match" -- the bulk leg walks the
chain ``prev[p], prev[prev[p]], ...`` past marked interiors to that same
position and applies the same word test.  ``{p : prev[p] >= 0 and
(word[prev[p]] == word[p] or prev[prev[p]] >= 0)}`` is a superset of the
positions where the test can pass (a chain of one unequal word cannot), and
a position that does not match only lengthens the pending literal.

The decoder is one loop, :func:`decompress_into`, which can stop at an
output length and resume later (a point lookup decodes a data block only
up to its entry); :func:`decompress` runs it to the end.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Optional

from repro.errors import CorruptionError
from repro.util.varint import decode_varint32, encode_varint32

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None

#: Shortest back-reference worth emitting.
MIN_MATCH = 4

#: Snappy compresses input in independent fragments of this size; offsets
#: never reach across a fragment boundary.
_FRAGMENT_SIZE = 65536

_HASH_BITS = 14
_HASH_MULTIPLIER = 0x1E35A7BD
_HASH_SHIFT = 32 - _HASH_BITS
_HASH_MASK = (1 << _HASH_BITS) - 1

#: Fragments shorter than this take the scalar leg.  Timed, not a setting:
#: on SSTable-shaped and random bytes the bulk leg's fixed numpy cost
#: (~20 us) is repaid between 32 and 64 bytes.  Must stay >= MIN_MATCH.
_BULK_MIN = 64

#: How many bytes one step of match extension compares.
_EXTEND_STEP = 32

_TAG_LITERAL = 0b00
_TAG_COPY1 = 0b01
_TAG_COPY2 = 0b10
_TAG_COPY4 = 0b11


def max_compressed_length(source_len: int) -> int:
    """Worst-case compressed size for ``source_len`` input bytes.

    Matches the bound used by the reference implementation.
    """
    return 32 + source_len + source_len // 6


def compress(data: bytes) -> bytes:
    """Compress ``data`` into Snappy block format."""
    out = bytearray(encode_varint32(len(data)))
    for start in range(0, len(data), _FRAGMENT_SIZE):
        # Both legs use bytes methods, whatever buffer `data` is; no copy
        # is made of bytes that are at most one fragment.
        fragment = bytes(data[start:start + _FRAGMENT_SIZE])
        if _np is None or len(fragment) < _BULK_MIN:
            _compress_fragment(fragment, out)
        else:
            _compress_fragment_bulk(fragment, out)
    return bytes(out)


def _common_length(data: bytes, behind: int, ahead: int) -> int:
    """How many bytes ``data[behind:]`` and ``data[ahead:]`` share before
    they differ or ``data`` ends (``behind < ahead``; they may overlap)."""
    start = ahead
    while True:
        chunk = data[ahead:ahead + _EXTEND_STEP]
        other = data[behind:behind + len(chunk)]
        if chunk != other:
            # The lowest set bit of the XOR is in the first unequal byte.
            diff = (int.from_bytes(chunk, "little")
                    ^ int.from_bytes(other, "little"))
            return ahead - start + (((diff & -diff).bit_length() - 1) >> 3)
        ahead += len(chunk)
        if len(chunk) < _EXTEND_STEP:
            return ahead - start
        behind += _EXTEND_STEP


def _compress_fragment(data: bytes, out: bytearray) -> None:
    """The scalar leg, and the definition the bulk leg is checked against."""
    table: dict[int, int] = {}
    probe = table.get
    load = int.from_bytes
    pos = literal_start = 0
    # Leave room so the 4-byte loads below never run past the fragment.
    limit = len(data) - MIN_MATCH
    while pos <= limit:
        word = load(data[pos:pos + MIN_MATCH], "little")
        slot = (word * _HASH_MULTIPLIER) >> _HASH_SHIFT & _HASH_MASK
        candidate = probe(slot, -1)
        table[slot] = pos
        if candidate >= 0 and word == load(
                data[candidate:candidate + MIN_MATCH], "little"):
            match_len = MIN_MATCH + _common_length(
                data, candidate + MIN_MATCH, pos + MIN_MATCH)
            _emit_literal(data, literal_start, pos, out)
            _emit_copy(pos - candidate, match_len, out)
            pos += match_len
            literal_start = pos
        else:
            pos += 1
    _emit_literal(data, literal_start, len(data), out)


def _compress_fragment_bulk(data: bytes, out: bytearray) -> None:
    """The numpy leg: same bytes as :func:`_compress_fragment` (see the
    module docstring for why).  All scratch is per call."""
    count = len(data) - MIN_MATCH + 1
    words = _np.ndarray((count,), "<u4", data, 0, (1,))
    # Multiplying by an odd constant permutes the 32-bit words, so equal
    # products mean equal words: `mixed` also serves the word test below.
    mixed = words * _np.uint32(_HASH_MULTIPLIER)
    # A stable sort of the 14-bit slots (radix, for a 16-bit dtype) lines
    # up each slot's positions adjacent and ascending.
    slots = (mixed >> _np.uint32(_HASH_SHIFT)).astype(_np.uint16)
    at = slots.argsort(kind="stable")
    slots = slots[at]
    same_slot = slots[1:] == slots[:-1]
    prev = _np.full(count, -1, _np.intp)
    prev[at[1:]] = _np.where(same_slot, at[:-1], -1)
    # Where prev is -1 the gathers read the last element; `prev >= 0`
    # masks those out.
    possible = (mixed[prev] == mixed) | (prev[prev] >= 0)
    possible &= prev >= 0
    visit = memoryview(_np.flatnonzero(possible))
    prev = memoryview(prev)
    interior = bytearray(count)

    literal_start = 0
    index = 0
    visits = len(visit)
    while index < visits:
        pos = visit[index]
        index += 1
        candidate = prev[pos]
        while interior[candidate]:
            below = prev[candidate]
            if below == candidate - 1:
                # Adjacent same-slot positions: a run of one byte, whose
                # words form one chain.  Cross in one step what of it lies
                # inside this match: down to where the run begins, or to
                # the match's own start (which the scalar loop did insert).
                free = interior.rfind(0, 0, candidate)
                window = data[free:candidate + MIN_MATCH]
                run = free + len(window.rstrip(window[-1:]))
                if run < candidate:
                    below = run if run == free else prev[run]
            candidate = below
            if candidate < 0:
                break
        else:
            match_len = _common_length(data, candidate, pos)
            if match_len >= MIN_MATCH:
                _emit_literal(data, literal_start, pos, out)
                _emit_copy(pos - candidate, match_len, out)
                literal_start = pos + match_len
                # The scalar loop never inserts a match's interior.
                interior[pos + 1:literal_start] = b"\x01" * (match_len - 1)
                index = bisect_left(visit, literal_start, index)
    _emit_literal(data, literal_start, len(data), out)


def _emit_literal(data: bytes, start: int, end: int, out: bytearray) -> None:
    length = end - start
    if length <= 0:
        return
    n = length - 1
    if n < 60:
        out.append(_TAG_LITERAL | (n << 2))
    elif n < (1 << 8):
        out.append(_TAG_LITERAL | (60 << 2))
        out.append(n)
    elif n < (1 << 16):
        out.append(_TAG_LITERAL | (61 << 2))
        out += n.to_bytes(2, "little")
    elif n < (1 << 24):
        out.append(_TAG_LITERAL | (62 << 2))
        out += n.to_bytes(3, "little")
    else:
        out.append(_TAG_LITERAL | (63 << 2))
        out += n.to_bytes(4, "little")
    out += data[start:end]


def _emit_copy(offset: int, length: int, out: bytearray) -> None:
    # Long matches become a run of <=64-byte copies.  Keep the tail >= 4
    # bytes so the final element is always encodable.
    while length >= 68:
        _emit_copy_upto64(offset, 64, out)
        length -= 64
    if length > 64:
        _emit_copy_upto64(offset, 60, out)
        length -= 60
    _emit_copy_upto64(offset, length, out)


def _emit_copy_upto64(offset: int, length: int, out: bytearray) -> None:
    if 4 <= length <= 11 and offset < (1 << 11):
        out.append(_TAG_COPY1 | ((length - 4) << 2) | ((offset >> 8) << 5))
        out.append(offset & 0xFF)
    elif offset < (1 << 16):
        out.append(_TAG_COPY2 | ((length - 1) << 2))
        out += offset.to_bytes(2, "little")
    else:
        out.append(_TAG_COPY4 | ((length - 1) << 2))
        out += offset.to_bytes(4, "little")


def decompress(data: bytes) -> bytes:
    """Decompress a Snappy block-format byte string.

    Raises :class:`CorruptionError` on malformed input, as soon as the
    elements would produce more than the preamble length, or when they
    produce less.
    """
    expected, pos = decode_varint32(data, 0)
    out = bytearray()
    decompress_into(data, pos, out, expected)
    return bytes(out)


def decompress_into(data: bytes, pos: int, out: bytearray, expected: int,
                    stop: Optional[int] = None) -> int:
    """Decode ``data`` from input position ``pos`` onto ``out`` (the
    output so far) until it holds ``stop`` bytes (None: all), and return
    the input position to resume from.  That the output ends at the
    preamble length ``expected`` is checked when the input is used up."""
    if stop is None:
        stop = expected + 1
    size = len(out)
    n = len(data)
    while pos < n:
        tag = data[pos]
        kind = tag & 0b11
        pos += 1
        if kind == _TAG_LITERAL:
            length = (tag >> 2) + 1
            if length > 60:
                extra = length - 60
                if pos + extra > n:
                    raise CorruptionError("truncated literal length")
                length = int.from_bytes(data[pos:pos + extra], "little") + 1
                pos += extra
            if pos + length > n:
                raise CorruptionError("literal overruns input")
            chunk = data[pos:pos + length]
            pos += length
        else:
            if kind == _TAG_COPY1:
                length = ((tag >> 2) & 0x7) + 4
                if pos >= n:
                    raise CorruptionError("truncated copy-1 offset")
                offset = ((tag >> 5) << 8) | data[pos]
                pos += 1
            elif kind == _TAG_COPY2:
                length = (tag >> 2) + 1
                if pos + 2 > n:
                    raise CorruptionError("truncated copy-2 offset")
                offset = data[pos] | data[pos + 1] << 8
                pos += 2
            else:
                length = (tag >> 2) + 1
                if pos + 4 > n:
                    raise CorruptionError("truncated copy-4 offset")
                offset = int.from_bytes(data[pos:pos + 4], "little")
                pos += 4
            if offset == 0 or offset > size:
                raise CorruptionError("copy offset out of range")
            if offset >= length:
                chunk = out[size - offset:size - offset + length]
            else:
                # The copy overlaps its own output: the last `offset`
                # bytes repeat until `length` is filled.
                chunk = (out[size - offset:]
                         * (length // offset + 1))[:length]
        size += length
        out += chunk
        if size >= stop:
            if size > expected:
                raise CorruptionError(
                    f"decompressed length passes preamble {expected}")
            break
    if pos >= n and size != expected:
        raise CorruptionError(
            f"decompressed length {size} != preamble {expected}")
    return pos
