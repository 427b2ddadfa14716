"""LevelDB-style variable-length integer coding.

Varints store an unsigned integer in base-128 groups, least significant
group first; the high bit of each byte marks continuation.  They are used
throughout the SSTable and WAL formats for lengths and offsets.
"""

from __future__ import annotations

from repro.errors import CorruptionError, InvalidArgumentError

MAX_VARINT32_BYTES = 5
MAX_VARINT64_BYTES = 10

_UINT32_MAX = (1 << 32) - 1
_UINT64_MAX = (1 << 64) - 1


def encode_varint32(value: int) -> bytes:
    """Encode ``value`` (0 <= value < 2**32) as a varint."""
    if not 0 <= value <= _UINT32_MAX:
        raise InvalidArgumentError(f"varint32 out of range: {value}")
    return _encode(value)


def encode_varint64(value: int) -> bytes:
    """Encode ``value`` (0 <= value < 2**64) as a varint."""
    if not 0 <= value <= _UINT64_MAX:
        raise InvalidArgumentError(f"varint64 out of range: {value}")
    return _encode(value)


def _encode(value: int) -> bytes:
    out = bytearray()
    while value >= 0x80:
        out.append((value & 0x7F) | 0x80)
        value >>= 7
    out.append(value)
    return bytes(out)


def decode_varint32(buf, offset: int = 0) -> tuple[int, int]:
    """Decode a varint32 from ``buf`` starting at ``offset``.

    Returns ``(value, next_offset)``.  Raises :class:`CorruptionError` on a
    truncated or overlong encoding.  ``buf`` may be ``bytes``,
    ``bytearray`` or ``memoryview``; nothing is copied.
    """
    try:
        byte = buf[offset]
    except IndexError:
        raise CorruptionError("truncated or overlong varint") from None
    if byte < 0x80:
        return byte, offset + 1
    return _decode(buf, offset, MAX_VARINT32_BYTES, _UINT32_MAX)


def decode_varint64(buf, offset: int = 0) -> tuple[int, int]:
    """Decode a varint64 from ``buf`` starting at ``offset``.

    Returns ``(value, next_offset)``.  ``buf`` may be ``bytes``,
    ``bytearray`` or ``memoryview``; nothing is copied.
    """
    try:
        byte = buf[offset]
    except IndexError:
        raise CorruptionError("truncated or overlong varint") from None
    if byte < 0x80:
        return byte, offset + 1
    return _decode(buf, offset, MAX_VARINT64_BYTES, _UINT64_MAX)


def _decode(buf, offset: int, max_bytes: int, max_value: int) -> tuple[int, int]:
    result = 0
    shift = 0
    pos = offset
    end = min(len(buf), offset + max_bytes)
    while pos < end:
        byte = buf[pos]
        pos += 1
        result |= (byte & 0x7F) << shift
        if not byte & 0x80:
            if result > max_value:
                raise CorruptionError("varint value exceeds range")
            return result, pos
        shift += 7
    raise CorruptionError("truncated or overlong varint")


class VarintCursor:
    """Cursor-style bulk varint decoder.

    Sequential decode loops (block entries, block handles, WAL records)
    pay one cursor construction instead of a ``(value, next_offset)``
    tuple allocation and bounds setup per field.  The single-byte case —
    virtually every length field in a block — is inlined; multi-byte
    values fall back to the shared decoder.

    ``buf`` may be ``bytes``, ``bytearray`` or ``memoryview``; the cursor
    never copies it.  ``pos`` is public: callers may read it to slice
    payload bytes and advance it with :meth:`skip`.
    """

    __slots__ = ("buf", "pos")

    def __init__(self, buf, pos: int = 0):
        self.buf = buf
        self.pos = pos

    def next64(self) -> int:
        """Decode the varint64 at the cursor and advance past it."""
        buf = self.buf
        pos = self.pos
        try:
            byte = buf[pos]
        except IndexError:
            raise CorruptionError("truncated or overlong varint") from None
        if byte < 0x80:
            self.pos = pos + 1
            return byte
        value, self.pos = _decode(buf, pos, MAX_VARINT64_BYTES, _UINT64_MAX)
        return value

    def skip(self, nbytes: int) -> None:
        """Advance past ``nbytes`` payload bytes."""
        self.pos += nbytes

    @property
    def at_end(self) -> bool:
        return self.pos >= len(self.buf)
