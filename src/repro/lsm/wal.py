"""Write-ahead log in LevelDB's record format.

The log is a sequence of 32 KB blocks.  Each record fragment carries a
7-byte header — masked CRC32C (4), payload length (2), fragment type (1) —
and records that straddle block boundaries are split into
FIRST/MIDDLE/.../LAST fragments.  A block's trailing <7 bytes are zero
padding.

Recovery replays every intact record and stops at the first corruption or
truncation, which is exactly what a crash mid-append should look like.
"""

from __future__ import annotations

from typing import Iterator

from repro.errors import CorruptionError
from repro.lsm.env import WritableFile
from repro.util.coding import decode_fixed32, encode_fixed32
from repro.util.crc32c import crc32c, mask_crc, unmask_crc

BLOCK_SIZE = 32768
HEADER_SIZE = 7

FULL = 1
FIRST = 2
MIDDLE = 3
LAST = 4

# A record's checksum covers type || payload (LevelDB's ``type_crc_``):
# the CRC of each possible type byte, extended over the payload in place.
_TYPE_CRC = tuple(crc32c(bytes([record_type])) for record_type in range(256))


class LogWriter:
    """Appends length-prefixed, checksummed records to a writable file."""

    def __init__(self, dest: WritableFile):
        self._dest = dest
        # Seed from the destination so appending to a non-empty log
        # (reopened segment) keeps fragment/padding accounting aligned
        # with the 32 KB block grid the reader walks.
        self._block_offset = dest.size % BLOCK_SIZE

    def add_record(self, data: bytes) -> None:
        """Append one record (possibly fragmented across blocks)."""
        left = len(data)
        pos = 0
        begin = True
        while True:
            leftover = BLOCK_SIZE - self._block_offset
            if leftover < HEADER_SIZE:
                # Pad the tail of the block and start a fresh one.
                if leftover > 0:
                    self._dest.append(b"\x00" * leftover)
                self._block_offset = 0
                leftover = BLOCK_SIZE
            available = leftover - HEADER_SIZE
            fragment = min(left, available)
            end = left == fragment
            if begin and end:
                record_type = FULL
            elif begin:
                record_type = FIRST
            elif end:
                record_type = LAST
            else:
                record_type = MIDDLE
            self._emit(record_type, data[pos:pos + fragment])
            pos += fragment
            left -= fragment
            begin = False
            if left <= 0:
                break

    def _emit(self, record_type: int, payload: bytes) -> None:
        crc = mask_crc(crc32c(payload, _TYPE_CRC[record_type]))
        header = (encode_fixed32(crc)
                  + len(payload).to_bytes(2, "little")
                  + bytes([record_type]))
        self._dest.append(header + payload)
        self._block_offset += HEADER_SIZE + len(payload)

    def flush(self) -> None:
        self._dest.flush()


class LogReader:
    """Replays records written by :class:`LogWriter`.

    ``strict`` controls what happens on damage: ``True`` raises
    :class:`CorruptionError`; ``False`` stops silently at the first bad
    fragment (crash-recovery semantics).
    """

    def __init__(self, data: bytes, strict: bool = False):
        self._data = data
        self._strict = strict

    def __iter__(self) -> Iterator[bytes]:
        pos = 0
        data = self._data
        pending: bytearray | None = None
        while pos < len(data):
            block_left = BLOCK_SIZE - (pos % BLOCK_SIZE)
            if block_left < HEADER_SIZE:
                pos += block_left  # zero padding
                continue
            if pos + HEADER_SIZE > len(data):
                return  # truncated header: clean EOF
            stored_crc = unmask_crc(decode_fixed32(data, pos))
            length = int.from_bytes(data[pos + 4:pos + 6], "little")
            record_type = data[pos + 6]
            if record_type == 0 and length == 0:
                # Zeroed region (preallocated space); treat as EOF.
                return
            payload_start = pos + HEADER_SIZE
            payload_end = payload_start + length
            if payload_end > len(data):
                self._fail("truncated record payload")
                return
            payload = data[payload_start:payload_end]
            if crc32c(payload, _TYPE_CRC[record_type]) != stored_crc:
                self._fail("bad record CRC")
                return
            pos = payload_end
            if record_type == FULL:
                if pending is not None:
                    self._fail("FULL record inside fragmented record")
                    pending = None
                yield bytes(payload)
            elif record_type == FIRST:
                if pending is not None:
                    self._fail("FIRST record inside fragmented record")
                pending = bytearray(payload)
            elif record_type == MIDDLE:
                if pending is None:
                    self._fail("MIDDLE record without FIRST")
                    continue
                pending += payload
            elif record_type == LAST:
                if pending is None:
                    self._fail("LAST record without FIRST")
                    continue
                pending += payload
                yield bytes(pending)
                pending = None
            else:
                self._fail(f"unknown record type {record_type}")
                return

    def _fail(self, message: str) -> None:
        if self._strict:
            raise CorruptionError(message)
