"""Data/index block format with restart-point prefix compression.

A block is a run of entries

    varint32 shared_key_len | varint32 unshared_key_len | varint32 value_len
    | key_delta | value

followed by an array of fixed32 restart offsets and a fixed32 restart
count.  Every ``restart_interval``-th key is stored in full (shared = 0) so
a reader can binary-search the restart points and scan at most one
interval.  This is LevelDB's exact layout — both SSTable data blocks and
index blocks use it, and it is what the FPGA Data/Index Block Decoders
parse.

This module is on the hot path of every compaction and read, so the codec
trades a little clarity for bulk decoding: the restart array is unpacked
in a single ``struct`` call, the three per-entry varints take an inlined
fast path (single-byte key lengths, value lengths of one or two bytes:
virtually every real entry) on both the encode and the decode side, and
keys are rebuilt by slice concatenation instead of a mutable scratch
``bytearray``.  Block images may be ``bytes``, ``bytearray`` or
``memoryview`` — decoding never copies the image, only the yielded
entries are materialized as ``bytes``.  Searches map the target and
each key they visit through ``comparator.sort_key`` and compare the
results natively: no comparator callback runs per step.
"""

from __future__ import annotations

import struct
from typing import Iterator, Optional

from repro.errors import CorruptionError
from repro.lsm.internal import InternalKeyComparator
from repro.util.coding import decode_fixed32
from repro.util.comparator import BytewiseComparator
from repro.util.varint import decode_varint32, encode_varint32


class BlockBuilder:
    """Accumulates sorted key/value entries into a block image."""

    def __init__(self, restart_interval: int = 16):
        if restart_interval < 1:
            raise ValueError("restart_interval must be >= 1")
        self._restart_interval = restart_interval
        self._buffer = bytearray()
        self._restarts = [0]
        self._counter = 0
        self._last_key = b""
        self._finished = False

    def current_size_estimate(self) -> int:
        """Bytes the finished block would occupy."""
        return len(self._buffer) + 4 * len(self._restarts) + 4

    def add(self, key: bytes, value: bytes) -> None:
        """Append an entry; keys must arrive in strictly increasing order
        relative to previous ``add`` calls (enforced by the table builder)."""
        if self._finished:
            raise ValueError("add after finish")
        shared = 0
        if self._counter < self._restart_interval:
            last_key = self._last_key
            min_len = min(len(last_key), len(key))
            if last_key[:min_len] == key[:min_len]:
                shared = min_len
            else:
                while last_key[shared] == key[shared]:
                    shared += 1
        else:
            self._restarts.append(len(self._buffer))
            self._counter = 0
        non_shared = len(key) - shared
        value_len = len(value)
        buffer = self._buffer
        if shared < 0x80 and non_shared < 0x80 and value_len < 0x4000:
            # Single-byte key lengths and a value length of one or two
            # bytes: the overwhelmingly common case.
            buffer.append(shared)
            buffer.append(non_shared)
            if value_len < 0x80:
                buffer.append(value_len)
            else:
                buffer.append(value_len & 0x7F | 0x80)
                buffer.append(value_len >> 7)
        else:
            buffer += encode_varint32(shared)
            buffer += encode_varint32(non_shared)
            buffer += encode_varint32(value_len)
        buffer += key[shared:]
        buffer += value
        self._last_key = key
        self._counter += 1

    def finish(self) -> bytes:
        """Seal the block and return its image."""
        if self._finished:
            raise ValueError("finish called twice")
        self._finished = True
        restarts = self._restarts
        return bytes(self._buffer) + struct.pack(
            f"<{len(restarts) + 1}I", *restarts, len(restarts))

    def reset(self) -> None:
        self._buffer.clear()
        self._restarts = [0]
        self._counter = 0
        self._last_key = b""
        self._finished = False


def _entry_lengths(data, offset: int) -> tuple[int, int, int, int]:
    """``(shared, non_shared, value_len, key delta offset)`` of the entry
    at ``offset``: the general case behind the decoders' inlined one."""
    shared, pos = decode_varint32(data, offset)
    non_shared, pos = decode_varint32(data, pos)
    value_len, pos = decode_varint32(data, pos)
    return shared, non_shared, value_len, pos


class Block:
    """Read-side view of a block image.

    ``contents`` may be ``bytes``, ``bytearray`` or ``memoryview``; the
    image is never copied, and yielded keys/values are always ``bytes``.
    """

    __slots__ = ("_data", "_is_bytes", "_num_restarts", "_restarts_offset",
                 "_restarts")

    def __init__(self, contents):
        size = len(contents)
        if size < 4:
            raise CorruptionError("block too small for restart count")
        self._data = contents
        self._is_bytes = isinstance(contents, bytes)
        self._num_restarts = decode_fixed32(contents, size - 4)
        self._restarts_offset = size - 4 - 4 * self._num_restarts
        if self._restarts_offset < 0 or self._num_restarts == 0:
            raise CorruptionError("bad restart array")
        # One bulk unpack replaces a fixed32 decode per binary-search probe.
        self._restarts = struct.unpack_from(
            f"<{self._num_restarts}I", contents, self._restarts_offset)

    def _iter_from_offset(self, offset: int) -> Iterator[tuple[bytes, bytes]]:
        data = self._data
        limit = self._restarts_offset
        materialize = not self._is_bytes
        key = b""
        try:
            while offset < limit:
                # The three lengths, inlined for single-byte key lengths
                # with a value length of one or two bytes.
                shared = data[offset]
                non_shared = data[offset + 1]
                value_len = data[offset + 2]
                pos = offset + 3
                if (shared | non_shared | value_len) >= 0x80:
                    if (shared | non_shared) < 0x80 and data[pos] < 0x80:
                        value_len = value_len & 0x7F | data[pos] << 7
                        pos += 1
                    else:
                        shared, non_shared, value_len, pos = _entry_lengths(
                            data, offset)
                value_start = pos + non_shared
                offset = value_start + value_len
                if offset > limit:
                    raise CorruptionError(
                        "block entry overruns restart array")
                if materialize:
                    delta = bytes(data[pos:value_start])
                    value = bytes(data[value_start:offset])
                else:
                    delta = data[pos:value_start]
                    value = data[value_start:offset]
                if shared:
                    if shared > len(key):
                        raise CorruptionError(
                            "shared prefix longer than previous key")
                    key = key[:shared] + delta
                else:
                    key = delta
                yield key, value
        except IndexError:
            raise CorruptionError("truncated block entry") from None

    def __iter__(self) -> Iterator[tuple[bytes, bytes]]:
        """Yield ``(key, value)`` in stored order."""
        if self._restarts_offset == 0:
            return
        yield from self._iter_from_offset(0)

    def _seek_restart(self, target, sort_key) -> int:
        """Offset of the last restart point whose key's ``sort_key`` is
        < ``target`` (a sort key; the first restart point when there is
        none): binary search over the restart keys, each read in place."""
        data = self._data
        limit = self._restarts_offset
        restarts = self._restarts
        lo, hi = 0, self._num_restarts - 1
        try:
            while lo < hi:
                mid = (lo + hi + 1) >> 1
                offset = restarts[mid]
                shared = data[offset]
                non_shared = data[offset + 1]
                value_len = data[offset + 2]
                pos = offset + 3
                if (shared | non_shared | value_len) >= 0x80:
                    if (shared | non_shared) < 0x80 and data[pos] < 0x80:
                        value_len = value_len & 0x7F | data[pos] << 7
                        pos += 1
                    else:
                        shared, non_shared, value_len, pos = _entry_lengths(
                            data, offset)
                if pos + non_shared + value_len > limit:
                    raise CorruptionError(
                        "block entry overruns restart array")
                if shared:
                    raise CorruptionError("restart entry has shared bytes")
                if sort_key(bytes(data[pos:pos + non_shared])) < target:
                    lo = mid
                else:
                    hi = mid - 1
        except IndexError:
            raise CorruptionError("truncated block entry") from None
        return restarts[lo]

    def seek(self, target: bytes,
             comparator: InternalKeyComparator | BytewiseComparator
             ) -> Optional[tuple[bytes, bytes]]:
        """First entry with key >= ``target`` under ``comparator``: the
        first item of :meth:`iter_from`, found by one direct loop that
        rebuilds keys along a single restart interval and slices only
        the value it returns."""
        sort_key = comparator.sort_key
        target = sort_key(target)
        data = self._data
        limit = self._restarts_offset
        materialize = not self._is_bytes
        offset = self._seek_restart(target, sort_key)
        key = b""
        try:
            while offset < limit:
                shared = data[offset]
                non_shared = data[offset + 1]
                value_len = data[offset + 2]
                pos = offset + 3
                if (shared | non_shared | value_len) >= 0x80:
                    if (shared | non_shared) < 0x80 and data[pos] < 0x80:
                        value_len = value_len & 0x7F | data[pos] << 7
                        pos += 1
                    else:
                        shared, non_shared, value_len, pos = _entry_lengths(
                            data, offset)
                value_start = pos + non_shared
                offset = value_start + value_len
                if offset > limit:
                    raise CorruptionError(
                        "block entry overruns restart array")
                delta = data[pos:value_start]
                if materialize:
                    delta = bytes(delta)
                if shared:
                    if shared > len(key):
                        raise CorruptionError(
                            "shared prefix longer than previous key")
                    key = key[:shared] + delta
                else:
                    key = delta
                if sort_key(key) >= target:
                    value = data[value_start:offset]
                    return key, bytes(value) if materialize else value
        except IndexError:
            raise CorruptionError("truncated block entry") from None
        return None

    def iter_from(self, target: bytes,
                  comparator: InternalKeyComparator | BytewiseComparator
                  ) -> Iterator[tuple[bytes, bytes]]:
        """Iterate entries with key >= ``target``."""
        sort_key = comparator.sort_key
        target = sort_key(target)
        entries = self._iter_from_offset(self._seek_restart(target, sort_key))
        for key, value in entries:
            if sort_key(key) >= target:
                yield key, value
                break
        yield from entries
