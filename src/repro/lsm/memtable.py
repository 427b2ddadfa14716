"""The in-memory write buffer (MemTable).

New writes land here first; when :attr:`approximate_memory_usage` crosses
``Options.write_buffer_size`` the table is frozen as an *immutable
memtable* and dumped to a level-0 SSTable — the paper's first type of
compaction.

Entries are stored in a skiplist keyed by
``varint32(len(internal_key)) || internal_key || varint32(len(value)) || value``
exactly like LevelDB, so iteration yields internal keys in merge order for
free.
"""

from __future__ import annotations

from typing import Iterator, Optional

from repro.errors import NotFoundError
from repro.lsm.internal import (
    TYPE_DELETION,
    TYPE_VALUE,
    InternalKeyComparator,
    encode_internal_key,
    extract_user_key,
    parse_internal_key,
)
from repro.lsm.skiplist import SkipList
from repro.util.coding import get_length_prefixed_slice
from repro.util.varint import encode_varint32


class MemTable:
    """Sorted in-memory buffer of (internal key, value) entries."""

    def __init__(self, comparator: InternalKeyComparator):
        self._comparator = comparator
        self._table = SkipList(self._compare_entries)
        self._memory_usage = 0

    def _compare_entries(self, a: bytes, b: bytes) -> int:
        key_a, _ = get_length_prefixed_slice(a, 0)
        key_b, _ = get_length_prefixed_slice(b, 0)
        return self._comparator.compare(key_a, key_b)

    def __len__(self) -> int:
        return len(self._table)

    @property
    def approximate_memory_usage(self) -> int:
        """Bytes consumed by stored entries (payload, not node overhead)."""
        return self._memory_usage

    def add(self, sequence: int, value_type: int, user_key: bytes,
            value: bytes) -> None:
        """Insert one entry.  ``value`` is ignored for deletions' semantics
        but still stored (LevelDB stores an empty value)."""
        internal_key = encode_internal_key(user_key, sequence, value_type)
        entry = bytearray()
        entry += encode_varint32(len(internal_key))
        entry += internal_key
        entry += encode_varint32(len(value))
        entry += value
        entry = bytes(entry)
        self._table.insert(entry)
        self._memory_usage += len(entry)

    def put(self, sequence: int, user_key: bytes, value: bytes) -> None:
        self.add(sequence, TYPE_VALUE, user_key, value)

    def delete(self, sequence: int, user_key: bytes) -> None:
        self.add(sequence, TYPE_DELETION, user_key, b"")

    def get(self, user_key: bytes, sequence: int) -> Optional[bytes]:
        """Newest value of ``user_key`` visible at snapshot ``sequence``.

        Returns the value, raises :class:`NotFoundError` if a deletion
        tombstone is the newest entry, or returns ``None`` when the key is
        absent from this memtable (the caller falls through to SSTables).
        """
        lookup = encode_internal_key(user_key, sequence, TYPE_VALUE)
        probe = encode_varint32(len(lookup)) + lookup
        for entry in self._table.iter_from(probe):
            internal_key, pos = get_length_prefixed_slice(entry, 0)
            if extract_user_key(internal_key) != user_key:
                return None
            parsed = parse_internal_key(internal_key)
            if parsed.sequence > sequence:
                # Entry newer than the snapshot (possible when iter_from
                # lands mid-run); keep scanning.
                continue
            if parsed.is_deletion:
                raise NotFoundError(user_key)
            value, _ = get_length_prefixed_slice(entry, pos)
            return value
        return None

    def __iter__(self) -> Iterator[tuple[bytes, bytes]]:
        """Yield ``(internal_key, value)`` in internal-key order."""
        return self.iter_from()

    def iter_from(self, start: Optional[bytes] = None
                  ) -> Iterator[tuple[bytes, bytes]]:
        """Like iteration, from the first entry whose internal key is
        >= ``start`` (one skiplist seek, no walk); from the top if None."""
        entries = (self._table if start is None else
                   self._table.iter_from(encode_varint32(len(start)) + start))
        for entry in entries:
            internal_key, pos = get_length_prefixed_slice(entry, 0)
            value, _ = get_length_prefixed_slice(entry, pos)
            yield internal_key, value
