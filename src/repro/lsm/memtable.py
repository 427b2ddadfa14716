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
    MARK_FIELDS_SIZE,
    TYPE_DELETION,
    TYPE_VALUE,
    InternalKeyComparator,
    encode_internal_key,
    make_lookup_key,
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

    def get(self, user_key: bytes, sequence: int,
            lookup: Optional[bytes] = None) -> Optional[bytes]:
        """Newest value of ``user_key`` visible at snapshot ``sequence``.

        Returns the value, raises :class:`NotFoundError` if a deletion
        tombstone is the newest entry, or returns ``None`` when the key is
        absent from this memtable (the caller falls through to SSTables).
        ``lookup`` is ``make_lookup_key(user_key, sequence)`` when the
        caller already has it.
        """
        if lookup is None:
            lookup = make_lookup_key(user_key, sequence)
        # One seek: the first entry at or after the lookup key is the
        # newest version of ``user_key`` at or below ``sequence``, or
        # belongs to another key.
        entry = self._table.seek(encode_varint32(len(lookup)) + lookup)
        if entry is None:
            return None
        internal_key, pos = get_length_prefixed_slice(entry, 0)
        if internal_key[:-MARK_FIELDS_SIZE] != user_key:
            return None
        if parse_internal_key(internal_key).is_deletion:
            raise NotFoundError(user_key)
        value, _ = get_length_prefixed_slice(entry, pos)
        return value

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
