"""The in-memory write buffer (MemTable).

New writes land here first; when :attr:`approximate_memory_usage` crosses
``Options.write_buffer_size`` the table is frozen as an *immutable
memtable* and dumped to a level-0 SSTable — the paper's first type of
compaction.

Entries live in a skiplist keyed by the comparator's native sort key
(:meth:`~repro.lsm.internal.InternalKeyComparator.sort_key`), each node
holding its ``(internal_key, value)`` pair, so inserts and seeks compare
in C and iteration yields internal keys in merge order for free.
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


class MemTable:
    """Sorted in-memory buffer of (internal key, value) entries."""

    def __init__(self, comparator: InternalKeyComparator):
        self._sort_key = comparator.sort_key
        self._table = SkipList()
        self._memory_usage = 0

    def __len__(self) -> int:
        return len(self._table)

    @property
    def approximate_memory_usage(self) -> int:
        """Bytes of stored entries as LevelDB's arena holds them
        (``varint32(len) || internal_key || varint32(len) || value``), not
        Python's node overhead: ``write_buffer_size`` means what it does."""
        return self._memory_usage

    def add(self, sequence: int, value_type: int, user_key: bytes,
            value: bytes) -> None:
        """Insert one entry.  ``value`` is ignored for deletions' semantics
        but still stored (LevelDB stores an empty value)."""
        internal_key = encode_internal_key(user_key, sequence, value_type)
        self._table.insert(self._sort_key(internal_key),
                           (internal_key, value))
        # ``(n.bit_length() + 6) // 7 or 1`` is the size of varint32(n).
        key_len, value_len = len(internal_key), len(value)
        self._memory_usage += (
            ((key_len.bit_length() + 6) // 7 or 1) + key_len
            + ((value_len.bit_length() + 6) // 7 or 1) + value_len)

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
        entry = self._table.seek(self._sort_key(lookup))
        if entry is None:
            return None
        internal_key, value = entry
        if internal_key[:-MARK_FIELDS_SIZE] != user_key:
            return None
        if parse_internal_key(internal_key).is_deletion:
            raise NotFoundError(user_key)
        return value

    def __iter__(self) -> Iterator[tuple[bytes, bytes]]:
        """Yield ``(internal_key, value)`` in internal-key order."""
        return self.iter_from()

    def iter_from(self, start: Optional[bytes] = None
                  ) -> Iterator[tuple[bytes, bytes]]:
        """Like iteration, from the first entry whose internal key is
        >= ``start`` (one skiplist seek, no walk); from the top if None."""
        return self._table.iter_from(
            None if start is None else self._sort_key(start))
