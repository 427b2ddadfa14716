"""Key comparators.

The store orders user keys with a pluggable :class:`Comparator`; the default
is bytewise (memcmp) order, matching LevelDB.  Comparators also provide the
two key-shortening hooks LevelDB uses to keep index blocks small:
``find_shortest_separator`` and ``find_short_successor``.

Lookups and ordered containers never call :meth:`Comparator.compare`
per step: they map keys through :meth:`Comparator.sort_key` and compare
the results natively (``<``, ``bisect``), so a bytewise order costs
nothing beyond ``bytes`` comparison.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from functools import cmp_to_key


class Comparator(ABC):
    """Total order over byte-string user keys."""

    @property
    @abstractmethod
    def name(self) -> str:
        """Identity of the order; persisted and checked when reopening."""

    @abstractmethod
    def compare(self, a: bytes, b: bytes) -> int:
        """Return <0, 0 or >0 as ``a`` sorts before, equal to, after ``b``."""

    def sort_key(self, key: bytes):
        """A value whose native order is this order: ``sort_key(a) <
        sort_key(b)`` iff ``compare(a, b) < 0``, equal iff it is 0."""
        return cmp_to_key(self.compare)(key)

    def find_shortest_separator(self, start: bytes, limit: bytes) -> bytes:
        """Return a key ``k`` with ``start <= k < limit`` that is as short
        as possible; used for index-block keys.  May return ``start``."""
        return start

    def find_short_successor(self, key: bytes) -> bytes:
        """Return a short key ``k >= key``.  May return ``key``."""
        return key


class BytewiseComparator(Comparator):
    """Lexicographic order on raw bytes — LevelDB's default."""

    @property
    def name(self) -> str:
        return "leveldb.BytewiseComparator"

    def compare(self, a: bytes, b: bytes) -> int:
        if a == b:
            return 0
        return -1 if a < b else 1

    def sort_key(self, key: bytes) -> bytes:
        return key

    def find_shortest_separator(self, start: bytes, limit: bytes) -> bytes:
        # Shorten `start` to the common prefix plus one incremented byte,
        # provided the result still sorts strictly below `limit`.
        min_len = min(len(start), len(limit))
        shared = 0
        while shared < min_len and start[shared] == limit[shared]:
            shared += 1
        if shared >= min_len:
            # One key is a prefix of the other; no shortening possible.
            return start
        byte = start[shared]
        if byte < 0xFF and byte + 1 < limit[shared]:
            return start[:shared] + bytes([byte + 1])
        return start

    def find_short_successor(self, key: bytes) -> bytes:
        for i, byte in enumerate(key):
            if byte != 0xFF:
                return key[:i] + bytes([byte + 1])
        return key
