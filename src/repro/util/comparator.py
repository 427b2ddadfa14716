"""Bytewise key order.

User keys order as ``bytes`` do (memcmp order): LevelDB's default, and
what the FPGA Comparer's compare tree computes over ``L_key``-byte keys.
There is no other user order.  :class:`BytewiseComparator` names that
order and provides the two key-shortening hooks LevelDB uses to keep
index blocks small: ``find_shortest_separator`` and
``find_short_successor``.

Lookups and ordered containers never call :meth:`BytewiseComparator.compare`
per step: they map keys through ``sort_key`` and compare the results
natively (``<``, ``bisect``).
"""

from __future__ import annotations


class BytewiseComparator:
    """Lexicographic order on raw bytes — LevelDB's default."""

    def compare(self, a: bytes, b: bytes) -> int:
        """Return <0, 0 or >0 as ``a`` sorts before, equal to, after ``b``."""
        if a == b:
            return 0
        return -1 if a < b else 1

    def sort_key(self, key: bytes) -> bytes:
        """A value whose native order is this order: the key itself."""
        return key

    def find_shortest_separator(self, start: bytes, limit: bytes) -> bytes:
        """Return a key ``k`` with ``start <= k < limit`` that is as short
        as possible; used for index-block keys.  May return ``start``."""
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
        """Return a short key ``k >= key``.  May return ``key``."""
        for i, byte in enumerate(key):
            if byte != 0xFF:
                return key[:i] + bytes([byte + 1])
        return key
