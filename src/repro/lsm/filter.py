"""Bloom-filter policy, LevelDB-compatible.

Uses LevelDB's double-hashing scheme seeded by a single 32-bit hash
(``BloomFilterPolicy`` in ``util/bloom.cc``): ``k`` probe positions are
derived by repeatedly adding a 17-bit rotation delta.  The generated
filter bytes are appended with a trailing byte recording ``k`` so a reader
needs no out-of-band metadata.
"""

from __future__ import annotations

import math
import struct
from typing import Iterable

_SEED = 0xBC9F1D34
_MULT = 0xC6A4A793
_U32 = 0xFFFFFFFF


def _leveldb_hash(data: bytes, seed: int = _SEED) -> int:
    """LevelDB's ``util/hash.cc`` — a Murmur-like 32-bit hash."""
    h = (seed ^ (len(data) * _MULT)) & _U32
    pos = len(data) - len(data) % 4
    for word in struct.unpack_from(f"<{pos // 4}I", data):
        h = ((h + word) * _MULT) & _U32
        h ^= h >> 16
    rest = len(data) - pos
    if rest == 3:
        h = (h + (data[pos + 2] << 16)) & _U32
        rest = 2
    if rest == 2:
        h = (h + (data[pos + 1] << 8)) & _U32
        rest = 1
    if rest == 1:
        h = (h + data[pos]) & _U32
        h = (h * _MULT) & _U32
        h ^= h >> 24
    return h


class BloomFilterPolicy:
    """Builds and probes per-table bloom filters."""

    def __init__(self, bits_per_key: int = 10):
        if bits_per_key < 1:
            raise ValueError("bits_per_key must be >= 1")
        self.bits_per_key = bits_per_key
        # Optimal k = bits_per_key * ln(2), clamped like LevelDB.
        self._k = max(1, min(30, int(bits_per_key * math.log(2))))

    @property
    def name(self) -> str:
        return "leveldb.BuiltinBloomFilter2"

    def create_filter(self, keys: Iterable[bytes]) -> bytes:
        keys = list(keys)
        bits = max(64, len(keys) * self.bits_per_key)
        nbytes = (bits + 7) // 8
        bits = nbytes * 8
        array = bytearray(nbytes)
        for key in keys:
            h = _leveldb_hash(key)
            delta = ((h >> 17) | (h << 15)) & _U32
            for _ in range(self._k):
                bit = h % bits
                array[bit // 8] |= 1 << (bit % 8)
                h = (h + delta) & _U32
        array.append(self._k)
        return bytes(array)

    #: The one hash a lookup needs: compute it once per key, then probe
    #: every table's filter with :meth:`hash_may_match`.
    hash_key = staticmethod(_leveldb_hash)

    @staticmethod
    def hash_may_match(h: int, filter_data: bytes) -> bool:
        """Probe with ``h = hash_key(key)``; ``True`` may be a false
        positive, ``False`` is definitive."""
        if len(filter_data) < 2:
            return False
        k = filter_data[-1]
        if k > 30:
            # Reserved for future encodings; err on returning true.
            return True
        bits = (len(filter_data) - 1) * 8
        delta = ((h >> 17) | (h << 15)) & _U32
        for _ in range(k):
            bit = h % bits
            if not filter_data[bit // 8] & (1 << (bit % 8)):
                return False
            h = (h + delta) & _U32
        return True

    @staticmethod
    def key_may_match(key: bytes, filter_data: bytes) -> bool:
        """``hash_may_match(hash_key(key), filter_data)``."""
        return BloomFilterPolicy.hash_may_match(_leveldb_hash(key),
                                                filter_data)
