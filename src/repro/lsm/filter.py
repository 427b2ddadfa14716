"""Bloom-filter policy, LevelDB-compatible.

Uses LevelDB's double-hashing scheme seeded by a single 32-bit hash
(``BloomFilterPolicy`` in ``util/bloom.cc``): ``k`` probe positions are
derived by repeatedly adding a 17-bit rotation delta.  The generated
filter bytes are appended with a trailing byte recording ``k`` so a reader
needs no out-of-band metadata.

A filter is built from its keys' 32-bit hashes (:func:`hash_keys`, which
a table builder calls as keys arrive, so it keeps 4 bytes per key, not
the key).  Hashing and :meth:`BloomFilterPolicy.filter_from_hashes` each
have two legs that give the same values: a scalar loop, and — with
numpy, from ``_BULK_MIN_KEYS`` keys on — one that hashes keys of equal
length as columns of a byte matrix and sets each round of probe bits in
one scatter (LUDA's data-parallel idiom, arXiv 2004.03054).
"""

from __future__ import annotations

import math
import struct
from array import array
from typing import Iterable

_SEED = 0xBC9F1D34
_MULT = 0xC6A4A793
_U32 = 0xFFFFFFFF

#: Key sets smaller than this take the scalar loop.  µs scalar / bulk for
#: 16-byte keys: 8 keys 21 / 21, 16 keys 38 / 22, 190 keys 451 / 36,
#: 1,000 keys 2,339 / 159.
_BULK_MIN_KEYS = 12

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None


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


def _hash_many(keys: list[bytes]):
    """``_leveldb_hash`` of every key as one uint32 array, in no
    particular order (a filter is a union).  uint32 array arithmetic
    wraps, which is the hash's ``& _U32``."""
    by_length: dict[int, list[bytes]] = {}
    for key in keys:
        by_length.setdefault(len(key), []).append(key)
    hashes = []
    mult = _np.uint32(_MULT)
    for length, group in by_length.items():
        # One row per key, zero-padded to whole little-endian words: the
        # padded last word is the sum the tail switch falls through to.
        rows = _np.zeros((len(group), length + -length % 4), dtype=_np.uint8)
        rows[:, :length] = _np.frombuffer(
            b"".join(group), dtype=_np.uint8).reshape(len(group), length)
        words = rows.view("<u4").T
        h = _np.full(len(group), (_SEED ^ (length * _MULT)) & _U32,
                     dtype=_np.uint32)
        for word in words[:length // 4]:
            h += word
            h *= mult
            h ^= h >> 16
        if length % 4:
            h += words[-1]
            h *= mult
            h ^= h >> 24
        hashes.append(h)
    return _np.concatenate(hashes)


def hash_keys(keys: list[bytes]) -> array:
    """Every key's ``_leveldb_hash`` as an ``array('I')``, in no
    particular order."""
    if _np is not None and len(keys) >= _BULK_MIN_KEYS:
        return array("I", _hash_many(keys).tobytes())
    return array("I", map(_leveldb_hash, keys))


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
        return self.filter_from_hashes(hash_keys(list(keys)))

    def filter_from_hashes(self, hashes: array) -> bytes:
        """The filter over the keys whose :func:`hash_keys` these are."""
        bits = max(64, len(hashes) * self.bits_per_key)
        nbytes = (bits + 7) // 8
        bits = nbytes * 8
        if _np is not None and len(hashes) >= _BULK_MIN_KEYS:
            h = _np.frombuffer(hashes, dtype=_np.uint32)
            delta = (h >> 17) | (h << 15)
            bitmap = _np.zeros(bits, dtype=_np.uint8)
            for _ in range(self._k):  # one probe per key a round
                bitmap[h % _np.uint32(bits)] = 1
                h = h + delta
            return (_np.packbits(bitmap, bitorder="little").tobytes()
                    + bytes((self._k,)))
        bitmap = bytearray(nbytes)
        for h in hashes:
            delta = ((h >> 17) | (h << 15)) & _U32
            for _ in range(self._k):
                bit = h % bits
                bitmap[bit // 8] |= 1 << (bit % 8)
                h = (h + delta) & _U32
        bitmap.append(self._k)
        return bytes(bitmap)

    #: The one hash a lookup needs: compute it once per key, then probe
    #: every table's filter with :meth:`hash_may_match`.
    hash_key = staticmethod(_leveldb_hash)

    @staticmethod
    def geometry(filter_data: bytes) -> tuple[int, int]:
        """``(bits, k)`` for :meth:`probe`, read once per filter.  A stub
        under two bytes gets 0 bits (matches nothing); a reserved k > 30
        gets k = 0 (matches everything: err on returning true)."""
        if len(filter_data) < 2:
            return 0, 0
        k = filter_data[-1]
        return (len(filter_data) - 1) * 8, 0 if k > 30 else k

    @staticmethod
    def hash_may_match(h: int, filter_data: bytes) -> bool:
        """Probe with ``h = hash_key(key)``; ``True`` may be a false
        positive, ``False`` is definitive."""
        return BloomFilterPolicy.probe(
            h, filter_data, *BloomFilterPolicy.geometry(filter_data))

    @staticmethod
    def probe(h: int, filter_data: bytes, bits: int, k: int) -> bool:
        """:meth:`hash_may_match` with the filter's :meth:`geometry`
        already read."""
        if not bits:
            return False
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
