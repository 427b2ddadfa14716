"""db_bench equivalent — LevelDB's built-in benchmark workloads.

Generates the key/value streams of the db_bench modes the paper uses
(``fillrandom`` is the write-throughput workload of §VII-B2/C) and can
drive a real :class:`~repro.lsm.db.LsmDB`.  Keys follow db_bench's
convention: 16-byte zero-padded decimal of a (random or sequential)
integer in ``[0, num_entries)``; values compress to about half, like
db_bench's default ``compression_ratio``.
"""

from __future__ import annotations

import enum
import hashlib
import random
from typing import Iterator

from repro.errors import InvalidArgumentError


class FillMode(enum.Enum):
    SEQUENTIAL = "fillseq"
    RANDOM = "fillrandom"


class DbBench:
    """Workload generator bound to one (num_entries, key/value geometry)."""

    def __init__(self, num_entries: int, key_length: int = 16,
                 value_length: int = 128, seed: int = 301):
        if num_entries <= 0:
            raise InvalidArgumentError("num_entries must be positive")
        if key_length < 8:
            raise InvalidArgumentError("key_length must be >= 8")
        self.num_entries = num_entries
        self.key_length = key_length
        self.value_length = value_length
        self._random = random.Random(seed)

    def key_for(self, index: int) -> bytes:
        digits = str(index % self.num_entries).zfill(self.key_length)
        return digits[-self.key_length:].encode()

    def value_for(self, index: int) -> bytes:
        """Half per-index noise, half one repeated byte: snappy keeps
        about 0.55 of a block of these."""
        noise = self.value_length // 2
        return (hashlib.shake_128(str(index).encode()).digest(noise)
                + bytes([index % 251]) * (self.value_length - noise))

    # ------------------------------------------------------------------
    # Streams
    # ------------------------------------------------------------------

    def fill(self, mode: FillMode = FillMode.RANDOM
             ) -> Iterator[tuple[bytes, bytes]]:
        """``num_entries`` puts, sequential or random order."""
        for i in range(self.num_entries):
            index = (i if mode is FillMode.SEQUENTIAL
                     else self._random.randrange(self.num_entries))
            yield self.key_for(index), self.value_for(index)

    # ------------------------------------------------------------------
    # Driving a real database
    # ------------------------------------------------------------------

    def run_fill(self, db, mode: FillMode = FillMode.RANDOM) -> int:
        """Apply the fill; returns user bytes written."""
        written = 0
        for key, value in self.fill(mode):
            db.put(key, value)
            written += len(key) + len(value)
        return written

    @property
    def user_bytes(self) -> int:
        """Total payload of one fill pass."""
        return self.num_entries * (self.key_length + self.value_length)
