"""YCSB core workloads (paper Table IX).

==========  =====================================  =============
Workload    Mix                                    Distribution
==========  =====================================  =============
Load        100% insert                            ordered hash
A           50% read / 50% update                  zipfian
B           95% read / 5% update                   zipfian
C           100% read                              zipfian
D           95% read / 5% insert                   latest
E           95% scan / 5% insert                   zipfian
F           50% read / 50% read-modify-write       zipfian
==========  =====================================  =============

:class:`YcsbWorkload` is the declarative mix; :class:`YcsbWorkloadRunner`
generates concrete operations and can drive a real
:class:`~repro.lsm.db.LsmDB`.  The system simulator consumes only the
mix fractions (it models op *costs*, not op *bytes*).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Iterator, Optional

from repro.errors import InvalidArgumentError, NotFoundError
from repro.workloads.distributions import (
    LatestGenerator,
    ZipfianGenerator,
    fnv_hash64,
)


class YcsbOp(enum.Enum):
    READ = "read"
    UPDATE = "update"
    INSERT = "insert"
    SCAN = "scan"
    READ_MODIFY_WRITE = "rmw"


@dataclass(frozen=True)
class YcsbWorkload:
    """One row of the paper's Table IX."""

    name: str
    read_fraction: float = 0.0
    update_fraction: float = 0.0
    insert_fraction: float = 0.0
    scan_fraction: float = 0.0
    rmw_fraction: float = 0.0
    distribution: str = "zipfian"  # "zipfian" | "latest" | "uniform"
    max_scan_length: int = 100

    def __post_init__(self) -> None:
        total = (self.read_fraction + self.update_fraction
                 + self.insert_fraction + self.scan_fraction
                 + self.rmw_fraction)
        if abs(total - 1.0) > 1e-9:
            raise InvalidArgumentError(
                f"workload {self.name}: fractions sum to {total}, not 1")

    @property
    def write_fraction(self) -> float:
        """Fraction of operations that mutate the store (an RMW counts as
        one write, its read is accounted separately)."""
        return (self.update_fraction + self.insert_fraction
                + self.rmw_fraction)


YCSB_WORKLOADS: dict[str, YcsbWorkload] = {
    "load": YcsbWorkload("load", insert_fraction=1.0),
    "a": YcsbWorkload("a", read_fraction=0.5, update_fraction=0.5),
    "b": YcsbWorkload("b", read_fraction=0.95, update_fraction=0.05),
    "c": YcsbWorkload("c", read_fraction=1.0),
    "d": YcsbWorkload("d", read_fraction=0.95, insert_fraction=0.05,
                      distribution="latest"),
    "e": YcsbWorkload("e", scan_fraction=0.95, insert_fraction=0.05),
    "f": YcsbWorkload("f", read_fraction=0.5, rmw_fraction=0.5),
}


def ycsb_key(item: int, key_length: int = 16) -> bytes:
    """YCSB-style key: ``user`` + zero-padded hashed id."""
    digits = max(1, key_length - 4)
    return b"user" + str(fnv_hash64(item) % 10 ** digits).zfill(digits).encode()


class YcsbWorkloadRunner:
    """Generates operations for one workload and optionally applies them
    to a database exposing ``put/get/scan``."""

    def __init__(self, workload: YcsbWorkload, record_count: int,
                 key_length: int = 16, value_length: int = 1024,
                 seed: int = 1):
        if record_count <= 0:
            raise InvalidArgumentError("record_count must be positive")
        self.workload = workload
        self.record_count = record_count
        self.key_length = key_length
        self.value_length = value_length
        import random
        self._random = random.Random(seed)
        self._inserted = record_count
        if workload.distribution == "latest":
            self._chooser = LatestGenerator(record_count, seed=seed)
        elif workload.distribution == "uniform":
            from repro.workloads.distributions import UniformGenerator
            self._chooser = UniformGenerator(record_count, seed=seed)
        else:
            self._chooser = ZipfianGenerator(record_count, seed=seed)

    def _value(self, item: int) -> bytes:
        pattern = f"v{item:x}-".encode()
        reps = self.value_length // len(pattern) + 1
        return (pattern * reps)[:self.value_length]

    def key_for(self, item: int) -> bytes:
        return ycsb_key(item, self.key_length)

    def load_ops(self) -> Iterator[tuple[YcsbOp, bytes, bytes]]:
        """The initial 100%-insert load phase."""
        for item in range(self.record_count):
            yield YcsbOp.INSERT, self.key_for(item), self._value(item)

    def _choose_op(self) -> YcsbOp:
        w = self.workload
        r = self._random.random()
        for fraction, op in ((w.read_fraction, YcsbOp.READ),
                             (w.update_fraction, YcsbOp.UPDATE),
                             (w.insert_fraction, YcsbOp.INSERT),
                             (w.scan_fraction, YcsbOp.SCAN),
                             (w.rmw_fraction, YcsbOp.READ_MODIFY_WRITE)):
            if r < fraction:
                return op
            r -= fraction
        return YcsbOp.READ

    def transactions(self, op_count: int
                     ) -> Iterator[tuple[YcsbOp, bytes, Optional[bytes], int]]:
        """Yield ``(op, key, value_or_None, scan_length)``."""
        for _ in range(op_count):
            op = self._choose_op()
            if op is YcsbOp.INSERT:
                if isinstance(self._chooser, LatestGenerator):
                    item = self._chooser.record_insert()
                else:
                    item = self._inserted
                self._inserted += 1
                yield op, self.key_for(item), self._value(item), 0
                continue
            item = self._chooser.next() % max(1, self._inserted)
            key = self.key_for(item)
            if op in (YcsbOp.UPDATE, YcsbOp.READ_MODIFY_WRITE):
                yield op, key, self._value(item), 0
            elif op is YcsbOp.SCAN:
                length = 1 + self._random.randrange(
                    self.workload.max_scan_length)
                yield op, key, None, length
            else:
                yield op, key, None, 0

    # ------------------------------------------------------------------
    # Driving a real database
    # ------------------------------------------------------------------

    def load(self, db) -> int:
        """Apply the load phase; returns records written."""
        count = 0
        for _, key, value in self.load_ops():
            db.put(key, value)
            count += 1
        return count

    def run(self, db, op_count: int) -> dict[str, int]:
        """Apply ``op_count`` transactions; returns op counters."""
        counters = {op.value: 0 for op in YcsbOp}
        counters["not_found"] = 0
        for op, key, value, scan_len in self.transactions(op_count):
            if op in (YcsbOp.INSERT, YcsbOp.UPDATE):
                db.put(key, value)
            elif op is YcsbOp.READ:
                try:
                    db.get(key)
                except NotFoundError:
                    counters["not_found"] += 1
            elif op is YcsbOp.SCAN:
                taken = 0
                for _ in db.scan(start=key):
                    taken += 1
                    if taken >= scan_len:
                        break
            else:  # read-modify-write
                try:
                    db.get(key)
                except NotFoundError:
                    counters["not_found"] += 1
                db.put(key, value)
            counters[op.value] += 1
        return counters
