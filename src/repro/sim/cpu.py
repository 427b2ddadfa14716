"""CPU cost model, calibrated to the paper's measured baseline.

The paper's Table V reports a single i7-8700K thread compacting at
5.3-14.8 MB/s depending on value length.  Working backwards, one merged
pair costs

    t_pair = fixed + heap * (ceil(log2 N) - 1) + per_byte * bytes
             (+ a cache-pressure surcharge on value bytes beyond 1 KB)

and a two-point fit to the L_value = 64 and 2048 rows gives
``fixed = 10.4 us`` and ``per_byte = 70.2 ns`` — which then predicts the
four interior rows within ~15% (the L=1024 row, where the paper's CPU has
a local peak, is the worst).  The >1 KB surcharge reproduces the paper's
observation that CPU compaction *slows down* from L=1024 to L=2048
("even for CPU ... the value data movement also degrades the compaction
performance").

The same model prices the other CPU work the system simulator needs:
memtable inserts, WAL appends, flush encoding, and the host-side
marshalling around an FPGA offload.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: File bytes per pair beyond key and value (varint lengths, restarts).
PAIR_OVERHEAD_BYTES = 4


@dataclass(frozen=True)
class CpuCostModel:
    """Per-operation CPU timings (seconds)."""

    #: Fixed merge cost per pair: decode varints, heap pop/push, branchy
    #: restart-point bookkeeping, encode.
    merge_fixed_per_pair: float = 10.4e-6
    #: Streaming cost per byte moved through decode/compare/encode.
    merge_per_byte: float = 70.2e-9
    #: Extra cost per additional level of merge fan-in: heap sifts,
    #: branch misses and key traffic in an L0-style many-way merge.
    merge_heap_level: float = 5.0e-6
    #: Cache-pressure surcharge on value bytes beyond this threshold.
    cache_knee_bytes: int = 1024
    cache_surcharge: float = 0.15
    #: Memtable skiplist insert: fixed + per-byte copy.
    memtable_insert_fixed: float = 1.2e-6
    memtable_insert_per_byte: float = 2.0e-9
    #: WAL append (buffered, no fsync per record).
    wal_append_fixed: float = 0.6e-6
    wal_append_per_byte: float = 1.0e-9
    #: Flush encoding (memtable -> L0 table): sequential, snappy.
    flush_per_byte: float = 5.0e-9
    #: Client-read slowdown when the background merge saturates its core
    #: (shared LLC/memory bandwidth) — the paper's "main threads could be
    #: slowed down" effect; applied per unit of merge-core utilization.
    read_contention_factor: float = 0.15
    #: Host-side bookkeeping around one FPGA offload (task setup, meta
    #: marshalling, result installation) — excludes PCIe and disk I/O.
    offload_fixed: float = 150e-6
    offload_per_byte: float = 0.8e-9
    #: In-tree LevelDB compaction cost (per pair / per byte).  NOTE: the
    #: paper's Table V CPU column (5-13 MB/s) comes from its extracted
    #: single-thread comparison harness and is mutually inconsistent with
    #: its own end-to-end LevelDB throughput (~2.5 MB/s at write
    #: amplification ~25 requires ~65 MB/s of merge bandwidth).  The
    #: system simulator therefore prices *in-system* software compaction
    #: with these separately calibrated constants (~60-66 MB/s, nearly
    #: value-length-neutral), while the Table V / Fig 9/12/13 benchmarks
    #: keep the harness constants above.  Recorded in EXPERIMENTS.md.
    system_merge_fixed_per_pair: float = 0.3e-6
    system_merge_per_byte: float = 28.0e-9
    #: Point-read CPU work: memtable probe, bloom filters, index search.
    read_fixed: float = 8.0e-6
    #: Decoding one cached data block entry (prefix-restart scan).
    read_block_decode: float = 6.0e-6
    #: Advancing a scan iterator by one entry.
    scan_next_entry: float = 1.5e-6

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def merge_pair_seconds(self, key_length: int, value_length: int,
                           num_inputs: int = 2) -> float:
        """Cost for one pair through the software merge."""
        pair_bytes = key_length + value_length
        cost = self.merge_fixed_per_pair + self.merge_per_byte * pair_bytes
        fanin_levels = max(1, math.ceil(math.log2(max(2, num_inputs))))
        cost += self.merge_heap_level * (fanin_levels - 1)
        overflow = max(0, value_length - self.cache_knee_bytes)
        cost += self.merge_per_byte * self.cache_surcharge * overflow
        return cost

    def compaction_speed_mbps(self, user_key_length: int, value_length: int,
                              num_inputs: int = 2) -> float:
        """The paper's metric for the CPU baseline (Table V column 1)."""
        pair_file_bytes = user_key_length + value_length + PAIR_OVERHEAD_BYTES
        seconds = self.merge_pair_seconds(user_key_length + 8, value_length,
                                          num_inputs)
        return pair_file_bytes / seconds / 1e6

    def compaction_seconds(self, input_bytes: int, user_key_length: int,
                           value_length: int, num_inputs: int = 2) -> float:
        """Time to software-compact ``input_bytes`` in the *harness*
        model (Table V calibration)."""
        speed = self.compaction_speed_mbps(user_key_length, value_length,
                                           num_inputs)
        return input_bytes / (speed * 1e6)

    def system_merge_speed_mbps(self, user_key_length: int,
                                value_length: int) -> float:
        """In-tree LevelDB compaction bandwidth (see the calibration note
        on ``system_merge_per_byte``)."""
        pair_file_bytes = user_key_length + value_length + PAIR_OVERHEAD_BYTES
        pair_bytes = user_key_length + 8 + value_length
        seconds = (self.system_merge_fixed_per_pair
                   + self.system_merge_per_byte * pair_bytes)
        return pair_file_bytes / seconds / 1e6

    def system_compaction_seconds(self, input_bytes: int,
                                  user_key_length: int,
                                  value_length: int) -> float:
        """Time for LevelDB's own background thread to compact
        ``input_bytes``."""
        speed = self.system_merge_speed_mbps(user_key_length, value_length)
        return input_bytes / (speed * 1e6)

    # ------------------------------------------------------------------
    # Foreground write path
    # ------------------------------------------------------------------

    def write_seconds(self, key_length: int, value_length: int) -> float:
        """One put: WAL append + memtable insert."""
        nbytes = key_length + value_length
        return (self.wal_append_fixed + self.wal_append_per_byte * nbytes
                + self.memtable_insert_fixed
                + self.memtable_insert_per_byte * nbytes)

    def flush_seconds(self, memtable_bytes: int) -> float:
        """Encode an immutable memtable into an L0 table (CPU part)."""
        return memtable_bytes * self.flush_per_byte

    def offload_seconds(self, input_bytes: int) -> float:
        """Host CPU overhead of dispatching one FPGA compaction."""
        return self.offload_fixed + self.offload_per_byte * input_bytes

    def read_hit_seconds(self) -> float:
        """Point read served from cache."""
        return self.read_fixed + self.read_block_decode

    def scan_seconds(self, entries: int) -> float:
        """CPU part of a range scan of ``entries`` (I/O priced by the
        disk model)."""
        return self.read_fixed + entries * self.scan_next_entry
