"""Encoder: Data Block Encoder + Index Block Encoder (paper §V-A/B2).

Surviving pairs are re-encoded into standard SSTables: the **Data Block
Encoder** prefix-compresses keys into 4 KB data blocks (Snappy-compressed
on flush) and streams them to DRAM through the Stream Upsizer; the
**Index Block Encoder** appends one (separator key, block handle) entry
per flushed data block.  With Encoder Separation the index entries go to
DRAM as they are produced instead of parking in BRAM until the table
closes; the host later splices index and data regions into the standard
file layout (its job per §V-B2).

An SSTable closes when its accumulated data size crosses the 2 MB target;
the encoder then records the table's smallest/largest keys for MetaOut
and resets for the next table.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fpga.config import FpgaConfig, PipelineVariant
from repro.lsm.compaction import OutputTable, _BufferFile
from repro.lsm.internal import InternalKeyComparator
from repro.lsm.options import Options
from repro.lsm.sstable import TableBuilder


@dataclass
class EncoderStats:
    """Counters for one engine run."""

    pairs_encoded: int = 0
    blocks_flushed: int = 0
    tables_completed: int = 0
    data_bytes_out: int = 0
    index_bytes_out: int = 0
    # BRAM high-water for the buffered index block (bytes); with Encoder
    # Separation this stays one entry deep.
    index_bram_high_water: int = 0


class Encoder:
    """Builds output SSTables from the Transfer module's Keep stream.

    The functional output is bit-identical to the CPU path's — both use
    :class:`TableBuilder` — which is what lets the engine slot under an
    unmodified LevelDB ("no modifications on the original storage
    format").
    """

    def __init__(self, options: Options, comparator: InternalKeyComparator,
                 config: FpgaConfig):
        self._options = options
        self._comparator = comparator
        self._config = config
        self.stats = EncoderStats()
        self.outputs: list[OutputTable] = []
        self._dest: _BufferFile | None = None
        self._builder: TableBuilder | None = None
        self._blocks_before = 0

    def add(self, internal_key: bytes, value: bytes) -> dict:
        """Encode one pair; returns timing-relevant events:
        ``{"block_flushed": bool, "table_completed": bool,
        "block_bytes": int}``."""
        if self._builder is None:
            self._dest = _BufferFile()
            self._builder = TableBuilder(self._options, self._dest,
                                         self._comparator)
            self._blocks_before = 0
        size_before = self._builder.file_size
        self._builder.add(internal_key, value)
        self.stats.pairs_encoded += 1
        events = {"block_flushed": False, "table_completed": False,
                  "block_bytes": 0}
        blocks_now = self._builder.stats.num_data_blocks
        if blocks_now > self._blocks_before:
            events["block_flushed"] = True
            events["block_bytes"] = self._builder.file_size - size_before
            self.stats.blocks_flushed += 1
            self._blocks_before = blocks_now
            if self._config.variant is PipelineVariant.BASIC:
                # Basic design parks the whole index block in BRAM.
                self.stats.index_bram_high_water = max(
                    self.stats.index_bram_high_water, 32 * blocks_now)
            else:
                self.stats.index_bram_high_water = max(
                    self.stats.index_bram_high_water, 32)
        if self._builder.file_size >= self._options.sstable_size:
            self._finish_table()
            events["table_completed"] = True
        return events

    def _finish_table(self) -> None:
        if self._builder is None or self._builder.smallest_key is None:
            self._dest = self._builder = None
            return
        table_stats = self._builder.finish()
        self.outputs.append(OutputTable(
            data=bytes(self._dest.data),
            smallest=self._builder.smallest_key,
            largest=self._builder.largest_key,
            stats=table_stats,
        ))
        self.stats.tables_completed += 1
        self.stats.data_bytes_out += table_stats.data_bytes
        self.stats.index_bytes_out += table_stats.index_bytes
        self._dest = self._builder = None

    def finish(self) -> list[OutputTable]:
        """Close the trailing table and return all outputs."""
        self._finish_table()
        return self.outputs

