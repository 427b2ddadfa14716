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

from repro.lsm.compaction import OutputTable, _BufferFile
from repro.lsm.internal import InternalKeyComparator
from repro.lsm.options import Options
from repro.lsm.sstable import TableBuilder


class Encoder:
    """Builds output SSTables from the Transfer module's Keep stream.

    The functional output is bit-identical to the CPU path's — both use
    :class:`TableBuilder` — which is what lets the engine slot under an
    unmodified LevelDB ("no modifications on the original storage
    format").
    """

    def __init__(self, options: Options, comparator: InternalKeyComparator):
        self._options = options
        self._comparator = comparator
        self.outputs: list[OutputTable] = []
        self._dest: _BufferFile | None = None
        self._builder: TableBuilder | None = None

    def add(self, internal_key: bytes, value: bytes) -> int:
        """Encode one pair; returns the bytes of the data block it
        flushed, 0 when none."""
        builder = self._builder
        if builder is None:
            self._dest = _BufferFile()
            builder = self._builder = TableBuilder(
                self._options, self._dest, self._comparator)
        size = builder.file_size
        builder.add(internal_key, value)
        # The file grows only when a block is written.
        flushed = builder.file_size - size
        if flushed and builder.file_size >= self._options.sstable_size:
            self._finish_table()
        return flushed

    def _finish_table(self) -> None:
        if self._builder is None or self._builder.smallest_key is None:
            self._dest = self._builder = None
            return
        table_stats = self._builder.finish()
        self.outputs.append(OutputTable(
            data=self._dest.getvalue(),
            smallest=self._builder.smallest_key,
            largest=self._builder.largest_key,
            stats=table_stats,
        ))
        self._dest = self._builder = None

    def finish(self) -> list[OutputTable]:
        """Close the trailing table and return all outputs."""
        self._finish_table()
        return self.outputs
