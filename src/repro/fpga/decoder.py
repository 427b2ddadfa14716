"""Decoder chain: Index Block Decoder + Data Block Decoder (paper §V-A/B).

One chain exists per engine input.  The **Index Block Decoder** walks an
input's index blocks (one per SSTable) and emits data-block descriptors
(offset, size); the **Data Block Decoder** issues one large DRAM read per
data block, streams it through the input's Stream Downsizer, Snappy-
decompresses it and emits decoded (internal key, value) pairs into the
input's key/value FIFOs.  The functional model hands the engine the
whole decoded block at once; the per-pair FIFO timing is the
:class:`repro.fpga.pipeline_sim.PipelineTimer`'s.

The two are split ("Decoder Separation", §V-B1) so the index walk is
hidden behind data-block decoding; what that saves over the basic
single-read-pointer variant, where the index fetch stalls the stream, is
charged by :class:`repro.fpga.pipeline_sim.PipelineTimer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ge
from typing import Iterator, NamedTuple

from repro.errors import FpgaProtocolError
from repro.fpga.dram import Dram
from repro.lsm.block import Block, BlockBuilder
from repro.lsm.env import RandomAccessFile
from repro.lsm.internal import InternalKeyComparator
from repro.lsm.sstable import (
    BLOCK_TRAILER_SIZE,
    BlockHandle,
    TableReader,
    _read_block,
)


@dataclass(frozen=True)
class SSTableLayout:
    """Where one input SSTable lives in device memory.

    ``index_offset``/``index_size`` locate the (already extracted) index
    block image; ``data_offset`` is the base the index block's handles are
    relative to.  This mirrors the separated Index/Data Block Memory of
    the paper's Fig 7.
    """

    index_offset: int
    index_size: int
    data_offset: int
    data_size: int


def extract_index_image(reader: TableReader) -> bytes:
    """Rebuild a standalone index block image for Index Block Memory
    from ``reader``'s decoded index."""
    builder = BlockBuilder(1)
    for key, handle in reader.index_entries():
        builder.add(key, handle.encode())
    return builder.finish()


class DecodedBlock(NamedTuple):
    """One data block leaving a Decoder: its pairs as parallel arrays."""

    keys: tuple[bytes, ...]     # internal keys, in stored order
    values: tuple[bytes, ...]
    sort_keys: list             # the comparator's ``sort_key`` of each key
    fetched: int                # bytes read from DRAM: payload + trailer


class IndexBlockDecoder:
    """Walks an input's SSTables and yields data-block descriptors."""

    def __init__(self, dram: Dram, tables: list[SSTableLayout]):
        self._dram = dram
        self._tables = tables
        self.blocks_decoded = 0

    def __iter__(self) -> Iterator[tuple[SSTableLayout, BlockHandle]]:
        for table in self._tables:
            image = self._dram.read(table.index_offset, table.index_size)
            for _, handle_bytes in Block(image):
                handle, _ = BlockHandle.decode(handle_bytes, 0)
                self.blocks_decoded += 1
                yield table, handle


class DataBlockDecoder:
    """Fetches, checks, decompresses and parses data blocks."""

    def __init__(self, dram: Dram):
        self._dram = dram

    def decode_block(self, table: SSTableLayout,
                     handle: BlockHandle) -> list[tuple[bytes, bytes]]:
        """One DRAM read: the block's ``(internal key, value)`` pairs."""
        length = handle.size + BLOCK_TRAILER_SIZE
        if handle.offset + length > table.data_size:
            raise FpgaProtocolError("data block handle outside input region")
        raw = self._dram.read(table.data_offset + handle.offset, length)
        return list(Block(_read_block(
            RandomAccessFile(raw), BlockHandle(0, handle.size))))


class DecoderChain:
    """Functional composition: index walk feeding block decode.

    Yields one :class:`DecodedBlock` per DRAM read, with each key's
    ``comparator.sort_key`` computed once; the engine's Comparer works on
    those.  The stream must be strictly increasing across blocks and
    tables."""

    def __init__(self, dram: Dram, tables: list[SSTableLayout],
                 comparator: InternalKeyComparator):
        self.index_decoder = IndexBlockDecoder(dram, tables)
        self.data_decoder = DataBlockDecoder(dram)
        self._sort_key = comparator.sort_key

    def __iter__(self) -> Iterator[DecodedBlock]:
        sort_key = self._sort_key
        last = None
        for table, handle in self.index_decoder:
            pairs = self.data_decoder.decode_block(table, handle)
            if not pairs:
                continue
            keys, values = zip(*pairs)
            sort_keys = list(map(sort_key, keys))
            if ((last is not None and sort_keys[0] <= last)
                    or any(map(ge, sort_keys, sort_keys[1:]))):
                raise FpgaProtocolError("input SSTable stream is not sorted")
            last = sort_keys[-1]
            yield DecodedBlock(keys, values, sort_keys,
                               handle.size + BLOCK_TRAILER_SIZE)
