"""Decoder chain: Index Block Decoder + Data Block Decoder (paper §V-A/B).

One chain exists per engine input.  The **Index Block Decoder** walks an
input's index blocks (one per SSTable) and emits data-block descriptors
(offset, size); the **Data Block Decoder** issues one large DRAM read per
data block, streams it through the input's Stream Downsizer, Snappy-
decompresses it and emits decoded (internal key, value) pairs into the
input's key/value FIFOs.

The two are split ("Decoder Separation", §V-B1) so the index walk is
hidden behind data-block decoding; what that saves over the basic
single-read-pointer variant, where the index fetch stalls the stream, is
charged by :class:`repro.fpga.pipeline_sim.PipelineTimer`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from repro.errors import FpgaProtocolError
from repro.fpga.dram import Dram
from repro.lsm.block import Block, BlockBuilder
from repro.lsm.sstable import (
    BLOCK_TRAILER_SIZE,
    BlockHandle,
    TableReader,
    _read_block,
)
from repro.util.comparator import Comparator


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


def extract_index_image(image: bytes, reader: TableReader) -> bytes:
    """Rebuild a standalone index block image for Index Block Memory
    from ``reader``, the table over ``image``."""
    builder = BlockBuilder(1)
    for key, handle in reader.index_entries():
        builder.add(key, handle.encode())
    return builder.finish()


@dataclass(slots=True)
class DecodedPair:
    """One key-value pair leaving a Decoder."""

    internal_key: bytes
    value: bytes
    new_block: bool        # first pair of a data block (DRAM fetch happened)
    block_compressed_size: int


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
    """Fetches, decompresses and parses data blocks into pairs."""

    def __init__(self, dram: Dram, verify_checksums: bool = True):
        self._dram = dram
        self._verify = verify_checksums
        self.pairs_decoded = 0
        self.bytes_fetched = 0

    def decode_block(self, table: SSTableLayout,
                     handle: BlockHandle) -> Iterator[DecodedPair]:
        start = table.data_offset + handle.offset
        length = handle.size + BLOCK_TRAILER_SIZE
        if handle.offset + length > table.data_size:
            raise FpgaProtocolError("data block handle outside input region")
        raw = self._dram.read(start, length)
        self.bytes_fetched += length
        contents = _read_block(raw, BlockHandle(0, handle.size), self._verify)
        first = True
        for key, value in Block(contents):
            self.pairs_decoded += 1
            yield DecodedPair(
                internal_key=key,
                value=value,
                new_block=first,
                block_compressed_size=length,
            )
            first = False


class DecoderChain:
    """Functional composition: index walk feeding block decode."""

    def __init__(self, dram: Dram, tables: list[SSTableLayout],
                 comparator: Comparator | None = None):
        self.index_decoder = IndexBlockDecoder(dram, tables)
        self.data_decoder = DataBlockDecoder(dram)
        self._sort_key = (comparator.sort_key if comparator is not None
                          else None)

    def __iter__(self) -> Iterator[DecodedPair]:
        sort_key = self._sort_key
        last = None
        for table, handle in self.index_decoder:
            for pair in self.data_decoder.decode_block(table, handle):
                if sort_key is not None:
                    order = sort_key(pair.internal_key)
                    if last is not None and order <= last:
                        raise FpgaProtocolError(
                            "input SSTable stream is not sorted")
                    last = order
                yield pair
