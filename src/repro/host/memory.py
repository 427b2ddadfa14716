"""Device memory interface — the paper's Figs 7 and 8.

Device DRAM is partitioned into an **Input Memory** and an **Output
Memory**, each made of three regions:

* **MetaIn Memory** (input side): per input, the number of SSTables and,
  per SSTable, the offsets/sizes of its index block and first data block
  within the corresponding regions;
* **Index Block Memory**: the extracted index blocks, stored
  consecutively (the separated Index Block Decoder walks these);
* **Data Block Memory**: SSTable data regions, aligned to ``W_in`` bytes
  so AXI reads run full-width (outputs are ``W_out``-aligned).

* **MetaOut Memory** (output side): number of generated SSTables and,
  per table, its size and smallest/largest internal keys — what the host
  needs for "compaction post processing jobs (e.g. recording key range)".

Wire encodings are fixed-width little-endian plus length-prefixed keys so
a host and device disagreeing about Python object layouts is impossible —
everything crossing PCIe is bytes.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FpgaProtocolError
from repro.fpga.config import FpgaConfig
from repro.fpga.decoder import SSTableLayout, extract_index_image
from repro.fpga.dram import Dram
from repro.lsm.sstable import TableReader
from repro.util.coding import (
    decode_fixed32,
    decode_fixed64,
    encode_fixed32,
    encode_fixed64,
    get_length_prefixed_slice,
    put_length_prefixed_slice,
)


def align_up(offset: int, alignment: int) -> int:
    """Round ``offset`` up to a multiple of ``alignment``."""
    if alignment <= 0:
        raise FpgaProtocolError(f"bad alignment {alignment}")
    return offset + (-offset) % alignment


@dataclass(frozen=True)
class MetaInEntry:
    """One SSTable's placement, as recorded in MetaIn."""

    index_offset: int
    index_size: int
    data_offset: int
    data_size: int


def encode_meta_in(inputs: list[list[MetaInEntry]]) -> bytes:
    """MetaIn Memory image: per input, SSTable count + placements."""
    out = bytearray()
    out += encode_fixed32(len(inputs))
    for tables in inputs:
        out += encode_fixed32(len(tables))
        for entry in tables:
            out += encode_fixed64(entry.index_offset)
            out += encode_fixed64(entry.index_size)
            out += encode_fixed64(entry.data_offset)
            out += encode_fixed64(entry.data_size)
    return bytes(out)


def decode_meta_in(data: bytes) -> list[list[MetaInEntry]]:
    """Inverse of :func:`encode_meta_in`."""
    num_inputs = decode_fixed32(data, 0)
    pos = 4
    inputs: list[list[MetaInEntry]] = []
    for _ in range(num_inputs):
        count = decode_fixed32(data, pos)
        pos += 4
        tables = []
        for _ in range(count):
            values = [decode_fixed64(data, pos + 8 * i) for i in range(4)]
            pos += 32
            tables.append(MetaInEntry(*values))
        inputs.append(tables)
    return inputs


@dataclass(frozen=True)
class MetaOutEntry:
    """One generated SSTable's summary, as recorded in MetaOut."""

    data_size: int
    smallest_key: bytes
    largest_key: bytes


def encode_meta_out(entries: list[MetaOutEntry]) -> bytes:
    """MetaOut Memory image."""
    out = bytearray()
    out += encode_fixed32(len(entries))
    for entry in entries:
        out += encode_fixed64(entry.data_size)
        put_length_prefixed_slice(out, entry.smallest_key)
        put_length_prefixed_slice(out, entry.largest_key)
    return bytes(out)


def decode_meta_out(data: bytes) -> list[MetaOutEntry]:
    """Inverse of :func:`encode_meta_out`."""
    count = decode_fixed32(data, 0)
    pos = 4
    entries = []
    for _ in range(count):
        size = decode_fixed64(data, pos)
        pos += 8
        smallest, pos = get_length_prefixed_slice(data, pos)
        largest, pos = get_length_prefixed_slice(data, pos)
        entries.append(MetaOutEntry(size, smallest, largest))
    return entries


@dataclass
class InputMemoryImage:
    """Everything the host DMA-writes before starting the kernel."""

    meta_in: bytes
    layouts: list[list[SSTableLayout]]
    total_bytes: int
    meta_in_offset: int


def marshal_inputs(dram: Dram, config: FpgaConfig,
                   inputs: list[list[TableReader]]) -> InputMemoryImage:
    """Lay out input SSTables in device DRAM per Fig 7/8.

    Returns the engine-consumable layouts plus the DMA byte count.
    Raises :class:`FpgaProtocolError` when more inputs arrive than the
    engine has Decoder chains.
    """
    if len(inputs) > config.num_inputs:
        raise FpgaProtocolError(
            f"{len(inputs)} inputs exceed engine N={config.num_inputs}")

    index_images: list[list[bytes]] = [
        [extract_index_image(reader) for reader in tables]
        for tables in inputs]

    # Region sizing: [MetaIn][Index Block Memory][Data Block Memory].
    meta_entries: list[list[MetaInEntry]] = []
    layouts: list[list[SSTableLayout]] = []

    index_cursor = 0
    index_total = sum(len(img) for imgs in index_images for img in imgs)
    data_cursor = align_up(index_total + 4096, config.w_in)

    total_dma = 0
    for tables, images in zip(inputs, index_images):
        table_entries = []
        table_layouts = []
        for reader, index_image in zip(tables, images):
            # One read of the table (a whole-file pread when the reader
            # is file-backed); DRAM keeps it by reference.
            image = reader.image
            data_cursor = align_up(data_cursor, config.w_in)
            dram.write(data_cursor, image)
            dram.write(index_cursor, index_image)
            total_dma += len(image) + len(index_image)
            layout = SSTableLayout(
                index_offset=index_cursor,
                index_size=len(index_image),
                data_offset=data_cursor,
                data_size=len(image),
            )
            table_layouts.append(layout)
            table_entries.append(MetaInEntry(
                index_offset=index_cursor,
                index_size=len(index_image),
                data_offset=data_cursor,
                data_size=len(image),
            ))
            index_cursor += len(index_image)
            data_cursor += len(image)
        meta_entries.append(table_entries)
        layouts.append(table_layouts)

    meta_in = encode_meta_in(meta_entries)
    meta_in_offset = align_up(data_cursor, config.w_in)
    dram.write(meta_in_offset, meta_in)
    total_dma += len(meta_in)

    return InputMemoryImage(
        meta_in=meta_in,
        layouts=layouts,
        total_bytes=total_dma,
        meta_in_offset=meta_in_offset,
    )


def write_outputs(dram: Dram, config: FpgaConfig, outputs,
                  base_offset: int) -> tuple[bytes, int]:
    """Store generated tables and MetaOut in the Output Memory region.

    Returns ``(meta_out_image, total_output_bytes)``.
    """
    cursor = align_up(base_offset, config.w_out)
    entries = []
    total = 0
    for output in outputs:
        cursor = align_up(cursor, config.w_out)
        dram.write(cursor, output.data)
        entries.append(MetaOutEntry(
            data_size=len(output.data),
            smallest_key=output.smallest,
            largest_key=output.largest,
        ))
        cursor += len(output.data)
        total += len(output.data)
    meta_out = encode_meta_out(entries)
    dram.write(cursor, meta_out)
    return meta_out, total + len(meta_out)
