"""SSTable (sorted string table) builder and reader.

File layout (LevelDB's ``table_format.md``):

    [data block 0]            each block: payload | type byte | masked CRC32C
    ...
    [data block n-1]
    [filter block]            whole-table bloom filter (see note)
    [metaindex block]         maps "filter.<policy>" -> filter handle
    [index block]             separator key -> data-block handle
    [footer]                  metaindex handle, index handle, magic

The *index block* is the structure the paper's §II-B describes: a run of
key/value pairs where each key separates two adjacent data blocks and each
value records that block's offset and size.  The FPGA Index Block Decoder
parses exactly these entries.

Note: LevelDB shards its filter block per 2 KB of file offset; this
implementation stores one whole-table filter, which has identical
may-match semantics for point lookups and simpler geometry.  Recorded as a
deviation in DESIGN.md.
"""

from __future__ import annotations

import io
import json
import struct
from array import array
from bisect import bisect_left
from dataclasses import astuple, dataclass
from itertools import chain, starmap
from typing import Callable, Iterable, Iterator, Optional

from repro.compress import snappy
from repro.compress.encoder import block_encoder
from repro.errors import CorruptionError, InvalidArgumentError
from repro.lsm.block import Block, BlockBuilder
from repro.lsm.cache import LRUCache
from repro.lsm.env import RandomAccessFile, WritableFile
from repro.lsm.filter import BloomFilterPolicy, hash_keys
from repro.lsm.internal import MARK_FIELDS_SIZE, InternalKeyComparator
from repro.lsm.options import Options
from repro.util.coding import decode_fixed32, encode_fixed32
from repro.util.comparator import BytewiseComparator
from repro.util.crc32c import crc32c, mask_crc, unmask_crc
from repro.util.varint import VarintCursor, decode_varint32, encode_varint64

TABLE_MAGIC = 0xDB4775248B80FB57
FOOTER_SIZE = 48
BLOCK_TRAILER_SIZE = 5

COMPRESSION_NONE = 0
COMPRESSION_SNAPPY = 1

#: A table builder hashes its filter keys this many at a time: one numpy
#: call per batch, not per block (a 28-key call costs 8x its share of a
#: whole table's), and a few dozen KB of keys held, not the table's.
_FILTER_HASH_BATCH = 1024


@dataclass(frozen=True, slots=True)
class BlockHandle:
    """Pointer to a block: file offset and payload size (trailer excluded)."""

    offset: int
    size: int

    def encode(self) -> bytes:
        return encode_varint64(self.offset) + encode_varint64(self.size)

    @staticmethod
    def decode(buf: bytes, pos: int = 0) -> tuple["BlockHandle", int]:
        cursor = VarintCursor(buf, pos)
        offset = cursor.next64()
        size = cursor.next64()
        return BlockHandle(offset, size), cursor.pos


@dataclass
class TableStats:
    """Size accounting produced by :class:`TableBuilder`."""

    num_entries: int = 0
    num_data_blocks: int = 0
    raw_key_bytes: int = 0
    raw_value_bytes: int = 0
    data_bytes: int = 0          # compressed, with trailers
    index_bytes: int = 0
    file_bytes: int = 0


class _BufferFile(io.BytesIO):
    """Minimal in-memory WritableFile for building table images.
    ``getvalue()`` hands the image over without copying it (CPython's
    ``BytesIO`` gives up its buffer), so a finished table is held once."""

    append = io.BytesIO.write


class BlockCutter:
    """Cuts sorted entries into raw data blocks: the one place that checks
    keys strictly increase, applies the ``block_size`` rule and counts
    what a table's filter and :class:`TableStats` need.
    :meth:`TableBuilder.add` feeds one per table; :func:`build_tables`
    one across all the tables it writes."""

    def __init__(self, options: Options, comparator: InternalKeyComparator):
        self._sort_key = comparator.sort_key
        self._last_sort_key: tuple = ()  # sorts before every key's
        self._block = BlockBuilder(options.block_restart_interval)
        self._block_size = options.block_size
        self._filter = options.bloom_bits_per_key > 0
        self.last_key: Optional[bytes] = None
        self._start_block()

    def _start_block(self) -> None:
        self.first_key: Optional[bytes] = None  # None: nothing to cut
        self._filter_keys: list[bytes] = []
        self._entries = self._key_bytes = self._value_bytes = 0

    def add(self, key: bytes, value: bytes) -> Optional[tuple]:
        """Append one entry; returns the block it completed, if any."""
        sort_key = self._sort_key(key)
        if sort_key <= self._last_sort_key:
            raise InvalidArgumentError("keys added out of order")
        self._last_sort_key = sort_key
        if self.first_key is None:
            self.first_key = key
        self.last_key = key
        if self._filter:
            self._filter_keys.append(key[:-MARK_FIELDS_SIZE])
        self._block.add(key, value)
        self._entries += 1
        self._key_bytes += len(key)
        self._value_bytes += len(value)
        if self._block.current_size_estimate() >= self._block_size:
            return self.cut()
        return None

    def cut(self) -> Optional[tuple]:
        """Complete the block being cut: ``(contents, first key, last
        key, filter keys, entries, key bytes, value bytes)``, or None
        when it is empty."""
        if self.first_key is None:
            return None
        block = (self._block.finish(), self.first_key, self.last_key,
                 self._filter_keys, self._entries, self._key_bytes,
                 self._value_bytes)
        self._block.reset()
        self._start_block()
        return block


class TableBuilder:
    """Streams sorted (internal key, value) pairs into an SSTable image.

    :meth:`add` compresses each block as it is cut, which the FPGA
    ``Encoder``'s per-block timing needs; :func:`build_tables` writes the
    same bytes with the blocks compressed on two cores."""

    def __init__(self, options: Options, dest: WritableFile,
                 comparator: InternalKeyComparator):
        self._options = options
        self._dest = dest
        self._comparator = comparator
        self._cutter = BlockCutter(options, comparator)
        self._index_block = BlockBuilder(1)
        self._pending_handle: Optional[BlockHandle] = None
        self._offset = 0
        self._closed = False
        # Filter keys wait here until a batch is hashed into 4 bytes each.
        self._filter_keys: list[bytes] = []
        self._filter_hashes = array("I")
        self._filter_policy = (BloomFilterPolicy(options.bloom_bits_per_key)
                               if options.bloom_bits_per_key > 0 else None)
        self.stats = TableStats()
        self._smallest: Optional[bytes] = None
        self._largest: Optional[bytes] = None

    @property
    def smallest_key(self) -> Optional[bytes]:
        """The first key added; None before any."""
        return self._smallest or self._cutter.first_key

    @property
    def largest_key(self) -> Optional[bytes]:
        """The last key added; None before any."""
        cutter = self._cutter
        return cutter.last_key if cutter.first_key else self._largest

    def add(self, key: bytes, value: bytes) -> None:
        """Append one entry; keys must be strictly increasing."""
        if self._closed:
            raise InvalidArgumentError("add after finish/abandon")
        block = self._cutter.add(key, value)
        if block is not None:
            self._append_block(block)

    def _append_block(self, block: tuple,
                      compressed: Optional[bytes] = None) -> None:
        """Write a block :class:`BlockCutter` cut (``compressed``: its
        ``snappy.compress`` output, when already encoded) and record it
        in the index, the filter keys and the stats."""
        (contents, first, last, filter_keys, entries, key_bytes,
         value_bytes) = block
        if self._pending_handle is not None:
            # First key after a block boundary: emit a shortened separator.
            separator = self._comparator.find_shortest_separator(
                self._largest, first)
            self._index_block.add(separator, self._pending_handle.encode())
        self._smallest = self._smallest or first
        self._largest = last
        if self._filter_policy is not None:
            self._filter_keys += filter_keys
            if len(self._filter_keys) >= _FILTER_HASH_BATCH:
                self._hash_filter_keys()
        stats = self.stats
        stats.num_entries += entries
        stats.raw_key_bytes += key_bytes
        stats.raw_value_bytes += value_bytes
        self._pending_handle = self._write_block(contents, compressed)
        stats.num_data_blocks += 1
        stats.data_bytes = self._offset

    def _hash_filter_keys(self) -> None:
        self._filter_hashes += hash_keys(self._filter_keys)
        self._filter_keys = []

    def _write_block(self, contents: bytes,
                     compressed: Optional[bytes] = None) -> BlockHandle:
        if self._options.compression == "snappy":
            if compressed is None:
                compressed = snappy.compress(contents)
            # Like LevelDB, fall back to raw storage unless compression
            # saves at least 12.5%.
            if len(compressed) < len(contents) - len(contents) // 8:
                payload, block_type = compressed, COMPRESSION_SNAPPY
            else:
                payload, block_type = contents, COMPRESSION_NONE
        else:
            payload, block_type = contents, COMPRESSION_NONE
        handle = BlockHandle(self._offset, len(payload))
        self._dest.append(payload)
        self._dest.append(bytes((block_type,)))
        # Extend the payload CRC with the type byte instead of copying the
        # whole payload to concatenate one byte.
        self._dest.append(encode_fixed32(
            mask_crc(crc32c(bytes((block_type,)), crc32c(payload)))))
        self._offset += len(payload) + BLOCK_TRAILER_SIZE
        return handle

    @property
    def file_size(self) -> int:
        """Bytes written so far."""
        return self._offset

    def finish(self) -> TableStats:
        """Flush remaining data, write filter/metaindex/index/footer."""
        if self._closed:
            raise InvalidArgumentError("finish called twice")
        block = self._cutter.cut()
        if block is not None:
            self._append_block(block)
        self._closed = True
        if self._pending_handle is not None:
            successor = self._comparator.find_short_successor(self._largest)
            self._index_block.add(successor, self._pending_handle.encode())
            self._pending_handle = None

        metaindex = BlockBuilder(1)
        self._hash_filter_keys()
        if self._filter_policy is not None and self._filter_hashes:
            filter_data = self._filter_policy.filter_from_hashes(
                self._filter_hashes)
            filter_handle = self._write_block(filter_data)
            metaindex.add(f"filter.{self._filter_policy.name}".encode(),
                          filter_handle.encode())
        metaindex_handle = self._write_block(metaindex.finish())

        index_start = self._offset
        index_handle = self._write_block(self._index_block.finish())
        self.stats.index_bytes = self._offset - index_start

        footer = bytearray()
        footer += metaindex_handle.encode()
        footer += index_handle.encode()
        footer += b"\x00" * (FOOTER_SIZE - 8 - len(footer))
        footer += TABLE_MAGIC.to_bytes(8, "little")
        self._dest.append(bytes(footer))
        self._offset += FOOTER_SIZE
        self.stats.file_bytes = self._offset
        self._dest.flush()
        return self.stats


def build_tables(entries: Iterable[tuple[bytes, bytes]], options: Options,
                 comparator: InternalKeyComparator,
                 new_file: Callable[[], WritableFile],
                 max_file_size: Optional[int] = None
                 ) -> Iterator[tuple[TableBuilder, WritableFile]]:
    """Write ``entries`` as tables, cut -> encode -> lay out, yielding
    each finished ``(builder, file)``: one :class:`BlockCutter` cuts the
    stream, :data:`~repro.compress.encoder.block_encoder` compresses the
    blocks, and each is appended in order to the current table, finished
    once its ``file_size`` reaches ``max_file_size`` (None: never) and the
    next block starts a new user key.

    With one entry per user key the bytes are :meth:`TableBuilder.add`'s
    under the same rule: ``file_size`` grows only when a data block is
    written, so the streaming cut falls on a block boundary too, and a
    block's raw bytes depend only on the entries and ``block_size`` --
    compressed sizes decide only which table a block lands in.
    """
    cutter = BlockCutter(options, comparator)

    def cut() -> Iterator[tuple]:
        yield from filter(None, starmap(cutter.add, entries))
        yield from filter(None, [cutter.cut()])

    if options.compression == "snappy":
        encoded = block_encoder.encode(cut())
    else:
        encoded = ((block, None) for block in cut())
    builder = ended_on = None
    for block, compressed in encoded:
        # A full table is finished at the first block that starts a new
        # user key: the versions of one key a snapshot merge keeps must
        # share a table, or the level's user-key ranges overlap.
        if ended_on is not None and block[1][:-MARK_FIELDS_SIZE] != ended_on:
            builder.finish()
            yield builder, dest
            builder = None
        if builder is None:
            dest = new_file()
            builder = TableBuilder(options, dest, comparator)
        builder._append_block(block, compressed)
        ended_on = None
        if max_file_size is not None and builder.file_size >= max_file_size:
            ended_on = block[2][:-MARK_FIELDS_SIZE]
    if builder is not None:
        builder.finish()
        yield builder, dest


def build_table(entries: Iterable[tuple[bytes, bytes]], options: Options,
                comparator: InternalKeyComparator
                ) -> tuple[bytes, TableBuilder]:
    """Sorted ``entries`` as one table image, and its builder."""
    dest = _BufferFile()
    [(builder, _)] = build_tables(entries, options, comparator,
                                  lambda: dest)
    return dest.getvalue(), builder


#: The options a table's bytes depend on (a build request's first part),
#: and a build answer's TableStats.
_BUILD_OPTIONS = ("block_size", "block_restart_interval",
                  "bloom_bits_per_key", "compression")
_BUILD_STATS = struct.Struct("<7Q")
_ICMP = InternalKeyComparator(BytewiseComparator())


def build_request(entries: Iterable[tuple[bytes, bytes]],
                  options: Options) -> tuple[list, Callable]:
    """A memtable's entries as a codec helper build request's parts, and
    the answer's ``check(answer)``: the table image, stats, first and
    last key, and the :class:`TableReader` that opened the image; it
    raises unless the image opens, its data blocks' CRCs verify and its
    stats and keys are what was sent."""
    parts = [json.dumps([getattr(options, name)
                         for name in _BUILD_OPTIONS]).encode()]
    parts.extend(chain.from_iterable(entries))
    keys = parts[1::2]
    expect = (len(keys), sum(map(len, keys)), sum(map(len, parts[2::2])),
              keys[0], keys[-1])

    def check(answer: list):
        image, packed, smallest, largest = answer
        stats = TableStats(*_BUILD_STATS.unpack(packed))
        file = RandomAccessFile(image)
        reader = TableReader(file, _ICMP, options)
        for handle in reader._handles:
            _block_payload(file, handle)
        if ((stats.num_entries, stats.raw_key_bytes, stats.raw_value_bytes,
             smallest, largest) != expect or stats.file_bytes != len(image)
                or stats.num_data_blocks != len(reader._handles)):
            raise CorruptionError("build answer does not match its request")
        return image, stats, smallest, largest, reader

    return parts, check


def serve_build(parts: list) -> list:
    """The helper's side of a :func:`build_request`."""
    options = Options(**dict(zip(_BUILD_OPTIONS, json.loads(parts[0]))))
    image, builder = build_table(zip(parts[1::2], parts[2::2]), options,
                                 _ICMP)
    return [image, _BUILD_STATS.pack(*astuple(builder.stats)),
            builder.smallest_key, builder.largest_key]


def _block_payload(file: RandomAccessFile,
                   handle: BlockHandle) -> tuple[bytes, bool]:
    """One block's stored payload, read through ``file`` with its
    trailer, and whether it is snappy-compressed: bounds-, CRC- and
    type-checked."""
    size = handle.size
    data = file.read(handle.offset, size + BLOCK_TRAILER_SIZE)
    if len(data) != size + BLOCK_TRAILER_SIZE:
        raise CorruptionError("block handle overruns file")
    block_type = data[size]
    stored = unmask_crc(decode_fixed32(data, size + 1))
    # Payload and type byte are adjacent in the file: checksum them in
    # place over one zero-copy view.
    if crc32c(memoryview(data)[:size + 1]) != stored:
        raise CorruptionError("block checksum mismatch")
    if block_type not in (COMPRESSION_NONE, COMPRESSION_SNAPPY):
        raise CorruptionError(f"unknown block compression type {block_type}")
    return data[:size], block_type == COMPRESSION_SNAPPY


def _read_block(file: RandomAccessFile, handle: BlockHandle) -> bytes:
    """Read and (if needed) decompress one block payload."""
    payload, compressed = _block_payload(file, handle)
    return snappy.decompress(payload) if compressed else payload


class _PartialBlock:
    """A snappy data block that a lookup decoded only up to its answer:
    the payload, the input position reached and the output so far.  The
    block cache charges its full length; it is never changed once
    cached (:meth:`finish` decodes the rest onto a copy)."""

    __slots__ = ("payload", "pos", "out", "size")

    def __init__(self, payload: bytes, pos: int, out: bytearray, size: int):
        self.payload, self.pos, self.out, self.size = payload, pos, out, size

    def __len__(self) -> int:
        return self.size

    def finish(self) -> bytes:
        out = bytearray(self.out)
        snappy.decompress_into(self.payload, self.pos, out, self.size)
        return bytes(out)


def _seek_partial(payload: bytes, compressed: bool, target: bytes,
                  comparator: InternalKeyComparator) -> tuple:
    """``(Block(raw).seek(target, comparator), what to cache)`` for a
    stored block, decoding a snappy ``payload`` only until the first
    entry >= ``target`` is complete.  An entry it does not parse inline
    (the restart array's is an empty key delta) ends the scan: the rest
    is decoded and ``Block.seek`` answers (DESIGN.md "Read path")."""
    if not compressed:
        return Block(payload).seek(target, comparator), payload
    size, pos = decode_varint32(payload, 0)  # the snappy preamble
    out = bytearray()
    decode = snappy.decompress_into
    pos = decode(payload, pos, out, size, 4)
    user_target = target[:-MARK_FIELDS_SIZE]
    trailer = int.from_bytes(target[-MARK_FIELDS_SIZE:], "little")
    offset = 0
    key = b""
    try:
        while True:
            shared = out[offset]
            non_shared = out[offset + 1]
            value_len = out[offset + 2]
            start = offset + 3
            if (shared | non_shared | value_len) >= 0x80:
                if (shared | non_shared) >= 0x80 or out[start] >= 0x80:
                    break
                value_len = value_len & 0x7F | out[start] << 7
                start += 1
            if not non_shared or shared > len(key):
                break
            key_end = start + non_shared
            offset = key_end + value_len
            if len(out) < offset + 4:  # this entry and the next header
                pos = decode(payload, pos, out, size, offset + 4)
                if len(out) < offset:
                    break
            key = key[:shared] + out[start:key_end]
            if len(key) < MARK_FIELDS_SIZE:
                break
            user_key = key[:-MARK_FIELDS_SIZE]
            if user_key < user_target or (
                    user_key == user_target and int.from_bytes(
                        key[-MARK_FIELDS_SIZE:], "little") > trailer):
                continue
            return ((key, bytes(out[key_end:offset])),
                    _PartialBlock(payload, pos, out, size))
    except IndexError:
        pass
    decode(payload, pos, out, size)
    block = bytes(out)
    return Block(block).seek(target, comparator), block


class TableReader:
    """Random and sequential access over an SSTable read through
    ``file``, an :meth:`Env.new_random_access_file` handle or a table
    image (``bytes``, read in place).

    ``file_number`` namespaces entries in the shared block cache.

    Immutable once constructed and safe to share between threads: the
    footer, index and filter are read (and checksummed) here, data blocks
    on demand.  The reader keeps its handle open, so a compacted-away
    file it reads may be deleted: an ``OsEnv`` descriptor keeps reading
    an unlinked file, and an in-memory handle holds its own image.
    """

    def __init__(self, file, comparator: InternalKeyComparator,
                 options: Optional[Options] = None,
                 block_cache: Optional[LRUCache] = None,
                 file_number: int = 0):
        if isinstance(file, (bytes, bytearray, memoryview)):
            file = RandomAccessFile(file)
        self._file = file
        self._comparator = comparator
        self._sort_key = comparator.sort_key
        self._options = options or Options()
        self._cache = block_cache
        self._file_number = file_number
        if file.size < FOOTER_SIZE:
            raise CorruptionError("file too short for footer")
        footer = file.read(file.size - FOOTER_SIZE, FOOTER_SIZE)
        magic = int.from_bytes(footer[-8:], "little")
        if magic != TABLE_MAGIC:
            raise CorruptionError("bad table magic")
        metaindex_handle, pos = BlockHandle.decode(footer, 0)
        index_handle, _ = BlockHandle.decode(footer, pos)
        # The index, decoded once: separator keys, their sort keys (what
        # a lookup bisects) and the data-block handles, index-aligned.
        self._index_keys: list[bytes] = []
        self._handles: list[BlockHandle] = []
        for key, handle_bytes in Block(_read_block(file, index_handle)):
            self._index_keys.append(key)
            self._handles.append(BlockHandle.decode(handle_bytes, 0)[0])
        self._index_order = list(map(self._sort_key, self._index_keys))
        self._filter_data = self._load_filter(metaindex_handle)
        self._filter_bits, self._filter_k = (
            (0, 0) if self._filter_data is None
            else BloomFilterPolicy.geometry(self._filter_data))

    def _load_filter(self, metaindex_handle: BlockHandle) -> Optional[bytes]:
        metaindex = Block(_read_block(self._file, metaindex_handle))
        for key, value in metaindex:
            if key.startswith(b"filter."):
                handle, _ = BlockHandle.decode(value, 0)
                return _read_block(self._file, handle)
        return None

    @property
    def file_size(self) -> int:
        return self._file.size

    @property
    def image(self) -> bytes:
        """The raw file bytes (what the host DMA-copies to the device),
        read whole on each call; a bytes image is returned as it is."""
        return self._file.image

    def rebind(self, file: RandomAccessFile,
               block_cache: Optional[LRUCache], file_number: int) -> None:
        """Before the reader is shared: read the same bytes through
        ``file`` (its image durably written), into ``block_cache``."""
        self._file = file
        self._cache = block_cache
        self._file_number = file_number

    def _cached_block(self, cache_key: tuple) -> Optional[bytes]:
        """The cached block, or None.  One a lookup decoded in part is
        decoded in full and replaces its entry at the same charge (two
        readers racing only repeat the work)."""
        cached = None if self._cache is None else self._cache.get(cache_key)
        if type(cached) is _PartialBlock:
            cached = cached.finish()
            self._cache.put(cache_key, cached)
        return cached

    def _block_contents(self, handle: BlockHandle) -> bytes:
        cache_key = (self._file_number, handle.offset)
        contents = self._cached_block(cache_key)
        if contents is None:
            contents = _read_block(self._file, handle)
            if self._cache is not None:
                self._cache.put(cache_key, contents)
        return contents

    def key_may_match(self, user_key: bytes,
                      key_hash: Optional[int] = None) -> bool:
        """Bloom-filter probe; True can be a false positive.  A caller
        probing several tables for one key passes
        ``BloomFilterPolicy.hash_key(user_key)`` and pays for it once."""
        if self._filter_data is None:
            return True
        if key_hash is None:
            key_hash = BloomFilterPolicy.hash_key(user_key)
        return BloomFilterPolicy.probe(key_hash, self._filter_data,
                                       self._filter_bits, self._filter_k)

    def get(self, target: bytes) -> Optional[tuple[bytes, bytes]]:
        """First entry with internal key >= ``target`` in the block whose
        separator is the first >= ``target``, or ``None``: a point lookup
        reads one block.  That entry is the table's first >= ``target``
        whenever the two share a user key.  ``None`` also means that
        ``target`` fell between a block's last key and its shortened
        separator, where the next entry has a later user key.  A block
        read on a cache miss is decoded only as far as the answer."""
        i = bisect_left(self._index_order, self._sort_key(target))
        if i == len(self._handles):
            return None
        handle = self._handles[i]
        cache_key = (self._file_number, handle.offset)
        block = self._cached_block(cache_key)
        if block is not None:
            return Block(block).seek(target, self._comparator)
        found, block = _seek_partial(
            *_block_payload(self._file, handle), target, self._comparator)
        if self._cache is not None:
            self._cache.put(cache_key, block)
        return found

    def __iter__(self) -> Iterator[tuple[bytes, bytes]]:
        """Yield every (internal key, value) in order."""
        for handle in self._handles:
            yield from Block(self._block_contents(handle))

    def merge_input(self) -> Iterator[tuple[bytes, bytes]]:
        """Iteration past the block cache: a merge's input must not evict
        what readers use (LevelDB's ``fill_cache = false``)."""
        for handle in self._handles:
            yield from Block(_read_block(self._file, handle))

    def iter_from(self, target: bytes) -> Iterator[tuple[bytes, bytes]]:
        """Yield entries with internal key >= ``target`` in order: start
        inside the first block whose separator is >= ``target``."""
        i = bisect_left(self._index_order, self._sort_key(target))
        for handle in self._handles[i:i + 1]:
            yield from Block(self._block_contents(handle)).iter_from(
                target, self._comparator)
        for handle in self._handles[i + 1:]:
            yield from Block(self._block_contents(handle))

    def index_entries(self) -> list[tuple[bytes, BlockHandle]]:
        """Decoded index block — used by the FPGA host marshaller."""
        return list(zip(self._index_keys, self._handles))
