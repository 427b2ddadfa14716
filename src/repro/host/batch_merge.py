"""LUDA-style batched merge backend (the ``batch`` accelerator).

Where the FPGA pipeline streams pairs through fixed-function decode /
compare / encode stages, LUDA (arXiv 2004.03054) batches: decode *all*
input entries into contiguous arrays, compute the merge order and the
validity of every entry at once with data-parallel primitives, then bulk
re-encode the survivors.  This module is that engine on numpy:

1. **Bulk decode** — read and check every data block of every input
   (bounds, checksum under ``paranoid_checks``), decompress them on two
   cores (:meth:`~repro.compress.encoder.BlockEncoder.decode`) and
   append each entry :class:`~repro.lsm.block.Block` parses to one
   buffer of raw keys and values, with a uint32 array of the length of
   each key and each value.
2. **Vectorized merge** — gather the user keys from the buffer, a byte
   column at a time, into one zero-padded ``(n, W)`` matrix viewed as
   big-endian u64 columns; ``np.lexsort`` over (key columns, key
   length, inverted trailer) yields exactly the internal-key order.
   Shadowed entries are consecutive rows with equal user keys;
   tombstones are rows whose trailer type byte is ``TYPE_DELETION`` —
   both reduce to boolean masks (LUDA's validity check).  It holds the
   survivors' (key start, key end, value end) offsets.
3. **Bulk encode** — slice the survivors out of the buffer one at a
   time into the table writer every executor shares
   (:func:`~repro.lsm.compaction.build_output_tables`: cut, then
   compress on two cores, then lay out).  The slicing generator holds
   the buffer's last reference, so it is freed before the last table
   is copied out: a merge's traced peak is about 2.3× its raw input.

The output is byte-identical to :func:`repro.lsm.compaction.compact`
over the same tables — the equality suite in ``tests/test_accelerator.py``
holds this across compression, bloom filters and value sizes.

The engine needs numpy (the same optional-dependency idiom as
``repro.util.crc32c``) and a bytewise comparator.
:attr:`BatchMergeEngine.vectorized` reports whether both hold; the
``batch`` backend's ``can_run`` returns it, so when they do not, routing
sends the task to ``cpu`` instead.
"""

from __future__ import annotations

from array import array
from itertools import chain
from typing import Iterator

from repro.compress.encoder import block_encoder
from repro.errors import CorruptionError, InvalidArgumentError
from repro.lsm.block import Block
from repro.lsm.compaction import CompactionStats, build_output_tables
from repro.lsm.internal import (
    InternalKeyComparator,
    MARK_FIELDS_SIZE,
    TYPE_DELETION,
)
from repro.lsm.options import Options
from repro.lsm.sstable import _block_payload

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None


class BatchMergeEngine:
    """Merge-compaction executor over whole-input arrays.

    ``streams`` follows :meth:`repro.host.device.FcaeDevice.compact`'s
    convention: a list of input streams, each a list of TableReaders
    whose concatenation is sorted.  The merge ignores the stream
    structure entirely — a global sort does not care which run a row
    came from.
    """

    def __init__(self, options: Options,
                 comparator: InternalKeyComparator):
        self.options = options
        self.comparator = comparator

    @property
    def vectorized(self) -> bool:
        """True when this engine can run: numpy imports and the
        comparator is bytewise (the sort key is the raw key bytes)."""
        return _np is not None and self.comparator.bytewise

    def compact(self, streams: list[list],
                drop_deletions: bool) -> CompactionStats:
        if not self.vectorized:
            raise InvalidArgumentError(
                "the batch merge engine needs numpy and a bytewise "
                "comparator; route through CompactionScheduler, which "
                "sends such tasks to the cpu backend")
        data, lengths = self._bulk_decode(
            [t for stream in streams for t in stream])
        stats = CompactionStats()
        if not lengths:
            return stats
        stats.input_pairs = len(lengths) // 2
        stats.input_bytes = len(data)
        spans, stats.dropped_shadowed, stats.dropped_tombstones = (
            _merge_order(data, lengths, drop_deletions))
        stats.output_pairs = spans.shape[1]
        stats.output_bytes = int((spans[2] - spans[0]).sum())
        survivors = _slices(data, spans)
        # The generator now holds the only reference to the entries: they
        # go once the last survivor is cut, before the last table is
        # copied out.
        del data, lengths
        stats.outputs = build_output_tables(survivors, self.options,
                                            self.comparator)
        return stats

    def _bulk_decode(self, tables: list) -> tuple[bytearray, array]:
        """Every entry of every table in one buffer, each key followed
        by its value, and the length of each key and each value."""
        verify = self.options.paranoid_checks
        payloads = (_block_payload(table.image, handle, verify)
                    for table in tables
                    for _, handle in table.index_entries())
        data = bytearray()
        lengths = array("I")
        for _, raw in block_encoder.decode(payloads):
            fields = list(chain.from_iterable(Block(raw)))
            data += b"".join(fields)
            lengths.extend(map(len, fields))
        return data, lengths


def _slices(data: bytearray, spans) -> Iterator[tuple[bytes, bytes]]:
    """``(key, value)`` of each survivor, copied out of ``data`` one at a
    time: ``spans``' rows are their key starts, key ends and value ends.
    """
    # The caller's last reference, replaced by a copy: slicing ``bytes``
    # costs a third of a memoryview's slice-and-copy.
    data = bytes(data)
    starts, mids, stops = map(memoryview, spans)
    yield from zip(map(data.__getitem__, map(slice, starts, mids)),
                   map(data.__getitem__, map(slice, mids, stops)))


def _merge_order(data: bytearray, lengths: array, drop_deletions: bool):
    """Vectorized merge order + validity masks over the internal keys
    of :meth:`BatchMergeEngine._bulk_decode`'s buffer.

    Returns (a ``(3, m)`` array of the survivors' key starts, key ends
    and value ends, in output order; shadowed count; dropped-tombstone
    count).
    """
    flat = _np.frombuffer(data, dtype=_np.uint8)
    bounds = _np.cumsum(_np.frombuffer(lengths, dtype=_np.uint32),
                        dtype=_np.int64)
    key_ends, value_ends = bounds[0::2], bounds[1::2]
    starts = _np.zeros_like(key_ends)
    starts[1:] = value_ends[:-1]
    n = len(starts)
    ulens = key_ends - starts - MARK_FIELDS_SIZE
    if int(ulens.min()) < 0:
        raise CorruptionError("internal key shorter than mark fields")

    # User keys, right-zero-padded into big-endian u64 columns, built a
    # byte column at a time: the column-major compare order equals
    # bytewise order, with equal-prefix ties broken by key length (a
    # proper prefix sorts first).
    maxw = int(ulens.max())
    mat = _np.zeros((n, maxw + (-maxw) % 8), dtype=_np.uint8)
    for j in range(maxw):
        rows = _np.flatnonzero(ulens > j)
        mat[rows, j] = flat[starts[rows] + j]
    ucols = mat.view(">u8")

    # Trailer = fixed64 LE (sequence << 8 | type) at each key's end.
    marks = _np.empty((n, MARK_FIELDS_SIZE), dtype=_np.uint8)
    for j in range(MARK_FIELDS_SIZE):
        marks[:, j] = flat[key_ends - MARK_FIELDS_SIZE + j]
    trailer = marks.view("<u8")[:, 0]

    # Internal-key order: user key asc, then sequence/type desc.
    sort_keys = [_np.iinfo(_np.uint64).max - trailer, ulens]
    sort_keys += [ucols[:, j] for j in range(ucols.shape[1] - 1, -1, -1)]
    order = _np.lexsort(tuple(sort_keys))

    s_cols = ucols[order]
    s_ulen = ulens[order]
    shadowed = _np.zeros(n, dtype=bool)
    if n > 1:
        shadowed[1:] = ((s_cols[1:] == s_cols[:-1]).all(axis=1)
                        & (s_ulen[1:] == s_ulen[:-1]))
    keep = ~shadowed
    dropped_tombstones = 0
    if drop_deletions:
        is_deletion = (trailer[order] & _np.uint64(0xFF)) == TYPE_DELETION
        dropped_tombstones = int((keep & is_deletion).sum())
        keep &= ~is_deletion
    picks = order[keep]
    spans = _np.stack((starts[picks], key_ends[picks], value_ends[picks]))
    return spans, int(shadowed.sum()), dropped_tombstones
