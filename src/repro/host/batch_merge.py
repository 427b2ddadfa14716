"""LUDA-style batched merge backend (the ``batch`` accelerator).

Where the FPGA pipeline streams pairs through fixed-function decode /
compare / encode stages, LUDA (arXiv 2004.03054) batches: decode *all*
input entries into contiguous arrays, compute the merge order and the
validity of every entry at once with data-parallel primitives, then bulk
re-encode the survivors.  This module is that engine on numpy:

1. **Bulk decode** — read and check every data block of every input
   (bounds, checksum under ``paranoid_checks``), decompress them on two
   cores (:meth:`~repro.compress.encoder.BlockEncoder.decode`) and
   materialize (internal key, value) lists per the normal block codec.
2. **Vectorized merge** — pad the user keys into one ``(n, W)`` byte
   matrix viewed as big-endian u64 columns; ``np.lexsort`` over (key
   columns, key length, inverted trailer) yields exactly the internal-key
   order.  Shadowed entries are consecutive rows with equal user keys;
   tombstones are rows whose trailer type byte is ``TYPE_DELETION`` —
   both reduce to boolean masks (LUDA's validity check).
3. **Bulk encode** — hand the survivors to the table writer every
   executor shares (:func:`~repro.lsm.compaction.build_output_tables`:
   cut, then compress on two cores, then lay out).

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
        keys, values = self._bulk_decode(
            [t for stream in streams for t in stream])
        stats = CompactionStats()
        n = len(keys)
        if n == 0:
            return stats
        survivors, dropped_shadowed, dropped_tombstones = _merge_order(
            keys, drop_deletions)
        stats.input_pairs = n
        stats.dropped_shadowed = dropped_shadowed
        stats.dropped_tombstones = dropped_tombstones
        stats.output_pairs = len(survivors)
        stats.input_bytes = sum(map(len, keys)) + sum(map(len, values))
        picks = survivors.tolist()  # plain ints index lists fastest
        stats.outputs = build_output_tables(
            ((keys[i], values[i]) for i in picks), self.options,
            self.comparator)
        stats.output_bytes = sum(
            len(keys[i]) + len(values[i]) for i in picks)
        return stats

    def _bulk_decode(self, tables: list) -> tuple[list, list]:
        """Decode every entry of every table."""
        verify = self.options.paranoid_checks
        payloads = (_block_payload(table.image, handle, verify)
                    for table in tables
                    for _, handle in table.index_entries())
        keys: list = []
        values: list = []
        for _, raw in block_encoder.decode(payloads):
            for key, value in Block(raw):
                keys.append(key)
                values.append(value)
        return keys, values


def _merge_order(keys: list, drop_deletions: bool):
    """Vectorized merge order + validity masks over internal keys.

    Returns (survivor indices into ``keys`` in output order, shadowed
    count, dropped-tombstone count).
    """
    n = len(keys)
    lens = _np.fromiter(map(len, keys), dtype=_np.int64, count=n)
    if int(lens.min()) < MARK_FIELDS_SIZE:
        raise CorruptionError("internal key shorter than mark fields")
    ulens = lens - MARK_FIELDS_SIZE
    flat = _np.frombuffer(b"".join(keys), dtype=_np.uint8)
    starts = _np.zeros(n, dtype=_np.int64)
    starts[1:] = _np.cumsum(lens)[:-1]

    # User keys, right-zero-padded into big-endian u64 columns: the
    # column-major compare order equals bytewise order, with equal-prefix
    # ties broken by key length (a proper prefix sorts first).
    maxw = int(ulens.max())
    width = maxw + (-maxw) % 8
    mat = _np.zeros((n, width), dtype=_np.uint8)
    col = _np.arange(maxw)
    umask = col[None, :] < ulens[:, None]
    idx = starts[:, None] + col[None, :]
    mat[:, :maxw][umask] = flat[idx[umask]]
    ucols = mat.view(">u8")

    # Trailer = fixed64 LE (sequence << 8 | type) at each key's end.
    tr_idx = (starts + ulens)[:, None] + _np.arange(8)[None, :]
    powers = _np.uint64(1) << (_np.uint64(8)
                               * _np.arange(8, dtype=_np.uint64))
    trailer = flat[tr_idx].astype(_np.uint64) @ powers

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
    return (order[keep], int(shadowed.sum()), dropped_tombstones)
