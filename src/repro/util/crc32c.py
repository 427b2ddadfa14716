"""CRC32C (Castagnoli) with LevelDB's masking.

LevelDB stores CRCs *masked* — rotated and offset — so that computing the
CRC of a string that already contains an embedded CRC does not degrade the
checksum.  The polynomial here is the Castagnoli polynomial 0x1EDC6F41
(reflected form 0x82F63B78), the same one used by LevelDB/RocksDB, iSCSI
and ext4.

CRC is GF(2)-linear: from a zero state, ``raw(M) = XOR_i C[n-1-i][M[i]]``
where ``C[d][b]`` is the state contribution of byte ``b`` followed by
``d`` zero bytes, and a running state enters as an XOR into the first
four message bytes.  Every leg below computes that one function and is
held to the same golden vectors; they differ in how many table entries a
call touches and where those entries live:

* tiny inputs (< ``_BULK_MIN`` bytes) use the classic byte-at-a-time
  loop — lowest constant cost;
* with numpy, inputs below ``_TWO_LEVEL_MIN`` take the *one-level* leg:
  one gather of ``n`` entries from ``C`` (row = distance from the end)
  and one XOR reduce.  Row ``d`` is 1 KiB from row ``d + 1``, so every
  message byte is its own cache line — cheap for a 170-byte WAL record,
  ruinous for a block (4,096 lines spread over 4 MiB: 41–57 µs in a
  running store, though 19 µs in a loop over one payload);
* longer inputs take the *two-level* kernel, whose tables stay in cache.
  Level 1 cuts the chunk into ``_SEG``-byte segments, right-aligned, and
  reduces each to its own 32-bit raw state with the first ``_SEG`` rows
  of ``C`` only (64 KiB at ``_SEG`` = 64).  Level 2 shifts each segment
  value over the ``k`` segments that follow it with four byte lookups in
  a ``(_CHUNK / _SEG, 4, 256)`` table of ``C`` rows ``k * _SEG - 1 - j``
  (512 KiB for the 8 KiB chunk, of which a block touches the last
  ``4 * n / _SEG`` 1 KiB rows, contiguous).  ``_SEG`` trades the two: at 32
  level 2 doubles, at 128 and 256 level 1 leaves L1 — 64 measured best
  or equal at 2.2 and 4.2 KB.  Messages over ``_CHUNK`` bytes loop,
  carrying the state;
* without numpy, a pure-Python slice-by-8 loop over 64-bit words with
  paired 16-bit tables (four 64 Ki-entry tables, two message bytes per
  lookup).

All tables are built lazily on first bulk use, so importing this module
stays cheap for callers that only checksum short records.
"""

from __future__ import annotations

import struct

_POLY = 0x82F63B78
_MASK_DELTA = 0xA282EAD8
_U32 = 0xFFFFFFFF

#: Inputs shorter than this use the byte-at-a-time loop: below ~64 bytes
#: the bulk paths' fixed setup cost exceeds the per-byte savings.
_BULK_MIN = 64

#: Segment length of the two-level kernel's first level.
_SEG = 64

#: Longest run one two-level pass covers.  Twice the 4 KiB block size,
#: because an uncompressed data block is a little *over* 4 KiB and would
#: otherwise pay a second pass for its last hundred bytes.
_CHUNK = 8192

#: Inputs from this length on take the two-level kernel; it is also the
#: one-level table's row count (1 KiB each).  Timed on distinct inputs,
#: µs per call one-level / two-level: 5.0 / 8.4 at 170 B, 6.3 / 9.6 at
#: 700 B, 6.9 / 10.1 at 1,024 B, 8.8 / 10.4 at 1,536 B, 10.1 / 11.0 at
#: 1,792 B, 12.4 / 11.7 at 2,048 B.  That crossover near 2 KB is a loop
#: over nothing else on a 2 MiB L2; the constant sits below it because a
#: running store does not leave 2 MiB of table in L2 between calls.
_TWO_LEVEL_MIN = 1536

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is present in CI
    _np = None


def _build_table() -> list[int]:
    table = []
    for byte in range(256):
        crc = byte
        for _ in range(8):
            crc = (crc >> 1) ^ _POLY if crc & 1 else crc >> 1
        table.append(crc)
    return table


_TABLE = _build_table()

# Lazily built bulk-path state (see _build_numpy_tables / _ensure_slice8).
_NUMPY_TABLES = None
_SLICE8 = None      # four 64 Ki-entry paired-byte tables
_STEP8 = struct.Struct("<Q")


def _build_numpy_tables() -> tuple:
    """Set and return ``_NUMPY_TABLES = (contrib, one_level_offsets,
    segment_offsets, shift, shift_offsets)``, all flat: a table entry is
    ``table[offset + byte]`` and every offsets array is right-aligned,
    so ``offsets[-n:]`` serves an ``n``-byte run.  Racing first callers
    build equal tuples."""
    global _NUMPY_TABLES
    # Little-endian, so a uint8 view of a state lists its bytes low first.
    u4 = _np.dtype("<u4")
    t0 = _np.array(_TABLE, dtype=u4)
    eight = _np.uint32(8)
    # contrib[d][b]: byte b followed by d zero bytes.  The one-level leg
    # reads every row, level 1 only the first _SEG.
    contrib = _np.empty((_TWO_LEVEL_MIN, 256), dtype=u4)
    contrib[0] = t0
    for distance in range(1, _TWO_LEVEL_MIN):
        prev = contrib[distance - 1]
        contrib[distance] = t0[prev & 0xFF] ^ (prev >> eight)
    # shift[-1 - k][j][b]: state byte j = b moved over k segments, i.e.
    # contrib row k * _SEG - 1 - j; k = 0 is the identity.  Each group
    # is the one before it moved over one more segment.
    one_seg = contrib[_SEG - 4:_SEG][::-1]
    count = _CHUNK // _SEG
    shift = _np.empty((count, 4, 256), dtype=u4)
    group = (_np.arange(256, dtype=u4)[None, :]
             << (eight * _np.arange(4, dtype=u4))[:, None])
    shift[-1] = group
    for k in range(1, count):
        group = (one_seg[0][group & 0xFF]
                 ^ one_seg[1][(group >> eight) & 0xFF]
                 ^ one_seg[2][(group >> _np.uint32(16)) & 0xFF]
                 ^ one_seg[3][group >> _np.uint32(24)])
        shift[-1 - k] = group
    descending = _np.arange(_TWO_LEVEL_MIN - 1, -1, -1)
    from_end = _np.arange(_CHUNK - 1, -1, -1)
    _NUMPY_TABLES = (
        contrib.ravel(),
        (descending * 256).astype(_np.uint32),
        (from_end % _SEG * 256).astype(_np.uint16),
        shift.ravel(),
        (_np.arange(count * 4) * 256).astype(_np.uint32),
    )
    return _NUMPY_TABLES


def _ensure_slice8() -> None:
    global _SLICE8
    if _SLICE8 is not None:
        return
    # tables[k][b] = contribution of byte b followed by k zero bytes.
    tables = [_TABLE]
    for _ in range(7):
        prev = tables[-1]
        tables.append([_TABLE[v & 0xFF] ^ (v >> 8) for v in prev])
    t0, t1, t2, t3, t4, t5, t6, t7 = tables
    # Pair adjacent byte tables into 16-bit-indexed tables so one lookup
    # covers two message bytes.
    _SLICE8 = (
        [t7[w & 0xFF] ^ t6[w >> 8] for w in range(65536)],
        [t5[w & 0xFF] ^ t4[w >> 8] for w in range(65536)],
        [t3[w & 0xFF] ^ t2[w >> 8] for w in range(65536)],
        [t1[w & 0xFF] ^ t0[w >> 8] for w in range(65536)],
    )


def _crc_bytes(data, crc: int) -> int:
    """Byte-at-a-time state update (``crc`` already init-XORed)."""
    table = _TABLE
    for byte in data:
        crc = table[(crc ^ byte) & 0xFF] ^ (crc >> 8)
    return crc


def _crc_numpy(data, crc: int) -> int:
    (contrib, one_level_offsets, segment_offsets, shift,
     shift_offsets) = _NUMPY_TABLES or _build_numpy_tables()
    xor_reduce = _np.bitwise_xor.reduce
    message = _np.frombuffer(data, dtype=_np.uint8)
    for pos in range(0, len(message), _CHUNK):
        run = message[pos:pos + _CHUNK]
        n = len(run)
        if n < _BULK_MIN:
            # What a long message leaves after its last full chunk.
            crc = _crc_bytes(run.tolist(), crc)
            continue
        two_level = n >= _TWO_LEVEL_MIN
        # Flat table index of every byte, the running state folded into
        # the first four: offsets are multiples of 256, so the XOR lands
        # on the byte part alone.
        indices = run + (segment_offsets if two_level
                         else one_level_offsets)[-n:]
        indices[:4] ^= _np.frombuffer(crc.to_bytes(4, "little"),
                                      dtype=_np.uint8)
        if not two_level:
            crc = int(xor_reduce(contrib.take(indices)))
            continue
        # Level 1.  The first segment may be short: its missing leading
        # entries stay zero, which is what absent bytes contribute.
        segments = -(-n // _SEG)
        gathered = _np.zeros(segments * _SEG, dtype=contrib.dtype)
        contrib.take(indices, mode="clip",
                     out=gathered[segments * _SEG - n:])
        values = xor_reduce(gathered.reshape(segments, _SEG), axis=1)
        # Level 2: four lookups per segment value, by its distance from
        # the end.
        crc = int(xor_reduce(shift.take(
            values.view(_np.uint8) + shift_offsets[-4 * segments:])))
    return crc


def _crc_slice8(data, crc: int) -> int:
    _ensure_slice8()
    v3, v2, v1, v0 = _SLICE8
    view = memoryview(data)
    n8 = len(view) - (len(view) % 8)
    for (word,) in _STEP8.iter_unpack(view[:n8]):
        x = word ^ crc
        crc = (v3[x & 0xFFFF] ^ v2[(x >> 16) & 0xFFFF]
               ^ v1[(x >> 32) & 0xFFFF] ^ v0[x >> 48])
    return _crc_bytes(view[n8:], crc)


def crc32c(data, value: int = 0) -> int:
    """Return the CRC32C of ``data``, extending a running ``value``.

    ``data`` may be ``bytes``, ``bytearray`` or a ``memoryview`` — the
    message is not copied on any path.
    """
    crc = value ^ _U32
    if len(data) < _BULK_MIN:
        crc = _crc_bytes(data, crc)
    elif _np is not None:
        crc = _crc_numpy(data, crc)
    else:
        crc = _crc_slice8(data, crc)
    return crc ^ _U32


def crc32c_many(blocks) -> list[int]:
    """``[crc32c(b) for b in blocks]``.  Nothing under ``src/`` calls
    this; the name stays because ``benchmarks/e2e/layers.py`` wraps it by
    attribute (see ROADMAP)."""
    return [crc32c(block) for block in blocks]


def mask_crc(crc: int) -> int:
    """Mask a raw CRC for storage (LevelDB's ``crc32c::Mask``)."""
    return (((crc >> 15) | (crc << 17)) + _MASK_DELTA) & _U32


def unmask_crc(masked: int) -> int:
    """Invert :func:`mask_crc`."""
    rot = (masked - _MASK_DELTA) & _U32
    return ((rot >> 17) | (rot << 15)) & _U32
