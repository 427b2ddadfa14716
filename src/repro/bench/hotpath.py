"""Hot-path microbenchmarks: real wall-clock time of the substrate the
whole reproduction stands on.

Unlike the paper-figure experiments (deterministic model output), these
rows measure Python execution speed of the hottest paths — CRC32C, the
snappy block codec, the block encoder with and without its helper
process, varint decode, block codec, memtable inserts, bloom build,
SSTable build/scan, the end-to-end CPU merge, point lookups through a
three-level store and the pipeline timing simulator — with a
repeat/warmup harness that reports p50/p95 wall times instead of a
single noisy sample.  The ``obs_*`` rows bound the flight recorder's
cost: put/get loops with observability off vs on.

``fcae-bench hotpath --bench-json BENCH_hotpath.json`` emits the rows in
the schema ``tools/check_regression.py`` understands; the committed
baseline ``benchmarks/baselines/BENCH_hotpath.json`` holds the *seed*
(pre-optimization) numbers — for nine rows those of a later commit,
named in ``benchmarks/test_micro_hotpath.py`` (the ``crc32c_*`` rows did
not measure what a store pays before) — so ``check_regression.py --perf``
gates any future PR from regressing below that, and
``benchmarks/test_micro_hotpath.py`` asserts the speedup floors against
the same file.

Environment knobs: ``REPRO_HOTPATH_REPEAT`` / ``REPRO_HOTPATH_WARMUP``
override the per-bench sample counts (CI quick mode).
"""

from __future__ import annotations

import hashlib
import os
import random

from repro.bench.common import (
    ExperimentResult,
    sample_wall,
    scaled,
    two_input_config,
)
from repro.compress import snappy
from repro.compress.encoder import BlockEncoder
from repro.errors import NotFoundError
from repro.fpga.engine import CompactionEngine, simulate_synthetic
from repro.lsm.block import Block, BlockBuilder
from repro.lsm.compaction import _BufferFile, compact, table_sources
from repro.lsm.db import LsmDB
from repro.lsm.filter import BloomFilterPolicy
from repro.lsm.internal import (
    InternalKeyComparator,
    TYPE_DELETION,
    TYPE_VALUE,
    encode_internal_key,
)
from repro.lsm.memtable import MemTable
from repro.lsm.options import Options
from repro.lsm.sstable import TableBuilder, TableReader
from repro.util.comparator import BytewiseComparator
from repro.util.crc32c import crc32c
from repro.util.varint import decode_varint64, encode_varint64

ICMP = InternalKeyComparator(BytewiseComparator())
#: Codec-focused options: no snappy (the ``snappy_*`` rows time it on its
#: own) and no bloom filter, so the other rows isolate the
#: merge/block/crc paths this suite guards.
OPTIONS = Options(compression="none", bloom_bits_per_key=0,
                  sstable_size=1 << 20)

DEFAULT_REPEAT = 7
DEFAULT_WARMUP = 2


# ----------------------------------------------------------------------
# Workload builders
# ----------------------------------------------------------------------

def _sorted_entries(count: int, seed: int, key_space: int = 10 ** 9,
                    value_len: int = 100) -> list[tuple[bytes, bytes]]:
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(key_space), count))
    return [(encode_internal_key(f"{k:016d}".encode(), i + 1, TYPE_VALUE),
             bytes(rng.randrange(256) for _ in range(4)) * (value_len // 4))
            for i, k in enumerate(keys)]


def _table_image(entries: list[tuple[bytes, bytes]]) -> bytes:
    dest = _BufferFile()
    builder = TableBuilder(OPTIONS, dest, ICMP)
    for key, value in entries:
        builder.add(key, value)
    builder.finish()
    return dest.getvalue()


def _merge_inputs(per_table: int, seed: int = 11
                  ) -> tuple[list[bytes], int]:
    """Four overlapping sorted runs with shadowed versions and
    tombstones — the end-to-end CPU compaction workload."""
    rng = random.Random(seed)
    universe = rng.sample(range(10 ** 9), per_table * 3)
    images = []
    sequence = 1
    for table_no in range(4):
        picks = sorted(rng.sample(universe, per_table))
        entries = []
        for k in picks:
            kind = TYPE_DELETION if rng.random() < 0.05 else TYPE_VALUE
            value = (b"" if kind == TYPE_DELETION
                     else (f"val-{k:016d}-".encode() * 8)[:96])
            entries.append((encode_internal_key(
                f"{k:016d}".encode(), sequence, kind), value))
            sequence += 1
        images.append(_table_image(entries))
    return images, sum(len(img) for img in images)


def _half_compressible_value(key: bytes, version: int) -> bytes:
    """A value of the end-to-end benchmark's shape (built here, not
    imported from it): 128 B — an 8 B per-key version, 60 B of hash
    output and 60 B of one byte, so snappy keeps about 0.55 of it."""
    head = version.to_bytes(8, "big")
    return (head + hashlib.shake_128(head + key).digest(60)
            + bytes([version]) * 60)


def _half_compressible_block(seed: int = 7) -> bytes:
    """One data block of that shape: 16 B user keys under
    :func:`_half_compressible_value`.  Versions are small, as they are
    after a fill that draws keys with replacement: most tails are the
    same byte run."""
    rng = random.Random(seed)
    builder = BlockBuilder(16)
    # 28 such entries are a 4 KiB block.
    for sequence, k in enumerate(sorted(rng.sample(range(33_000), 28)), 1):
        version = rng.choice((1, 1, 1, 2, 2, 3))
        key = f"{k:016d}".encode()
        builder.add(encode_internal_key(key, sequence, TYPE_VALUE),
                    _half_compressible_value(key, version))
    return builder.finish()


def _three_level_db(records: int) -> LsmDB:
    """``records`` even 16 B keys loaded in shuffled order into an
    in-memory store whose geometry pushes tables down to level 2 — at
    6,500 records about seven times its 128 KiB block cache, so a get
    re-reads (checksums and decompresses) most blocks it touches, as in
    the e2e read workloads."""
    db = LsmDB("hotpath-get", Options(
        write_buffer_size=32 << 10, sstable_size=16 << 10,
        max_level0_size=64 << 10, block_cache_capacity=128 << 10))
    keys = [f"{2 * i:016d}".encode() for i in range(records)]
    random.Random(13).shuffle(keys)
    for key in keys:
        db.put(key, _half_compressible_value(key, 1))
    assert all(db.level_file_counts()[:3]), "levels 0-2 must hold tables"
    return db


# ----------------------------------------------------------------------
# The suite
# ----------------------------------------------------------------------

def run(scale: float = 1.0) -> ExperimentResult:
    repeat = int(os.environ.get("REPRO_HOTPATH_REPEAT", DEFAULT_REPEAT))
    warmup = int(os.environ.get("REPRO_HOTPATH_WARMUP", DEFAULT_WARMUP))

    result = ExperimentResult(
        name="hotpath",
        title="Hot-path microbenchmarks (p50/p95 wall time, "
              f"repeat={repeat}, warmup={warmup})",
        columns=["bench", "p50_us", "p95_us", "mb_per_s"],
    )

    (n_block, n_table, n_merge, n_varint, n_pairs, n_tail,
     n_obs, n_get, n_mem) = scaled(
         [256, 2000, 1000, 3000, 1500, 2400, 1200, 300, 33_000], scale)

    # -- crc32c over block-sized payloads ------------------------------
    # One sample is a pass over 64 distinct payloads: a store checksums
    # each block once, so a loop over one payload would time tables that
    # never leave the cache.  4 KiB is a raw data block, 2 KiB what
    # snappy leaves of one (the size a `read_random` get checksums).
    payload_rng = random.Random(23)
    for name, size in (("crc32c_4k", 4096), ("crc32c_2k", 2048)):
        payloads = [payload_rng.randbytes(size) for _ in range(64)]

        def crc_pass(payloads=payloads):
            for payload in payloads:
                crc32c(payload)

        _add(result, name, crc_pass, 64 * size, repeat, warmup)

    # -- snappy over one 4 KB data block -------------------------------
    # `compress` takes the numpy leg when numpy imports; the `_scalar`
    # row times the loop that defines the format, from the same run.
    raw_block = _half_compressible_block()
    compressed_block = snappy.compress(raw_block)
    _add(result, "snappy_compress_4k", lambda: snappy.compress(raw_block),
         len(raw_block), repeat, warmup)
    _add(result, "snappy_compress_4k_scalar",
         lambda: snappy._compress_fragment(raw_block, bytearray()),
         len(raw_block), repeat, warmup)
    _add(result, "snappy_decompress_4k",
         lambda: snappy.decompress(compressed_block), len(raw_block),
         repeat, warmup)

    # -- the encode stage of table writing over 120 data blocks ---------
    # About one `fill_random` merge's output, compressed on this thread
    # alone, then by a block encoder with its helper process (none with
    # fewer than two CPUs: the second row then repeats the first).
    encode_blocks = [_half_compressible_block(seed) for seed in range(120)]
    encode_bytes = sum(map(len, encode_blocks))
    _add(result, "encode_blocks_120_host",
         lambda: [snappy.compress(block) for block in encode_blocks],
         encode_bytes, repeat, warmup)
    block_encoder = BlockEncoder()
    block_encoder.start(timeout=60.0)
    _add(result, "encode_blocks_120",
         lambda: list(block_encoder.encode(
             (block,) for block in encode_blocks)),
         encode_bytes, repeat, warmup)
    block_encoder.close()

    # -- bulk varint decode --------------------------------------------
    rng = random.Random(5)
    varints = [rng.randrange(1 << rng.choice((7, 14, 21, 35, 56)))
               for _ in range(n_varint)]
    stream = b"".join(encode_varint64(v) for v in varints)

    def decode_stream():
        offset = 0
        end = len(stream)
        while offset < end:
            _, offset = decode_varint64(stream, offset)

    _add(result, "varint_decode", decode_stream, len(stream),
         repeat, warmup)

    # -- block codec: full decode and seeks ----------------------------
    block_entries = [(f"key{i:012d}".encode(), b"v" * 48)
                     for i in range(n_block)]
    builder = BlockBuilder(16)
    for key, value in block_entries:
        builder.add(key, value)
    block_image = builder.finish()

    def decode_block():
        count = sum(1 for _ in Block(block_image))
        assert count == n_block

    _add(result, "block_decode", decode_block, len(block_image),
         repeat, warmup)

    probes = [block_entries[i][0]
              for i in range(0, n_block, max(1, n_block // 32))]
    cmp = BytewiseComparator()
    block = Block(block_image)

    def seek_block():
        for probe in probes:
            assert block.seek(probe, cmp) is not None

    _add(result, "block_seek", seek_block,
         len(probes) * len(block_image) // n_block, repeat, warmup)

    # -- memtable inserts and a table's bloom filter --------------------
    # `fill_random`'s shape: 16 B keys drawn with replacement, 128 B
    # values, a new skiplist every 128 KiB, ~190 user keys to a filter.
    rng = random.Random(29)
    mem_keys = [b"%016d" % rng.randrange(n_mem) for _ in range(n_mem)]
    mem_ops = [(sequence, key, _half_compressible_value(key, 1))
               for sequence, key in enumerate(mem_keys, 1)]

    def fill_memtables():
        mem = MemTable(ICMP)
        for sequence, key, value in mem_ops:
            mem.add(sequence, TYPE_VALUE, key, value)
            if mem.approximate_memory_usage >= 128 << 10:
                mem = MemTable(ICMP)

    _add(result, "memtable_add", fill_memtables, n_mem * (16 + 128),
         repeat, warmup)

    filter_keys = sorted(set(mem_keys))[:190]
    policy = BloomFilterPolicy(10)
    _add(result, "bloom_build_190",
         lambda: policy.create_filter(filter_keys), 16 * len(filter_keys),
         repeat, warmup)

    # -- sstable build → scan ------------------------------------------
    table_entries = _sorted_entries(n_table, seed=3, value_len=64)
    entry_bytes = sum(len(k) + len(v) for k, v in table_entries)
    _add(result, "sstable_build", lambda: _table_image(table_entries),
         entry_bytes, repeat, warmup)

    table_image = _table_image(table_entries)

    def scan_table():
        count = sum(1 for _ in TableReader(table_image, ICMP, OPTIONS))
        assert count == n_table

    _add(result, "sstable_scan", scan_table, len(table_image),
         repeat, warmup)

    # -- end-to-end CPU compaction of a 4-input merge ------------------
    merge_images, merge_bytes = _merge_inputs(n_merge)
    merge_readers = [TableReader(img, ICMP, OPTIONS)
                     for img in merge_images]

    def merge_4way():
        stats = compact(table_sources(merge_readers), OPTIONS, ICMP,
                        drop_deletions=True)
        assert stats.input_pairs == 4 * n_merge

    _add(result, "cpu_merge_4way", merge_4way, merge_bytes,
         repeat, warmup)

    # -- pipeline timing simulator -------------------------------------
    config = two_input_config(16)
    pair_bytes = (16 + 8 + 512 + 4) * 2 * n_pairs

    def pipeline_sim():
        report = simulate_synthetic(config, [n_pairs, n_pairs], 16, 512)
        assert report.comparer_rounds == 2 * n_pairs

    _add(result, "pipeline_sim", pipeline_sim, pair_bytes, repeat, warmup)

    # -- functional engine with a long single-input tail ---------------
    head = _table_image(_sorted_entries(max(1, n_tail // 12), seed=21,
                                        key_space=10 ** 6, value_len=64))
    tail = _table_image(_sorted_entries(n_tail, seed=22,
                                        key_space=10 ** 9, value_len=64))
    engine = CompactionEngine(two_input_config(16), OPTIONS)

    def engine_tail():
        engine.run_on_images([[head], [tail]])

    _add(result, "engine_tail_run", engine_tail, len(head) + len(tail),
         repeat, warmup)

    # -- point lookups through a three-level store ----------------------
    # The read path as the e2e budget shows it (memtable miss, one bloom
    # probe per candidate table, index seek, block fetch, block seek):
    # present keys, then absent ones that end at the filters.
    db_records = 6500
    read_db = _three_level_db(db_records)
    rng = random.Random(17)
    present = [f"{2 * i:016d}".encode()
               for i in rng.sample(range(db_records), n_get)]
    missing = [f"{2 * i + 1:016d}".encode()
               for i in rng.sample(range(db_records), n_get)]

    def get_hits():
        for key in present:
            read_db.get(key)

    def get_absent():
        for key in missing:
            try:
                read_db.get(key)
            except NotFoundError:
                continue
            raise AssertionError("absent key found")

    _add(result, "db_get_hit", get_hits, n_get * (16 + 128), repeat, warmup)
    _add(result, "db_get_absent", get_absent, n_get * 16, repeat, warmup)
    read_db.close()

    # -- observability overhead on the put/get path --------------------
    # Same put+get loop against two memtable-only stores: one with the
    # flight recorder off (default options) and one with the journal and
    # latency windows on.
    obs_pairs = [(f"obs{i:012d}".encode(), b"x" * 64)
                 for i in range(n_obs)]
    obs_nbytes = sum(len(k) + len(v) for k, v in obs_pairs)

    def _obs_db(**obs_options) -> LsmDB:
        # 64 MB buffer: the loop never flushes, isolating the per-op
        # instrumentation cost from maintenance work.
        db = LsmDB("hotpath-obs", Options(write_buffer_size=64 << 20,
                                          compression="none",
                                          **obs_options))
        for key, value in obs_pairs:
            db.put(key, value)
        return db

    db_off = _obs_db()
    db_on = _obs_db(event_journal=True, latency_window_seconds=300.0)

    def _put_get(db: LsmDB):
        def fn():
            for key, value in obs_pairs:
                db.put(key, value)
                db.get(key)
        return fn

    _add(result, "obs_put_get_off", _put_get(db_off), 2 * obs_nbytes,
         repeat, warmup)
    _add(result, "obs_put_get_on", _put_get(db_on), 2 * obs_nbytes,
         repeat, warmup)

    result.notes.append(
        "wall-clock rows; gate with tools/check_regression.py --perf "
        "against benchmarks/baselines/BENCH_hotpath.json (seed numbers)")
    return result


def _add(result: ExperimentResult, name: str, fn, nbytes: int,
         repeat: int, warmup: int) -> None:
    p50, p95 = sample_wall(fn, repeat, warmup)
    result.add_row(name, round(p50 * 1e6, 1), round(p95 * 1e6, 1),
                   round(nbytes / p50 / 1e6, 2) if p50 > 0 else 0.0)
