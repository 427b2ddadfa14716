"""Microbenchmarks of the hot substrate paths (real wall-clock time).

These are the only benchmarks measuring Python execution speed rather
than model output: snappy codec, skiplist insert, SSTable build/read,
CPU merge, and a full functional engine run.
"""

import random

from repro.compress import snappy
from repro.fpga.config import CONFIG_2_INPUT
from repro.fpga.engine import CompactionEngine, simulate_synthetic
from repro.lsm.compaction import compact
from repro.lsm.internal import InternalKeyComparator, TYPE_VALUE, \
    encode_internal_key
from repro.lsm.options import Options
from repro.lsm.skiplist import SkipList
from repro.lsm.sstable import TableReader
from repro.util.comparator import BytewiseComparator

ICMP = InternalKeyComparator(BytewiseComparator())
OPTIONS = Options(compression="none", bloom_bits_per_key=0,
                  sstable_size=1 << 20)


def _entries(count, seed=0):
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(10 ** 9), count))
    return [(encode_internal_key(f"{k:016d}".encode(), i + 1, TYPE_VALUE),
             (f"value-{k}".encode() * 4)[:64])
            for i, k in enumerate(keys)]


def _image(entries):
    from repro.lsm.compaction import _BufferFile
    from repro.lsm.sstable import TableBuilder

    dest = _BufferFile()
    builder = TableBuilder(OPTIONS, dest, ICMP)
    for key, value in entries:
        builder.add(key, value)
    builder.finish()
    return dest.getvalue()


def test_micro_snappy_compress(benchmark):
    data = (b"key-value store compaction " * 200)[:4096]
    compressed = benchmark(snappy.compress, data)
    assert snappy.decompress(compressed) == data


def test_micro_snappy_decompress(benchmark):
    data = (b"key-value store compaction " * 200)[:4096]
    compressed = snappy.compress(data)
    assert benchmark(snappy.decompress, compressed) == data


def test_micro_skiplist_insert(benchmark):
    keys = [f"{i:016d}".encode() for i in random.Random(1).sample(
        range(10 ** 9), 2000)]

    def insert_all():
        skiplist = SkipList()
        for key in keys:
            skiplist.insert(key, key)
        return skiplist

    result = benchmark(insert_all)
    assert len(result) == 2000


def test_micro_sstable_build(benchmark):
    entries = _entries(2000)
    image = benchmark(_image, entries)
    assert len(image) > 0


def test_micro_sstable_scan(benchmark):
    image = _image(_entries(2000))

    def scan():
        return sum(1 for _ in TableReader(image, ICMP, OPTIONS))

    assert benchmark(scan) == 2000


def test_micro_cpu_merge(benchmark):
    left = _entries(1500, seed=1)
    right = _entries(1500, seed=2)

    def merge():
        return compact([iter(left), iter(right)], OPTIONS, ICMP)

    stats = benchmark(merge)
    assert stats.input_pairs == 3000


def test_micro_engine_functional_run(benchmark):
    left = _image(_entries(800, seed=3))
    right = _image(_entries(800, seed=4))
    engine = CompactionEngine(CONFIG_2_INPUT, OPTIONS)

    def run():
        return engine.run_on_images([[left], [right]])

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    assert result.timing.comparer_rounds == 1600


def test_micro_timing_simulator(benchmark):
    def simulate():
        return simulate_synthetic(CONFIG_2_INPUT, [3000, 3000], 16, 512)

    report = benchmark(simulate)
    assert report.comparer_rounds == 6000


def test_micro_wal_append(benchmark):
    from repro.lsm.env import MemEnv
    from repro.lsm.wal import LogWriter

    record = b"batch-payload" * 30

    def append_many():
        env = MemEnv()
        writer = LogWriter(env.new_writable_file("log"))
        for _ in range(500):
            writer.add_record(record)
        return env.file_size("log")

    assert benchmark(append_many) > 500 * len(record)


def test_micro_bloom_build_and_probe(benchmark):
    from repro.lsm.filter import BloomFilterPolicy

    policy = BloomFilterPolicy(10)
    keys = [f"user{i:08d}".encode() for i in range(2000)]

    def build_and_probe():
        data = policy.create_filter(keys)
        hits = sum(policy.key_may_match(k, data) for k in keys[:200])
        return hits

    assert benchmark(build_and_probe) == 200


def test_micro_crc32c(benchmark):
    from repro.util.crc32c import crc32c

    data = bytes(range(256)) * 16

    assert benchmark(crc32c, data) >= 0


def test_micro_system_des_quarter_gb(benchmark):
    from repro.lsm.options import Options
    from repro.sim.system import SystemConfig, simulate_fillrandom

    def run_des():
        return simulate_fillrandom(SystemConfig(
            mode="fcae", options=Options(value_length=512),
            data_size_bytes=1 << 28))

    result = benchmark.pedantic(run_des, rounds=2, iterations=1)
    assert result.throughput_mbps > 0
