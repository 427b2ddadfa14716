"""CompactionScheduler: Fig 6 routing, DB integration, verification."""

import random

import pytest

from repro.errors import FpgaProtocolError
from repro.fpga.config import CONFIG_2_INPUT, CONFIG_9_INPUT
from repro.host.device import FcaeDevice
from repro.host.scheduler import CompactionScheduler
from repro.lsm import LsmDB
from repro.lsm.compaction import OutputTable
from repro.lsm.env import MemEnv
from repro.lsm.options import Options
from repro.lsm.sstable import TableStats
from repro.lsm.version import CompactionSpec, FileMetaData
from repro.lsm.internal import TYPE_VALUE, encode_internal_key


def small_options():
    return Options(write_buffer_size=24 * 1024, sstable_size=16 * 1024,
                   max_level0_size=48 * 1024, compression="none",
                   value_length=64, bloom_bits_per_key=0)


def spec_with_inputs(level, num_inputs, num_parents):
    def meta(i):
        return FileMetaData(
            i, 1000,
            encode_internal_key(f"{i:04d}".encode(), 1, TYPE_VALUE),
            encode_internal_key(f"{i:04d}x".encode(), 1, TYPE_VALUE))
    return CompactionSpec(
        level=level,
        inputs=[meta(i) for i in range(num_inputs)],
        parents=[meta(100 + i) for i in range(num_parents)])


class TestRouting:
    def test_level0_small_fits_n9(self):
        options = small_options()
        scheduler = CompactionScheduler(
            FcaeDevice(CONFIG_9_INPUT, options), options)
        assert scheduler.pick_backend(
            spec_with_inputs(0, 4, 3)) == "fpga-sim"

    def test_level0_overflows_n2(self):
        options = small_options()
        scheduler = CompactionScheduler(
            FcaeDevice(CONFIG_2_INPUT, options), options)
        assert scheduler.pick_backend(spec_with_inputs(0, 4, 3)) == "cpu"

    def test_deep_level_always_two_streams(self):
        options = small_options()
        scheduler = CompactionScheduler(
            FcaeDevice(CONFIG_2_INPUT, options), options)
        assert scheduler.pick_backend(
            spec_with_inputs(3, 5, 7)) == "fpga-sim"

    def test_level0_exceeding_nine_falls_back(self):
        options = small_options()
        scheduler = CompactionScheduler(
            FcaeDevice(CONFIG_9_INPUT, options), options)
        assert scheduler.pick_backend(spec_with_inputs(0, 10, 2)) == "cpu"


class TestDbIntegration:
    def test_db_with_fpga_executor_is_consistent(self):
        options = small_options()
        device = FcaeDevice(CONFIG_9_INPUT, options)
        scheduler = CompactionScheduler(device, options)
        db = LsmDB("fdb", options, env=MemEnv(),
                   compaction_executor=scheduler)
        rng = random.Random(17)
        expected = {}
        for i in range(4000):
            key = f"user{rng.randrange(1500):010d}".encode()
            value = f"payload-{i}".encode().ljust(64, b".")
            db.put(key, value)
            expected[key] = value
            if rng.random() < 0.05:
                victim = f"user{rng.randrange(1500):010d}".encode()
                db.delete(victim)
                expected.pop(victim, None)
        db.compact_range()
        assert scheduler.stats.fpga_tasks > 0
        for key, value in list(expected.items())[::13]:
            assert db.get(key) == value
        scanned = dict(db.scan())
        assert scanned == expected

    def test_stats_accumulate(self):
        options = small_options()
        device = FcaeDevice(CONFIG_9_INPUT, options)
        scheduler = CompactionScheduler(device, options)
        db = LsmDB("fdb", options, env=MemEnv(),
                   compaction_executor=scheduler)
        for i in range(3000):
            db.put(f"k{i:012d}".encode(), b"v" * 64)
        db.compact_range()
        stats = scheduler.stats
        assert stats.fpga_input_bytes > 0
        assert stats.fpga_kernel_seconds > 0
        assert stats.fpga_pcie_seconds > 0
        assert 0 < stats.pcie_fraction_of_offload < 0.5

    def test_as_dict(self):
        from repro.host.scheduler import SchedulerStats

        options = small_options()
        device = FcaeDevice(CONFIG_9_INPUT, options)
        scheduler = CompactionScheduler(device, options)
        db = LsmDB("fdb", options, env=MemEnv(),
                   compaction_executor=scheduler)
        for i in range(3000):
            db.put(f"k{i:012d}".encode(), b"v" * 64)
        db.compact_range()

        data = scheduler.stats.as_dict()
        expected_keys = set(SchedulerStats.INT_FIELDS) \
            | set(SchedulerStats.FLOAT_FIELDS)
        assert set(data) == expected_keys
        assert data["fpga_tasks"] == scheduler.stats.fpga_tasks
        assert data["fpga_kernel_seconds"] \
            == scheduler.stats.fpga_kernel_seconds


class TestVerification:
    def test_overlapping_outputs_detected(self):
        options = small_options()
        scheduler = CompactionScheduler(
            FcaeDevice(CONFIG_9_INPUT, options), options)
        k1 = encode_internal_key(b"a", 1, TYPE_VALUE)
        k2 = encode_internal_key(b"m", 1, TYPE_VALUE)
        k3 = encode_internal_key(b"c", 1, TYPE_VALUE)
        k4 = encode_internal_key(b"z", 1, TYPE_VALUE)
        bad = [
            OutputTable(b"", k1, k2, TableStats()),
            OutputTable(b"", k3, k4, TableStats()),  # overlaps previous
        ]
        with pytest.raises(FpgaProtocolError):
            scheduler._verify(bad)

    def test_inverted_range_detected(self):
        options = small_options()
        scheduler = CompactionScheduler(
            FcaeDevice(CONFIG_9_INPUT, options), options)
        k_small = encode_internal_key(b"a", 1, TYPE_VALUE)
        k_large = encode_internal_key(b"z", 1, TYPE_VALUE)
        bad = [OutputTable(b"", k_large, k_small, TableStats())]
        with pytest.raises(FpgaProtocolError):
            scheduler._verify(bad)
