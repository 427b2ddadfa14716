"""db_bench workload generator."""

import pytest

from repro.compress import snappy
from repro.errors import InvalidArgumentError
from repro.lsm import LsmDB, Options
from repro.lsm.env import MemEnv
from repro.workloads.dbbench import DbBench, FillMode


class TestGeneration:
    def test_fillseq_is_ordered(self):
        bench = DbBench(100, value_length=32)
        keys = [k for k, _ in bench.fill(FillMode.SEQUENTIAL)]
        assert keys == sorted(keys)
        assert len(keys) == 100

    def test_fillrandom_covers_count(self):
        bench = DbBench(100, value_length=32)
        pairs = list(bench.fill(FillMode.RANDOM))
        assert len(pairs) == 100

    def test_key_geometry(self):
        bench = DbBench(1000, key_length=16)
        assert len(bench.key_for(5)) == 16
        assert bench.key_for(5) == b"0000000000000005"

    def test_value_geometry(self):
        bench = DbBench(10, value_length=128)
        assert len(bench.value_for(3)) == 128

    def test_values_compress_about_half(self):
        """A block of values must not compress away: ``lsm fill``'s
        write amplification reads below 1 when it does."""
        bench = DbBench(1000, value_length=128)
        block = b"".join(bench.value_for(i) for i in range(30))
        assert len(snappy.compress(block)) >= 0.4 * len(block)

    def test_user_bytes(self):
        bench = DbBench(10, key_length=16, value_length=84)
        assert bench.user_bytes == 1000

    def test_bad_args(self):
        with pytest.raises(InvalidArgumentError):
            DbBench(0)
        with pytest.raises(InvalidArgumentError):
            DbBench(10, key_length=4)


class TestAgainstDb:
    def test_fill_and_read(self):
        options = Options(write_buffer_size=32 * 1024,
                          sstable_size=16 * 1024, compression="none",
                          bloom_bits_per_key=0)
        db = LsmDB("bench", options, env=MemEnv())
        bench = DbBench(500, value_length=48, seed=11)
        written = bench.run_fill(db, FillMode.RANDOM)
        assert written == 500 * (16 + 48)
        # The same seed replays the fill; fillrandom hits ~63% of the
        # keyspace, and every key written reads back its value.
        expected = dict(DbBench(500, value_length=48,
                                seed=11).fill(FillMode.RANDOM))
        assert len(expected) > 250
        for key, value in expected.items():
            assert db.get(key) == value

    def test_fillseq_readable(self):
        options = Options(write_buffer_size=32 * 1024,
                          sstable_size=16 * 1024, compression="none",
                          bloom_bits_per_key=0)
        db = LsmDB("bench2", options, env=MemEnv())
        bench = DbBench(300, value_length=48)
        bench.run_fill(db, FillMode.SEQUENTIAL)
        for i in (0, 150, 299):
            assert db.get(bench.key_for(i)) == bench.value_for(i)

