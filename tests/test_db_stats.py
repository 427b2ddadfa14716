"""DbStats observability counters."""

import pytest

from repro.errors import NotFoundError
from repro.lsm import LsmDB, Options
from repro.lsm.env import MemEnv


@pytest.fixture
def db(options):
    return LsmDB("statsdb", options, env=MemEnv())


class TestCounters:
    def test_writes_counted(self, db):
        for i in range(10):
            db.put(f"k{i}".encode(), b"value")
        assert db.stats.writes == 10
        assert db.stats.write_bytes == sum(
            len(f"k{i}") + 5 for i in range(10))

    def test_deletes_count_as_writes(self, db):
        db.delete(b"ghost")
        assert db.stats.writes == 1

    def test_reads_and_hits(self, db):
        db.put(b"k", b"v")
        db.get(b"k")
        with pytest.raises(NotFoundError):
            db.get(b"missing")
        assert db.stats.reads == 2
        assert db.stats.read_hits == 1

    def test_flush_counters(self, db):
        for i in range(100):
            db.put(f"k{i:06d}".encode(), b"x" * 50)
        db.flush()
        assert db.stats.flushes >= 1
        assert db.stats.flush_bytes > 0

    def test_compaction_counters(self, db):
        for i in range(3000):
            db.put(f"k{i:010d}".encode(), b"x" * 40)
        db.compact_range()
        assert db.stats.compactions >= 1
        assert db.stats.compaction_input_bytes > 0
        assert db.stats.compaction_output_bytes > 0

    def test_write_amplification(self, db):
        import random
        assert db.stats.write_amplification == 0.0
        rng = random.Random(5)
        for i in range(3000):
            # Incompressible values, so physical bytes track user bytes.
            db.put(f"k{i:010d}".encode(), rng.randbytes(40))
        db.compact_range()
        # Data was flushed once and rewritten at least once.
        assert db.stats.write_amplification > 1.0

    def test_stall_counter_tracks_l0_stop(self, options):
        from repro.lsm.options import L0_STOP_TRIGGER

        db = LsmDB("stalldb", options, env=MemEnv())
        # Hold merges off while L0 fills (an instance attribute shadows
        # the method until the ``del``).
        db.versions.needs_compaction = lambda: False
        for batch in range(L0_STOP_TRIGGER):
            for i in range(200):
                db.put(f"k{batch:03d}{i:07d}".encode(), b"x" * 40)
            db.flush()
        assert db.versions.current.num_files(0) >= L0_STOP_TRIGGER
        # Fill the memtable past the buffer size, then let one write run
        # maintenance: full memtable + full L0 is the stop condition.
        for i in range(600):
            db.put(f"z{i:09d}".encode(), b"x" * 40)
        del db.versions.needs_compaction
        db.put(b"trigger", b"x")
        assert db.stats.stalls >= 1
        assert db.stats.stalls == db.stats.stall_episodes


class TestCacheCounters:
    def test_block_cache_hits_and_misses(self, db):
        for i in range(500):
            db.put(f"k{i:08d}".encode(), b"x" * 40)
        db.flush()
        db.get(b"k00000007")  # cold: miss
        db.get(b"k00000007")  # warm: hit
        assert db.stats.block_cache_misses >= 1
        assert db.stats.block_cache_hits >= 1
        assert db.stats.block_cache_hits == db.block_cache.hits
        assert db.stats.block_cache_misses == db.block_cache.misses

    def test_hit_ratio(self, db):
        assert db.stats.block_cache_hit_ratio == 0.0
        for i in range(500):
            db.put(f"k{i:08d}".encode(), b"x" * 40)
        db.flush()
        for _ in range(5):
            db.get(b"k00000007")
        ratio = db.stats.block_cache_hit_ratio
        hits, misses = db.stats.block_cache_hits, db.stats.block_cache_misses
        assert ratio == hits / (hits + misses)
        assert 0.0 < ratio < 1.0


class TestDictViews:
    def test_as_dict_covers_all_fields(self, db):
        db.put(b"k", b"v")
        db.get(b"k")
        data = db.stats.as_dict()
        assert set(data) == set(db.stats.FIELDS)
        assert data["writes"] == 1
        assert data["reads"] == 1
        assert all(isinstance(v, int) for v in data.values())


class TestClosedDb:
    def test_stats_after_close_include_the_landed_flush(self):
        """``close()`` lands the last sealed memtable; the read-only
        stats views still answer afterwards and count that flush."""
        db = LsmDB("closed", Options(write_buffer_size=64 << 10),
                   env=MemEnv())
        for i in range(3000):
            db.put(f"k{i:08d}".encode(), b"v" * 100)
        flushes = db.stats.flushes
        before = db.level_amplification()[0]
        text = db.property("repro.levelstats")
        db.close()
        assert db.stats.flushes == flushes + 1
        after = db.level_amplification()[0]
        assert after["files"] == before["files"] + 1
        assert after["write_bytes"] > before["write_bytes"]
        assert db.property("repro.levelstats") != text
        assert db.property("repro.num-files-at-level0") == str(after["files"])
