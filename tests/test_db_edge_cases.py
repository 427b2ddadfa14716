"""DB edge cases: binary keys, big values, degraded configurations."""

import errno
import random
import threading

import pytest

from repro.errors import NotFoundError
from repro.lsm import LsmDB, Options, WriteBatch
from repro.lsm.env import MemEnv
from repro.lsm.filenames import table_file_name


class TestBinaryKeys:
    def test_null_and_ff_bytes(self, options):
        db = LsmDB("edb", options, env=MemEnv())
        keys = [b"\x00", b"\x00\x00", b"\xff", b"\xff\xff", b"a\x00b",
                b"\x00\xff\x00"]
        for i, key in enumerate(keys):
            db.put(key, f"v{i}".encode())
        db.compact_range()
        for i, key in enumerate(keys):
            assert db.get(key) == f"v{i}".encode()
        assert [k for k, _ in db.scan()] == sorted(keys)

    def test_key_is_prefix_of_other(self, options):
        db = LsmDB("edb2", options, env=MemEnv())
        db.put(b"abc", b"short")
        db.put(b"abcdef", b"long")
        db.compact_range()
        assert db.get(b"abc") == b"short"
        assert db.get(b"abcdef") == b"long"

    def test_single_byte_keyspace(self, options):
        db = LsmDB("edb3", options, env=MemEnv())
        for byte in range(256):
            db.put(bytes([byte]), bytes([byte]) * 3)
        db.compact_range()
        assert db.get(b"\x80") == b"\x80\x80\x80"
        assert len(list(db.scan())) == 256


class TestLargeEntries:
    def test_value_larger_than_block(self, options):
        db = LsmDB("big", options, env=MemEnv())
        huge = bytes(range(256)) * 40  # 10 KB > 512 B block
        db.put(b"huge", huge)
        db.flush()
        assert db.get(b"huge") == huge

    def test_value_larger_than_sstable_target(self, options):
        db = LsmDB("big2", options, env=MemEnv())
        monster = b"M" * (options.sstable_size * 2)
        db.put(b"monster", monster)
        db.compact_range()
        assert db.get(b"monster") == monster

    def test_many_versions_of_one_key(self, options):
        db = LsmDB("ver", options, env=MemEnv())
        for i in range(500):
            db.put(b"hot", f"version-{i}".encode())
        db.compact_range()
        assert db.get(b"hot") == b"version-499"
        assert len(list(db.scan())) == 1


class TestDegradedConfigurations:
    def test_no_cache_no_bloom_no_compression(self):
        options = Options(block_size=512, sstable_size=8 * 1024,
                          write_buffer_size=16 * 1024,
                          compression="none", bloom_bits_per_key=0,
                          block_cache_capacity=0)
        db = LsmDB("bare", options, env=MemEnv())
        assert db.block_cache is None
        for i in range(600):
            db.put(f"k{i:08d}".encode(), f"v{i}".encode())
        db.compact_range()
        assert db.get(b"k00000300") == b"v300"
        with pytest.raises(NotFoundError):
            db.get(b"nope")

    def test_empty_batch_is_noop(self, options):
        db = LsmDB("noop", options, env=MemEnv())
        before = db.versions.last_sequence
        db.write(WriteBatch())
        assert db.versions.last_sequence == before

    def test_flush_empty_memtable_is_noop(self, options):
        db = LsmDB("noflush", options, env=MemEnv())
        db.flush()
        assert db.level_file_counts() == [0] * 7

    def test_compact_empty_db(self, options):
        db = LsmDB("empty", options, env=MemEnv())
        db.compact_range()
        assert db.level_file_counts() == [0] * 7

    def test_scan_empty_db(self, options):
        db = LsmDB("empty2", options, env=MemEnv())
        assert list(db.scan()) == []


class TestAutoCompactOff:
    def test_manual_maintenance_only(self, options):
        db = LsmDB("manual", options, env=MemEnv(), auto_compact=False)
        for i in range(3000):
            db.put(f"k{i:08d}".encode(), b"x" * 40)
        # Nothing flushed automatically.
        assert db.level_file_counts() == [0] * 7
        assert db.get(b"k00001500") == b"x" * 40  # served from memtable
        db.flush()
        assert db.level_file_counts()[0] == 1


class FlakyEnv(MemEnv):
    """MemEnv whose next ``new_writable_file`` calls fail on demand."""

    def __init__(self):
        super().__init__()
        self.fail_next = 0

    def new_writable_file(self, name):
        if self.fail_next > 0:
            self.fail_next -= 1
            raise OSError(f"injected write failure for {name}")
        return super().new_writable_file(name)


class TestFlushFailure:
    def test_failed_flush_strands_no_writes(self, options):
        """A flush that dies mid-build must leave every committed write
        readable and re-flushable (no data stranded in ``_imm``)."""
        env = FlakyEnv()
        db = LsmDB("flaky", options, env=env, auto_compact=False)
        for i in range(200):
            db.put(f"k{i:04d}".encode(), b"v" * 64)
        env.fail_next = 1
        with pytest.raises(OSError):
            db.flush()
        # All writes survived the failure...
        assert db._imm is None
        for i in range(0, 200, 13):
            assert db.get(f"k{i:04d}".encode()) == b"v" * 64
        assert len(dict(db.scan())) == 200
        # ...and the retry flushes them to level 0.
        db.flush()
        assert db.versions.current.num_files(0) == 1
        assert len(dict(db.scan())) == 200

    def test_writes_after_failed_flush_not_lost(self, options):
        env = FlakyEnv()
        db = LsmDB("flaky2", options, env=env, auto_compact=False)
        db.put(b"before", b"1")
        env.fail_next = 1
        with pytest.raises(OSError):
            db.flush()
        db.put(b"after", b"2")
        db.flush()
        assert db.get(b"before") == b"1"
        assert db.get(b"after") == b"2"

    def test_reader_sees_every_write_across_failing_flushes(self, options):
        """A reader running throughout: the view published at the swap,
        the one a failed flush republishes and the retry's each hold
        every committed write."""
        env = FlakyEnv()
        db = LsmDB("flaky4", options, env=env, auto_compact=False)
        committed = [0]
        stop = threading.Event()
        errors = []

        def key(i):
            return f"k{i:04d}".encode()

        def reader():
            try:
                while not stop.is_set():
                    count = committed[0]
                    for i in range(0, count, 7):
                        assert db.get(key(i)) == b"v" * 64
                    assert len(list(db.scan())) >= count
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for _ in range(6):
                for _ in range(40):
                    db.put(key(committed[0]), b"v" * 64)
                    committed[0] += 1
                env.fail_next = 1
                with pytest.raises(OSError):
                    db.flush()
                assert db.get(key(committed[0] - 1)) == b"v" * 64
            db.flush()
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not thread.is_alive() and errors == []
        assert db.versions.current.num_files(0) == 1
        assert len(dict(db.scan())) == committed[0] == 240

    def test_partial_table_file_removed(self, options):
        env = FlakyEnv()
        db = LsmDB("flaky3", options, env=env, auto_compact=False)
        for i in range(50):
            db.put(f"k{i:04d}".encode(), b"v" * 64)
        before = set(env.list_dir("flaky3"))
        env.fail_next = 1
        with pytest.raises(OSError):
            db.flush()
        assert set(env.list_dir("flaky3")) == before


class TableSyncFailEnv(MemEnv):
    """MemEnv where the ``fail_at``-th table file opened from now on
    raises EIO from ``sync()`` (0 = never)."""

    def __init__(self):
        super().__init__()
        self.fail_at = 0

    def new_writable_file(self, name):
        dest = super().new_writable_file(name)
        if name.endswith(".ldb") and self.fail_at > 0:
            self.fail_at -= 1
            if self.fail_at == 0:
                def sync():
                    raise OSError(errno.EIO, f"injected EIO syncing {name}")
                dest.sync = sync
        return dest


class TestCompactionFailure:
    @pytest.mark.parametrize("fail_at", [1, 2])
    def test_failed_compaction_leaves_no_orphan_table(self, options,
                                                      fail_at):
        """An output table whose durable close fails is removed along
        with the outputs already written, the DB keeps serving every
        key, and a retry of the compaction succeeds."""
        env = TableSyncFailEnv()
        db = LsmDB("orphan", options, env=env, auto_compact=False)
        rng = random.Random(fail_at)
        expected = {}
        for table in range(4):
            for i in range(150):
                key = f"k{(i * 7 + table) % 400:04d}".encode()
                # Incompressible, so the merge rolls over several tables.
                expected[key] = rng.randbytes(48)
                db.put(key, expected[key])
            db.flush()

        def live_tables():
            return {table_file_name("orphan", meta.number)
                    for files in db.versions.current.files
                    for meta in files}

        def table_files():
            return {f"orphan/{name}" for name in env.list_dir("orphan")
                    if name.endswith(".ldb")}

        before = live_tables()
        assert len(before) == 4 and table_files() == before
        env.fail_at = fail_at
        with pytest.raises(OSError):
            db.compact_once()
        assert env.fail_at == 0  # the armed sync did fire
        assert live_tables() == before
        assert table_files() == before
        for key, value in expected.items():
            assert db.get(key) == value

        assert db.compact_once()
        assert db.versions.current.num_files(0) == 0
        assert table_files() == live_tables()
        assert dict(db.scan()) == expected
