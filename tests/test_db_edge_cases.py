"""DB edge cases: binary keys, big values, degraded configurations."""

import errno
import os
import random
import sys
import threading
import time

import pytest

from repro import obs
from repro.errors import NotFoundError
from repro.lsm import LsmDB, Options, WriteBatch
from repro.lsm.compaction import compact_tables
from repro.lsm.env import MemEnv
from repro.lsm.filenames import table_file_name
from repro.lsm.internal import InternalKeyComparator
from repro.lsm.options import L0_COMPACTION_TRIGGER
from repro.obs.events import EventJournal


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


class FlakyEnv(MemEnv):
    """MemEnv whose next ``fail_next`` creations of a file ending in
    ``suffix`` fail (``.ldb``: a flush's table; ``.log``: a WAL
    segment, the first file a memtable swap creates)."""

    def __init__(self, suffix):
        super().__init__()
        self.suffix = suffix
        self.fail_next = 0

    def new_writable_file(self, name):
        if name.endswith(self.suffix) and self.fail_next > 0:
            self.fail_next -= 1
            raise OSError(f"injected write failure for {name}")
        return super().new_writable_file(name)


VALUE = b"v" * 64


def key(i):
    return f"k{i:04d}".encode()


def fill_memtable(db):
    """Put until the next write has to make room; returns what went in."""
    expected = {}
    for i in range(2000):
        if (int(db.property("repro.approximate-memory-usage"))
                >= db.options.write_buffer_size):
            return expected
        expected[key(i)] = VALUE
        db.put(key(i), VALUE)
    raise AssertionError("the memtable never stayed full")


def table_files(env, name):
    return {f"{name}/{f}" for f in env.list_dir(name) if f.endswith(".ldb")}


def live_tables(db):
    return {table_file_name(db.dbname, meta.number)
            for files in db.versions.current.files for meta in files}


def assert_serves(db, expected):
    """Every committed key is readable by ``get`` and by ``scan``."""
    for k, v in expected.items():
        assert db.get(k) == v
    assert dict(db.scan()) == expected


def assert_reopens_clean(env, name, options, expected):
    """Nothing acknowledged is lost, no table is orphaned, and the
    reopened DB writes, flushes and compacts."""
    with LsmDB(name, options, env=env) as db:
        assert_serves(db, expected)
        assert table_files(env, name) == live_tables(db)
        db.put(b"zz-after-reopen", b"1")
        db.compact_range()
        assert_serves(db, {**expected, b"zz-after-reopen": b"1"})
        assert table_files(env, name) == live_tables(db)


class TestLogRotationFailure:
    """A WAL segment that cannot be created costs nothing: the old
    segment stays open and active and the memtable is not swapped."""

    def test_failed_rotation_in_flush_changes_nothing(self, options):
        env = FlakyEnv(".log")
        db = LsmDB("rot", options, env=env)
        expected = {key(i): VALUE for i in range(100)}
        for k, v in expected.items():
            db.put(k, v)
        files = set(env.list_dir("rot"))
        env.fail_next = 1
        with pytest.raises(OSError, match="injected"):
            db.flush()
        assert set(env.list_dir("rot")) == files
        assert db.level_file_counts()[0] == 0
        assert_serves(db, expected)
        # The open DB is not wedged: the old segment still takes appends.
        for i in range(100, 150):
            expected[key(i)] = VALUE
            db.put(key(i), VALUE)
        db.flush()
        assert db.level_file_counts()[0] == 1
        assert_serves(db, expected)
        db.close()
        assert_reopens_clean(env, "rot", options, expected)

    def test_failed_rotation_on_the_write_path(self, options):
        """The leader that finds the memtable full rotates before it
        swaps: its put gets the error and is not committed, the next
        one makes room and goes through."""
        env = FlakyEnv(".log")
        db = LsmDB("rot-w", options, env=env)
        expected = fill_memtable(db)
        env.fail_next = 1
        with pytest.raises(OSError, match="injected"):
            db.put(b"refused", VALUE)
        with pytest.raises(NotFoundError):
            db.get(b"refused")
        assert db.level_file_counts()[0] == 0
        assert_serves(db, expected)
        expected[b"accepted"] = VALUE
        db.put(b"accepted", VALUE)
        db.flush()
        # The full memtable that put swapped out, then its own.
        assert db.level_file_counts()[0] == 2
        assert_serves(db, expected)
        db.close()
        assert_reopens_clean(env, "rot-w", options, expected)


class TestFlushFailure:
    """A flush whose table cannot be created: every committed write
    stays readable throughout, the partial table is removed, and the
    immutable memtable stays where it is, its flush still due."""

    def fail_one_flush(self, db, env):
        env.fail_next = 1
        with pytest.raises(OSError):
            db.flush()
        assert env.fail_next == 0  # the table's creation did fail
        assert table_files(env, db.dbname) == live_tables(db)

    def test_failed_flush_strands_no_writes(self, options):
        env = FlakyEnv(".ldb")
        db = LsmDB("flaky", options, env=env)
        expected = {key(i): VALUE for i in range(200)}
        for k, v in expected.items():
            db.put(k, v)
        self.fail_one_flush(db, env)
        assert db.level_file_counts()[0] == 0
        assert_serves(db, expected)
        # The retry flushes exactly what the failed flush held.
        db.flush()
        assert db.level_file_counts()[0] == 1
        assert table_files(env, "flaky") == live_tables(db)
        assert_serves(db, expected)
        db.close()
        assert_reopens_clean(env, "flaky", options, expected)

    def test_writes_after_failed_flush_not_lost(self, options):
        env = FlakyEnv(".ldb")
        db = LsmDB("flaky2", options, env=env)
        db.put(b"before", b"1")
        self.fail_one_flush(db, env)
        db.put(b"after", b"2")
        assert_serves(db, {b"before": b"1", b"after": b"2"})
        db.flush()
        # The stranded memtable's table, then the one after it.
        assert db.level_file_counts()[0] == 2
        assert_serves(db, {b"before": b"1", b"after": b"2"})
        db.close()
        assert_reopens_clean(env, "flaky2", options,
                             {b"before": b"1", b"after": b"2"})

    def test_partial_table_file_removed(self, options):
        env = FlakyEnv(".ldb")
        db = LsmDB("flaky3", options, env=env)
        for i in range(50):
            db.put(key(i), VALUE)
        self.fail_one_flush(db, env)
        assert table_files(env, "flaky3") == set()

    def test_failed_flush_on_the_write_path_is_retried(self, options):
        """With no workers the writer that swapped runs the flush: its
        put gets the error and is not committed; the next put retries
        the flush before anything else."""
        env = FlakyEnv(".ldb")
        db = LsmDB("flaky5", options, env=env)
        expected = fill_memtable(db)
        env.fail_next = 1
        with pytest.raises(OSError, match="injected"):
            db.put(b"refused", VALUE)
        with pytest.raises(NotFoundError):
            db.get(b"refused")
        assert db.level_file_counts()[0] == 0
        assert_serves(db, expected)
        expected[b"accepted"] = VALUE
        db.put(b"accepted", VALUE)
        assert db.level_file_counts()[0] == 1
        assert table_files(env, "flaky5") == live_tables(db)
        assert_serves(db, expected)

    def test_reader_sees_every_write_across_failing_flushes(self, options):
        """A reader running throughout: the view published at the swap
        outlives every failed flush of it, and the retry's view holds
        every committed write too."""
        env = FlakyEnv(".ldb")
        db = LsmDB("flaky4", options, env=env)
        committed = [0]
        stop = threading.Event()
        errors = []

        def reader():
            try:
                while not stop.is_set():
                    count = committed[0]
                    for i in range(0, count, 7):
                        assert db.get(key(i)) == VALUE
                    assert len(list(db.scan())) >= count
            except BaseException as error:  # noqa: BLE001
                errors.append(error)

        thread = threading.Thread(target=reader)
        thread.start()
        try:
            for _ in range(6):
                for _ in range(40):
                    db.put(key(committed[0]), VALUE)
                    committed[0] += 1
                self.fail_one_flush(db, env)
                assert db.get(key(committed[0] - 1)) == VALUE
            db.flush()
        finally:
            stop.set()
            thread.join(timeout=30)
        assert not thread.is_alive() and errors == []
        # The first round's memtable, stranded six times over, then one
        # table for everything written since.
        assert db.level_file_counts()[0] == 2
        assert table_files(env, "flaky4") == live_tables(db)
        assert len(dict(db.scan())) == committed[0] == 240


class PointerFailEnv(MemEnv):
    """MemEnv whose next write of the ``CURRENT`` pointer, once armed,
    fails with EIO, whichever file the pointer is written through."""

    def __init__(self):
        super().__init__()
        self.armed = False

    def new_writable_file(self, name):
        dest = super().new_writable_file(name)
        if self.armed and os.path.basename(name).startswith("CURRENT"):
            self.armed = False

            def append(data):
                raise OSError(errno.EIO, f"injected EIO writing {name}")
            dest.append = append
        return dest


class TestManifestInstallFailure:
    def test_failed_current_write_loses_nothing(self, options):
        """An install whose ``CURRENT`` write fails leaves the previous
        pointer, and the MANIFEST it names, in place: the DB reopens and
        every acknowledged write reads back."""
        env = PointerFailEnv()
        db = LsmDB("ptr", options, env=env)
        expected = {}
        for i in range(200):
            expected[key(i)] = VALUE
            db.put(key(i), VALUE)
            if i == 99:
                db.flush()  # the first MANIFEST and CURRENT
        env.armed = True
        with pytest.raises(OSError, match="injected"):
            db.flush()
        assert not env.armed  # the pointer's write did fail
        db.close()
        assert_reopens_clean(env, "ptr", options, expected)


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
        key, and a retry of the compaction on the same handle
        succeeds."""
        env = TableSyncFailEnv()
        db = LsmDB("orphan", options, env=env)
        rng = random.Random(fail_at)
        expected = {}
        for table in range(4):
            for i in range(150):
                k = f"k{(i * 7 + table) % 400:04d}".encode()
                # Incompressible, so the merge rolls over several tables.
                expected[k] = rng.randbytes(48)
                db.put(k, expected[k])
            db.flush()

        before = live_tables(db)
        assert len(before) == 4 and table_files(env, "orphan") == before
        env.fail_at = fail_at
        with pytest.raises(OSError):
            db.compact_range()
        assert env.fail_at == 0  # the armed sync did fire
        assert live_tables(db) == before
        assert table_files(env, "orphan") == before
        assert_serves(db, expected)

        db.compact_range()
        assert db.level_file_counts()[0] == 0
        assert table_files(env, "orphan") == live_tables(db)
        assert_serves(db, expected)
        db.close()


class ParkedMerge:
    """A compaction executor (the CPU merge) whose next merge, once
    armed, parks until ``release`` is set: a step held open on the
    thread that runs it."""

    def __init__(self, options):
        self.options = options
        self.icmp = InternalKeyComparator(options.comparator)
        self.armed = False
        self.entered = threading.Event()
        self.release = threading.Event()

    def __call__(self, spec, input_tables, parent_tables, drop):
        if self.armed:
            self.armed = False
            self.entered.set()
            assert self.release.wait(timeout=30)
        return compact_tables(spec.level, input_tables, parent_tables,
                              self.options, self.icmp, drop).outputs, "cpu"


def returns_within(call, seconds=1.0):
    """``call()``'s result, run on another thread; fails instead of
    hanging when it takes longer than ``seconds``."""
    result = []
    thread = threading.Thread(target=lambda: result.append(call()),
                              daemon=True)
    thread.start()
    thread.join(timeout=seconds)
    assert not thread.is_alive(), f"{call} waited on a running step"
    return result[0]


def fill_level0(db):
    """Flush tables until a level-0 merge is due; returns what went in."""
    expected = {}
    for table in range(L0_COMPACTION_TRIGGER):
        for i in range(50):
            expected[key(i * 3 + table)] = VALUE
            db.put(key(i * 3 + table), VALUE)
        db.flush()
    assert db.level_file_counts()[0] == L0_COMPACTION_TRIGGER
    return expected


class TestStepsRunWithoutTheMutex:
    """The caller runs a step with the DB mutex released.  Other callers
    read, report and queue beside it; a DB runs one step at a time; and
    ``close()`` waits for a step still running on a caller's thread."""

    def test_other_callers_are_not_blocked_by_a_running_merge(self, options):
        merge = ParkedMerge(options)
        db = LsmDB("parked", options, env=MemEnv(), compaction_executor=merge)
        expected = fill_level0(db)
        merge.armed = True
        # A's put leads the commit, finds the merge due and runs it.
        writer_a = threading.Thread(target=db.put, args=(b"a", VALUE))
        writer_b = threading.Thread(target=db.put, args=(b"b", VALUE))
        writer_a.start()
        try:
            assert merge.entered.wait(timeout=10)
            returns_within(db.snapshot).close()
            level0 = str(L0_COMPACTION_TRIGGER)
            assert returns_within(db.level_file_counts)[0] == int(level0)
            assert returns_within(
                lambda: db.property("repro.num-files-at-level0")) == level0
            assert "level 0" in returns_within(
                lambda: db.property("repro.stats"))
            writer_b.start()
            deadline = time.monotonic() + 1.0
            while len(db._writers) < 2 and time.monotonic() < deadline:
                time.sleep(0.001)
            assert len(db._writers) == 2, "B's put never joined the queue"
            assert writer_b.is_alive()  # queued behind A, which leads
        finally:
            merge.release.set()
            writer_a.join(timeout=10)
            if writer_b.ident is not None:
                writer_b.join(timeout=10)
        assert not writer_a.is_alive() and not writer_b.is_alive()
        assert db.level_file_counts()[0] == 0
        assert_serves(db, {**expected, b"a": VALUE, b"b": VALUE})
        db.close()

    def test_one_step_at_a_time(self, options):
        """A flush asked for while a merge runs waits for the merge."""
        merge = ParkedMerge(options)
        db = LsmDB("onestep", options, env=MemEnv(),
                   compaction_executor=merge)
        for table in range(2):
            db.put(key(table), VALUE)
            db.flush()
        merge.armed = True
        merger = threading.Thread(target=db.compact_once, args=(0,))
        flusher = threading.Thread(target=db.flush)
        merger.start()
        try:
            assert merge.entered.wait(timeout=10)
            db.put(b"late", VALUE)
            flusher.start()
            flusher.join(0.5)
            assert flusher.is_alive(), "a flush ran beside a merge"
            assert db.stats.flushes == 2
        finally:
            merge.release.set()
            merger.join(timeout=10)
            if flusher.ident is not None:
                flusher.join(timeout=10)
        assert not merger.is_alive() and not flusher.is_alive()
        assert db.stats.flushes == 3 and db.stats.compactions == 1
        assert db.get(b"late") == VALUE
        db.close()

    def test_concurrent_callers_flush_each_memtable_once(self, options):
        class LogCountingEnv(MemEnv):
            logs = 0

            def new_writable_file(self, name):
                if name.endswith(".log"):
                    self.logs += 1  # one per rotation: under the DB mutex
                return super().new_writable_file(name)

        env = LogCountingEnv()
        journal = EventJournal(keep_events=True)
        tiny = Options(block_size=512, sstable_size=4 * 1024,
                       write_buffer_size=2 * 1024,
                       max_level0_size=16 * 1024, compression="snappy")
        with obs.scoped(events=journal):
            db = LsmDB("stress", tiny, env=env)
        acked = {}
        errors = []
        writing = threading.Event()
        writing.set()

        def guarded(body):
            def run():
                try:
                    body()
                except Exception as error:  # noqa: BLE001
                    errors.append(error)
            return run

        def writer(wid):
            for i in range(100):
                k = f"w{wid}-{i:04d}".encode()
                db.put(k, k * 6)
                acked[k] = k * 6

        def while_writing(call):
            while writing.is_set():
                call()
                time.sleep(0.002)

        writers = [threading.Thread(target=guarded(lambda w=w: writer(w)))
                   for w in range(4)]
        others = [threading.Thread(target=guarded(lambda c=c: while_writing(c)))
                  for c in (db.flush, db.compact_range)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-4)  # interleave the six threads finely
        try:
            for thread in writers + others:
                thread.start()
            for thread in writers:
                thread.join(timeout=60)
            writing.clear()
            for thread in others:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in writers + others)
        assert errors == []  # no overlapping-files install, no lost race
        flush_starts = sum(1 for e in journal.events
                           if e["type"] == "flush_start")
        swaps = env.logs - 1  # the first segment came with the open
        assert flush_starts == swaps > L0_COMPACTION_TRIGGER
        assert db.stats.compactions > 0
        assert_serves(db, acked)
        db.close()
        assert_reopens_clean(env, "stress", tiny, acked)

    def test_close_waits_for_a_running_step(self, options):
        env = MemEnv()
        merge = ParkedMerge(options)
        db = LsmDB("closing", options, env=env, compaction_executor=merge)
        expected = fill_level0(db)
        merge.armed = True
        step = threading.Thread(target=db.compact_range)
        level0_at_close = []
        closer = threading.Thread(target=lambda: (
            db.close(),
            level0_at_close.append(db.versions.current.num_files(0))))
        step.start()
        try:
            assert merge.entered.wait(timeout=10)
            # The parked step holds no lock ...
            assert returns_within(
                lambda: db.property("repro.num-files-at-level0")) == str(
                    L0_COMPACTION_TRIGGER)
            # ... and close() waits for it.
            closer.start()
            closer.join(timeout=0.3)
            assert closer.is_alive()
        finally:
            merge.release.set()
            step.join(timeout=10)
            if closer.ident is not None:
                closer.join(timeout=10)
        assert not step.is_alive() and not closer.is_alive()
        assert level0_at_close == [0]  # installed before close returned
        assert_reopens_clean(env, "closing", options, expected)
