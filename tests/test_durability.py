"""Crash-durability matrix: every ``wal_sync`` mode against injected
process and power crashes, plus group-commit semantics.

The recovery contract under test (see DESIGN.md "Durability & group
commit"):

* ``always`` / ``group`` — zero acknowledged writes lost, either crash;
* ``flush`` / ``interval`` — zero acknowledged writes lost to a process
  crash; a power loss loses at most the un-fsynced tail (``interval``:
  the documented sync window);
* ``none`` — no promise at all (the seed's behavior, kept for speed);
* every mode — recovery never invents data: the surviving writes are a
  sequence-order prefix of the acknowledged ones, values intact.
"""

import sys
import threading
import time

import pytest

from repro.errors import InvalidArgumentError, NotFoundError
from repro.lsm import LsmDB, Options, WriteBatch
from repro.lsm.env import MemEnv
from repro.lsm.internal import parse_internal_key
from repro.lsm.options import WAL_SYNC_MODES


def make_options(mode, **overrides):
    base = dict(wal_sync=mode, bloom_bits_per_key=0, compression="none")
    base.update(overrides)
    return Options(**base)


def write_acked(db, count, width=4, start=0):
    """Write ``count`` keys one batch each; returns the acknowledged
    (key, value) pairs in commit order."""
    acked = []
    for i in range(start, start + count):
        key = f"k{i:08d}".encode()
        value = f"v{i:08d}".encode() * width
        db.put(key, value)
        acked.append((key, value))
    return acked


def surviving_prefix(db, acked):
    """Length of the acknowledged prefix still readable in ``db``;
    asserts the survivors form an exact prefix with intact values."""
    present = []
    for key, value in acked:
        try:
            got = db.get(key)
        except NotFoundError:
            break
        assert got == value
        present.append(key)
    # Nothing beyond the first missing key may have survived (prefix
    # property: WAL replay stops at the truncation point).
    for key, _ in acked[len(present):]:
        with pytest.raises(NotFoundError):
            db.get(key)
    return len(present)


class TestCrashMatrix:
    @pytest.mark.parametrize("mode", WAL_SYNC_MODES)
    @pytest.mark.parametrize("crash", ["process", "power"])
    def test_recovery_contract(self, mode, crash):
        env = MemEnv()
        # A huge interval = the worst case for "interval" (no timer
        # fires during the run, so power loss may cost everything
        # unsynced); "flush"'s promise is unaffected.
        options = make_options(mode, wal_sync_interval_seconds=3600.0)
        db = LsmDB("cdb", options, env=env)
        acked = write_acked(db, 120)
        env.crash(crash)
        db2 = LsmDB("cdb", options, env=env)
        survived = surviving_prefix(db2, acked)
        if mode in ("always", "group"):
            assert survived == len(acked)
        elif mode in ("flush", "interval") and crash == "process":
            assert survived == len(acked)
        # none (and flush/interval at power loss): only the prefix
        # property, already asserted by surviving_prefix.
        db2.close()

    def test_none_mode_demonstrates_the_seed_hole(self):
        """The original bug: acknowledged writes sitting in Python's
        userspace buffer vanish on a mere process kill."""
        env = MemEnv()
        options = make_options("none")
        db = LsmDB("cdb", options, env=env)
        acked = write_acked(db, 50)
        env.crash("process")
        db2 = LsmDB("cdb", options, env=env)
        assert surviving_prefix(db2, acked) == 0
        db2.close()

    def test_flush_mode_plugs_it(self):
        """Satellite: even the minimal mode flushes before the ack, so
        a process crash loses nothing acknowledged."""
        env = MemEnv()
        options = make_options("flush")
        db = LsmDB("cdb", options, env=env)
        acked = write_acked(db, 50)
        env.crash("process")
        db2 = LsmDB("cdb", options, env=env)
        assert surviving_prefix(db2, acked) == len(acked)
        db2.close()

    def test_interval_zero_syncs_every_write(self):
        env = MemEnv()
        options = make_options("interval", wal_sync_interval_seconds=0.0)
        db = LsmDB("cdb", options, env=env)
        acked = write_acked(db, 40)
        env.crash("power")
        db2 = LsmDB("cdb", options, env=env)
        assert surviving_prefix(db2, acked) == len(acked)
        db2.close()

    def test_interval_window_bounds_the_loss(self):
        """Everything acknowledged before the last fsync survives a
        power loss; only the post-sync window is at risk."""
        env = MemEnv()
        options = make_options("interval", wal_sync_interval_seconds=3600.0)
        db = LsmDB("cdb", options, env=env)
        acked = write_acked(db, 30)
        with db._mutex:
            db._sync_wal(db._log_file)  # the interval timer firing
        synced_count = len(acked)
        acked += write_acked(db, 30, start=30)
        env.crash("power")
        db2 = LsmDB("cdb", options, env=env)
        assert surviving_prefix(db2, acked) >= synced_count
        db2.close()

    def test_crash_after_flush_keeps_tables(self):
        """Flushed SSTables + manifest survive a power loss (they are
        fsynced before install), so only WAL tail is ever at risk."""
        env = MemEnv()
        options = make_options(
            "flush", write_buffer_size=4 * 1024, sstable_size=8 * 1024,
            block_size=512, max_level0_size=64 * 1024)
        db = LsmDB("cdb", options, env=env)
        acked = write_acked(db, 300)
        db.flush()
        env.crash("power")
        db2 = LsmDB("cdb", options, env=env)
        assert surviving_prefix(db2, acked) == len(acked)
        db2.close()

    def test_unknown_crash_kind_rejected(self):
        with pytest.raises(InvalidArgumentError):
            MemEnv().crash("meteor")


class TestGroupCommit:
    def test_concurrent_acks_all_survive_power_loss(self):
        env = MemEnv()
        options = make_options("group")
        db = LsmDB("gdb", options, env=env)
        acked_per_thread = [[] for _ in range(8)]

        def worker(t):
            for i in range(40):
                key = f"t{t}-{i:04d}".encode()
                db.put(key, key * 3)
                acked_per_thread[t].append(key)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        env.crash("power")
        db2 = LsmDB("gdb", options, env=env)
        for acked in acked_per_thread:
            for key in acked:
                assert db2.get(key) == key * 3
        db2.close()

    def test_groups_amortize_syncs(self):
        """With a slow fsync and concurrent writers, the leader splices
        multiple batches per sync: strictly fewer syncs than commits."""
        env = MemEnv(sync_seconds=2e-3)
        options = make_options("group")
        db = LsmDB("gdb", options, env=env)

        def worker(t):
            for i in range(25):
                db.put(f"w{t}-{i:04d}".encode(), b"v" * 32)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        total_writes = 8 * 25
        hist = db._m.group_commit_batches
        assert hist.count < total_writes  # batching happened
        assert hist.sum == total_writes   # every batch accounted once
        assert int(db._m.wal_syncs.value) == hist.count
        db.close()

    def test_batch_sequences_are_contiguous_across_group(self):
        """A spliced group commits with contiguous sequences; reopening
        replays every member batch."""
        env = MemEnv()
        options = make_options("group")
        db = LsmDB("gdb", options, env=env)
        batch = WriteBatch()
        batch.put(b"a", b"1")
        batch.put(b"b", b"2")
        batch.delete(b"a")
        db.write(batch)
        seq_after = db.versions.last_sequence
        assert seq_after == 3
        env.crash("power")
        db2 = LsmDB("gdb", options, env=env)
        assert db2.get(b"b") == b"2"
        with pytest.raises(NotFoundError):
            db2.get(b"a")
        db2.close()

    def test_always_mode_syncs_every_commit(self):
        env = MemEnv()
        options = make_options("always")
        db = LsmDB("adb", options, env=env)
        write_acked(db, 20)
        assert int(db._m.wal_syncs.value) == 20
        db.close()


class TestOneCommitPath:
    """Every ``wal_sync`` mode commits through the writer queue: the
    leader appends and persists with the mutex released."""

    @pytest.mark.parametrize("mode", ["interval", "always", "group"])
    def test_get_does_not_wait_behind_an_fsync(self, mode):
        env = MemEnv()
        options = make_options(mode, wal_sync_interval_seconds=0.0)
        db = LsmDB("rdb", options, env=env)
        db.put(b"seen", b"1")
        env.sync_seconds = 0.3
        writer = threading.Thread(target=db.put, args=(b"slow", b"2"))
        writer.start()
        time.sleep(0.05)  # the writer is inside its fsync by now
        assert db.get(b"seen") == b"1"
        # The lookup came back while the fsync was still running.
        assert writer.is_alive()
        writer.join(timeout=10)
        assert not writer.is_alive()
        assert db.get(b"slow") == b"2"
        db.close()

    @pytest.mark.parametrize("mode", ["always", "group"])
    def test_flush_racing_a_commit_in_flight_loses_nothing(self, mode):
        """The leader's batch is in the WAL but not yet in the memtable
        while it fsyncs.  A flush must wait it out *before* swapping the
        memtable: swapping first would land the batch in the new
        memtable and then retire the segment holding its only record."""
        env = MemEnv()
        options = make_options(mode)
        db = LsmDB("fdb", options, env=env)
        db.put(b"before", b"0")
        env.sync_seconds = 0.3
        writer = threading.Thread(target=db.put, args=(b"inflight", b"1"))
        writer.start()
        time.sleep(0.05)  # the writer is inside its fsync by now
        env.sync_seconds = 0.0
        db.flush()
        writer.join(timeout=10)
        assert not writer.is_alive()
        env.crash("power")
        db2 = LsmDB("fdb", options, env=env)
        assert db2.get(b"before") == b"0"
        assert db2.get(b"inflight") == b"1"
        db2.close()

    @pytest.mark.parametrize("mode", WAL_SYNC_MODES)
    def test_eight_writers(self, mode):
        """More writers than cores on a short switch interval: every
        commit gets its own contiguous sequence range, every
        acknowledged key is readable, and fsyncs are counted per commit
        (``always``), per group (``group``) or never (``none``/``flush``)."""
        writers, per_writer = 8, 40
        env = MemEnv(sync_seconds=1e-4)
        options = make_options(mode, wal_sync_interval_seconds=3600.0)
        db = LsmDB("qdb", options, env=env)
        errors = []

        def worker(t):
            try:
                for i in range(per_writer):
                    db.put(f"t{t}-{i:04d}".encode(), b"v%d" % i)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(writers)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert errors == []
        assert not any(thread.is_alive() for thread in threads)

        commits = writers * per_writer
        sequences = sorted(parse_internal_key(internal_key).sequence
                           for internal_key, _ in db._mem)
        assert sequences == list(range(1, commits + 1))
        assert db.versions.last_sequence == commits
        for t in range(writers):
            for i in range(per_writer):
                assert db.get(f"t{t}-{i:04d}".encode()) == b"v%d" % i
        assert db.stats.writes == commits
        if mode == "always":
            assert db.stats.wal_syncs == commits
        elif mode == "group":
            assert db.stats.wal_syncs == db.stats.group_commits <= commits
        elif mode in ("none", "flush"):
            assert db.stats.wal_syncs == 0
        db.close()


class TestWalSeeding:
    def test_reopened_wal_segment_appends_cleanly(self):
        """A WAL segment reopened for append (via the seeded block
        offset) replays both generations of records."""
        env = MemEnv()
        options = make_options("flush")
        db = LsmDB("wdb", options, env=env)
        acked = write_acked(db, 10)
        db.close()
        db2 = LsmDB("wdb", options, env=env)
        acked2 = write_acked(db2, 10, start=10)
        db2.close()
        db3 = LsmDB("wdb", options, env=env)
        assert surviving_prefix(db3, acked + acked2) == 20
        db3.close()
