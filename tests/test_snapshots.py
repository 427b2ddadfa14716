"""Snapshot reads: point-in-time gets and scans."""

import hashlib
import random
import threading

import pytest

from repro.errors import DBStateError, NotFoundError
from repro.lsm import LsmDB, Options
from repro.lsm.db import Snapshot
from repro.lsm.env import MemEnv


@pytest.fixture
def db(options):
    return LsmDB("snapdb", options, env=MemEnv())


class TestSnapshotGet:
    def test_sees_value_at_capture_time(self, db):
        db.put(b"k", b"v1")
        snap = db.snapshot()
        db.put(b"k", b"v2")
        assert db.get(b"k") == b"v2"
        assert db.get(b"k", snapshot=snap) == b"v1"

    def test_key_created_after_snapshot_invisible(self, db):
        snap = db.snapshot()
        db.put(b"new", b"v")
        with pytest.raises(NotFoundError):
            db.get(b"new", snapshot=snap)

    def test_delete_after_snapshot_invisible(self, db):
        db.put(b"k", b"v")
        snap = db.snapshot()
        db.delete(b"k")
        with pytest.raises(NotFoundError):
            db.get(b"k")
        assert db.get(b"k", snapshot=snap) == b"v"

    def test_snapshot_survives_flush(self, db):
        db.put(b"k", b"v1")
        snap = db.snapshot()
        db.put(b"k", b"v2")
        db.flush()
        assert db.get(b"k", snapshot=snap) == b"v1"

    def test_foreign_snapshot_rejected(self, db, options):
        other = LsmDB("otherdb", options, env=MemEnv())
        snap = other.snapshot()
        db.put(b"k", b"v")
        with pytest.raises(DBStateError):
            db.get(b"k", snapshot=snap)

    def test_repr(self, db):
        snap = db.snapshot()
        assert "Snapshot" in repr(snap)
        assert isinstance(snap, Snapshot)


class TestSnapshotScan:
    def test_scan_at_snapshot(self, db):
        db.put(b"a", b"1")
        db.put(b"b", b"2")
        snap = db.snapshot()
        db.put(b"c", b"3")
        db.delete(b"a")
        db.put(b"b", b"2-new")
        now = dict(db.scan())
        then = dict(db.scan(snapshot=snap))
        assert now == {b"b": b"2-new", b"c": b"3"}
        assert then == {b"a": b"1", b"b": b"2"}

    def test_scan_snapshot_across_flush(self, db):
        for i in range(50):
            db.put(f"k{i:04d}".encode(), b"old")
        snap = db.snapshot()
        db.flush()
        for i in range(50):
            db.put(f"k{i:04d}".encode(), b"new")
        then = dict(db.scan(snapshot=snap))
        assert all(v == b"old" for v in then.values())
        assert len(then) == 50


class TestSnapshotWithRange:
    def test_scan_range_and_snapshot_compose(self, db):
        for i in range(20):
            db.put(f"k{i:03d}".encode(), b"old")
        snap = db.snapshot()
        for i in range(20):
            db.put(f"k{i:03d}".encode(), b"new")
        window = dict(db.scan(start=b"k005", end=b"k010", snapshot=snap))
        assert window == {f"k{i:03d}".encode(): b"old"
                          for i in range(5, 10)}

    def test_snapshot_sequence_ordering(self, db):
        first = db.snapshot()
        db.put(b"x", b"1")
        second = db.snapshot()
        assert second.sequence > first.sequence


class TestSnapshotRegistry:
    def test_release_is_idempotent(self, db):
        snap = db.snapshot()
        assert not snap.released
        snap.close()
        assert snap.released
        snap.close()  # no-op
        assert db._smallest_live_snapshot_locked() is None

    def test_context_manager_releases(self, db):
        db.put(b"k", b"v")
        with db.snapshot() as snap:
            assert db._smallest_live_snapshot_locked() == snap.sequence
        assert snap.released
        assert db._smallest_live_snapshot_locked() is None

    def test_refcounted_same_sequence(self, db):
        db.put(b"k", b"v")
        first = db.snapshot()
        second = db.snapshot()
        assert first.sequence == second.sequence
        first.close()
        assert db._smallest_live_snapshot_locked() == second.sequence
        second.close()
        assert db._smallest_live_snapshot_locked() is None

    def test_smallest_wins(self, db):
        old = db.snapshot()
        db.put(b"x", b"1")
        new = db.snapshot()
        assert db._smallest_live_snapshot_locked() == old.sequence
        old.close()
        assert db._smallest_live_snapshot_locked() == new.sequence
        new.close()

    def test_live_gauge(self, db):
        a = db.snapshot()
        b = db.snapshot()
        assert db._m.snapshots_live.value == 2
        a.close()
        b.close()
        assert db._m.snapshots_live.value == 0


class TestSnapshotCompaction:
    """Compaction must keep, per user key, the newest version at or
    below every live snapshot (the removed 'read-only windows' caveat)."""

    def _churn(self, db, rounds, payload):
        for r in range(rounds):
            for i in range(60):
                db.put(f"k{i:03d}".encode(), payload(r, i))
            db.flush()

    def test_snapshot_survives_full_compaction(self, db):
        for i in range(60):
            db.put(f"k{i:03d}".encode(), b"old")
        snap = db.snapshot()
        self._churn(db, 4, lambda r, i: f"new{r}".encode())
        db.compact_range()
        assert db._m.snapshot_merges.value > 0
        for i in range(60):
            key = f"k{i:03d}".encode()
            assert db.get(key, snapshot=snap) == b"old"
            assert db.get(key) == b"new3"
        snap.close()

    def test_delete_under_snapshot_survives_compaction(self, db):
        db.put(b"doomed", b"precious")
        snap = db.snapshot()
        db.delete(b"doomed")
        self._churn(db, 3, lambda r, i: bytes(8))
        db.compact_range()
        assert db.get(b"doomed", snapshot=snap) == b"precious"
        with pytest.raises(NotFoundError):
            db.get(b"doomed")
        snap.close()

    def test_scan_at_snapshot_after_compaction(self, db):
        for i in range(40):
            db.put(f"k{i:03d}".encode(), b"v1")
        snap = db.snapshot()
        for i in range(40):
            if i % 2:
                db.delete(f"k{i:03d}".encode())
            else:
                db.put(f"k{i:03d}".encode(), b"v2")
        db.compact_range()
        then = dict(db.scan(snapshot=snap))
        assert then == {f"k{i:03d}".encode(): b"v1" for i in range(40)}
        now = dict(db.scan())
        assert now == {f"k{i:03d}".encode(): b"v2"
                       for i in range(0, 40, 2)}
        snap.close()

    def test_released_snapshot_lets_compaction_collect(self, db):
        for i in range(60):
            db.put(f"k{i:03d}".encode(), b"old")
        snap = db.snapshot()
        snap.close()
        self._churn(db, 3, lambda r, i: b"new")
        db.compact_range()
        # No live snapshot: the newest-only merge ran, not the
        # snapshot-preserving one.
        assert db._m.snapshot_merges.value == 0

    def test_snapshot_under_concurrent_compaction(self, options):
        """Merges run by a second thread calling ``compact_range()``
        beside the writer keep what the snapshot reads."""
        from repro.obs.registry import MetricsRegistry

        db = LsmDB("snap-bg", options, env=MemEnv(),
                   metrics=MetricsRegistry())
        writing = threading.Event()
        errors = []

        def compact_while_writing():
            try:
                while writing.is_set():
                    db.compact_range()
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        compactor = threading.Thread(target=compact_while_writing)
        try:
            for i in range(300):
                db.put(f"k{i:04d}".encode(), b"old" * 8)
            snap = db.snapshot()
            writing.set()
            compactor.start()
            for round_ in range(4):
                for i in range(300):
                    db.put(f"k{i:04d}".encode(),
                           f"new{round_}".encode() * 8)
            writing.clear()
            compactor.join(timeout=60)
            assert not compactor.is_alive() and errors == []
            db.compact_range()
            for i in range(0, 300, 23):
                key = f"k{i:04d}".encode()
                assert db.get(key, snapshot=snap) == b"old" * 8
                assert db.get(key) == b"new3" * 8
            snap.close()
        finally:
            writing.clear()
            db.close()


def test_merge_under_snapshot_keeps_each_user_key_in_one_table():
    """Merges under a held snapshot keep two versions of some user keys;
    no table may be cut between them, or the level's user-key ranges
    overlap and the next install fails."""
    db = LsmDB("split", Options(write_buffer_size=32 << 10,
                                sstable_size=16 << 10,
                                max_level0_size=64 << 10), env=MemEnv())
    rng = random.Random(11)
    model, snap = {}, None
    for i in range(4000):
        if i == 1500:
            snap, then = db.snapshot(), dict(model)
        if i == 3000:
            assert dict(db.scan(snapshot=snap)) == then
            snap.close()
        key = b"%016d" % rng.randrange(3000)
        if i % 29 == 0:
            db.delete(key)
            model.pop(key, None)
        else:
            head = rng.choice((1, 1, 1, 2, 2, 3)).to_bytes(8, "big")
            model[key] = (head + hashlib.shake_128(head + key).digest(60)
                          + head[-1:] * 60)
            db.put(key, model[key])
    assert db._m.snapshot_merges.value > 0
    assert all(db.level_file_counts()[1:3])
    for files in db.versions.current.files[1:]:
        ranges = [meta.user_range() for meta in files]
        assert all(prev[1] < cur[0] for prev, cur in zip(ranges, ranges[1:]))
    assert dict(db.scan()) == model
    db.close()
