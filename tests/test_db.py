"""LsmDB end-to-end: CRUD, scans, flush/compaction, invariants."""

import random

import pytest

from repro.errors import DBStateError, NotFoundError
from repro.lsm import LsmDB, WriteBatch
from repro.lsm.env import MemEnv
from repro.lsm.options import NUM_LEVELS


@pytest.fixture
def db(options):
    return LsmDB("testdb", options, env=MemEnv())


def key(i: int) -> bytes:
    return f"key{i:012d}".encode()


class TestCrud:
    def test_put_get(self, db):
        db.put(b"hello", b"world")
        assert db.get(b"hello") == b"world"

    def test_get_missing(self, db):
        with pytest.raises(NotFoundError):
            db.get(b"missing")

    def test_overwrite(self, db):
        db.put(b"k", b"v1")
        db.put(b"k", b"v2")
        assert db.get(b"k") == b"v2"

    def test_delete(self, db):
        db.put(b"k", b"v")
        db.delete(b"k")
        with pytest.raises(NotFoundError):
            db.get(b"k")

    def test_delete_missing_is_ok(self, db):
        db.delete(b"never-existed")
        with pytest.raises(NotFoundError):
            db.get(b"never-existed")

    def test_empty_value(self, db):
        db.put(b"k", b"")
        assert db.get(b"k") == b""

    def test_batch_atomicity(self, db):
        batch = WriteBatch()
        batch.put(b"a", b"1")
        batch.put(b"b", b"2")
        batch.delete(b"a")
        db.write(batch)
        with pytest.raises(NotFoundError):
            db.get(b"a")
        assert db.get(b"b") == b"2"

    def test_closed_db_rejects_ops(self, db):
        db.close()
        with pytest.raises(DBStateError):
            db.put(b"k", b"v")
        with pytest.raises(DBStateError):
            db.get(b"k")
        with pytest.raises(DBStateError):
            list(db.scan())
        with pytest.raises(DBStateError):
            db.snapshot()
        with pytest.raises(DBStateError):
            db.flush()


class TestFlushAndCompaction:
    def test_flush_creates_l0_file(self, db):
        for i in range(50):
            db.put(key(i), b"v" * 40)
        db.flush()
        assert db.level_file_counts()[0] >= 1
        assert db.get(key(25)) == b"v" * 40

    def test_values_survive_compaction(self, db):
        for i in range(1200):
            db.put(key(i), f"value-{i}".encode())
        db.compact_range()
        for i in range(0, 1200, 37):
            assert db.get(key(i)) == f"value-{i}".encode()

    def test_deletes_survive_compaction(self, db):
        for i in range(800):
            db.put(key(i), b"x" * 30)
        for i in range(0, 800, 5):
            db.delete(key(i))
        db.compact_range()
        for i in range(800):
            if i % 5 == 0:
                with pytest.raises(NotFoundError):
                    db.get(key(i))
            else:
                assert db.get(key(i)) == b"x" * 30

    def test_compaction_moves_data_down(self, db):
        for i in range(3000):
            db.put(key(i), b"y" * 40)
        db.compact_range()
        counts = db.level_file_counts()
        assert sum(counts[1:]) > 0  # data left level 0

    def test_sorted_levels_disjoint(self, db):
        rng = random.Random(3)
        for _ in range(2500):
            db.put(key(rng.randrange(1500)), b"z" * 40)
        db.compact_range()
        version = db.versions.current
        for level in range(1, NUM_LEVELS):
            files = version.files[level]
            for prev, cur in zip(files, files[1:]):
                assert prev.user_range()[1] < cur.user_range()[0]

    def test_overwrites_reclaimed(self, db):
        for _ in range(4):
            for i in range(400):
                db.put(key(i), bytes(40))
        db.compact_range()
        live_pairs = len(list(db.scan()))
        assert live_pairs == 400


class TestScan:
    def test_full_scan_sorted_unique(self, db):
        rng = random.Random(7)
        expected = {}
        for _ in range(1500):
            i = rng.randrange(700)
            value = f"v{rng.randrange(10**6)}".encode()
            db.put(key(i), value)
            expected[key(i)] = value
        scanned = list(db.scan())
        assert [k for k, _ in scanned] == sorted(expected)
        assert dict(scanned) == expected

    def test_range_scan_bounds(self, db):
        for i in range(100):
            db.put(key(i), b"v")
        result = [k for k, _ in db.scan(start=key(10), end=key(20))]
        assert result == [key(i) for i in range(10, 20)]

    def test_scan_sees_memtable_and_disk(self, db):
        db.put(key(1), b"disk")
        db.flush()
        db.put(key(2), b"mem")
        assert dict(db.scan()) == {key(1): b"disk", key(2): b"mem"}

    def test_scan_skips_tombstones(self, db):
        db.put(key(1), b"v")
        db.flush()
        db.delete(key(1))
        assert list(db.scan()) == []

    def test_scan_newest_version_wins_across_levels(self, db):
        db.put(key(1), b"old")
        db.flush()
        db.put(key(1), b"new")
        assert dict(db.scan()) == {key(1): b"new"}


class TestContextManager:
    def test_with_statement(self, options):
        with LsmDB("ctx", options, env=MemEnv()) as db:
            db.put(b"a", b"1")
        with pytest.raises(DBStateError):
            db.put(b"b", b"2")
