"""The lock-free read path: ``get`` / ``scan`` over the published read
view, beside a writer, flushes and compactions.

* a read never waits for the DB mutex;
* reads stay linearizable enough next to one writer — per key a reader
  never goes back in time, never sees the future, never loses an
  acknowledged key; scans are sorted, duplicate-free cuts;
* an iterator outlives the files it reads (compaction deletes its
  inputs at install; the reader's open handle reads on after the
  unlink: the descriptor on ``OsEnv``, the handle's own image on
  ``MemEnv``);
* superseded tables are freed with the last view or iterator naming
  them — no ref-count of our own, so no leak to find later.
"""

import sys
import threading
import weakref

import pytest

from repro.errors import NotFoundError
from repro.lsm.db import LsmDB
from repro.lsm.env import MemEnv
from repro.lsm.options import Options
from repro.obs.registry import MetricsRegistry

JOIN_SECONDS = 60


def tiny_options(**overrides):
    """Dozens of flushes and merges within a couple of thousand puts."""
    base = dict(write_buffer_size=4 * 1024, sstable_size=4 * 1024,
                max_level0_size=16 * 1024, block_size=512,
                block_cache_capacity=16 * 1024)
    base.update(overrides)
    return Options(**base)


def open_db(name, env=None):
    return LsmDB(name, tiny_options(), env=env or MemEnv(),
                 metrics=MetricsRegistry())


def key(i):
    return b"key%06d" % i


def value(i, version=1):
    return b"%08d:" % version + b"%06d" % i * 9


def version_of(data):
    return int(data[:8])


def table_numbers(db):
    return {meta.number for files in db.versions.current.files
            for meta in files}


def load(db, count):
    for i in range(count):
        db.put(key(i), value(i))
    db.flush()


# ----------------------------------------------------------------------
# (4) get and scan do not wait for the mutex
# ----------------------------------------------------------------------

def test_reads_complete_while_the_mutex_is_held():
    db = open_db("held")
    load(db, 300)
    db.put(key(7), value(7, 2))  # one answer comes from the memtable
    holding, release = threading.Event(), threading.Event()

    def hold():
        with db._mutex:  # what inline flush / compaction install hold
            holding.set()
            release.wait(JOIN_SECONDS)

    got = {}

    def read():
        got["memtable"] = db.get(key(7))
        got["table"] = db.get(key(123))
        got["rows"] = sum(1 for _ in db.scan())
        with pytest.raises(NotFoundError):
            db.get(b"absent")
        got["done"] = True

    holder = threading.Thread(target=hold)
    reader = threading.Thread(target=read)
    holder.start()
    assert holding.wait(JOIN_SECONDS)
    try:
        reader.start()
        reader.join(timeout=1.0)
        finished = not reader.is_alive()
    finally:
        release.set()
        holder.join(JOIN_SECONDS)
        reader.join(JOIN_SECONDS)
    assert finished, "a read waited for the DB mutex"
    assert got == {"memtable": value(7, 2), "table": value(123),
                   "rows": 300, "done": True}
    db.close()


# ----------------------------------------------------------------------
# (5) linearizable enough beside one writer
# ----------------------------------------------------------------------

def test_readers_and_scanner_beside_a_version_bumping_writer():
    db = open_db("linear")
    keys, puts = 64, 1500
    #: per key: the version the writer is about to put / has had acked
    issued = [0] * keys
    acked = [0] * keys
    errors = []
    done = threading.Event()

    def writer():
        try:
            for n in range(puts):
                i = (n * 37) % keys
                issued[i] += 1
                db.put(key(i), value(i, issued[i]))
                acked[i] = issued[i]
        except Exception as error:  # noqa: BLE001
            errors.append(error)
        finally:
            done.set()

    def reader(offset):
        seen = [0] * keys
        try:
            while not done.is_set():
                for i in range(offset, keys + offset):
                    i %= keys
                    floor = max(seen[i], acked[i])
                    try:
                        got = db.get(key(i))
                    except NotFoundError:
                        assert floor == 0, f"lost acknowledged key {i}"
                        continue
                    assert got == value(i, version_of(got))
                    assert floor <= version_of(got) <= issued[i], (
                        i, floor, version_of(got), issued[i])
                    seen[i] = version_of(got)
        except BaseException as error:  # noqa: BLE001
            errors.append(error)

    def scanner():
        try:
            while not done.is_set():
                floors = list(acked)
                rows = list(db.scan())
                found = [k for k, _ in rows]
                assert found == sorted(found)
                assert len(found) == len(set(found))
                assert len(rows) >= sum(1 for f in floors if f)
                for k, v in rows:
                    i = int(k[3:])
                    assert floors[i] <= version_of(v) <= issued[i]
        except BaseException as error:  # noqa: BLE001
            errors.append(error)

    threads = ([threading.Thread(target=writer),
                threading.Thread(target=scanner)]
               + [threading.Thread(target=reader, args=(offset,))
                  for offset in (0, 21, 42)])
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=JOIN_SECONDS)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert db.stats.flushes >= 12 and db.stats.compactions >= 3
    assert {k: version_of(v) for k, v in db.scan()} == {
        key(i): acked[i] for i in range(keys)}
    db.close()


# ----------------------------------------------------------------------
# (6) an iterator outlives every file it reads
# ----------------------------------------------------------------------

def test_iterator_survives_compaction_deleting_its_files():
    env = MemEnv()
    db = open_db("iter", env=env)
    load(db, 400)
    expected = [(key(i), value(i)) for i in range(400)]
    before = table_numbers(db)
    assert len(before) >= 3

    iterator = db.scan()
    rows = [next(iterator)]  # opened: the view is captured here
    bounded = db.scan(start=key(100), end=key(150))
    bounded_rows = [next(bounded)]

    for i in range(400):  # overwrite everything, then merge it all down
        db.put(key(i), value(i, 2))
    db.compact_range()
    assert not before & table_numbers(db)
    on_disk = {name for name in env.list_dir("iter") if name.endswith(".ldb")}
    assert len(on_disk) == len(table_numbers(db))  # inputs really deleted

    rows.extend(iterator)
    assert rows == expected
    bounded_rows.extend(bounded)
    assert bounded_rows == expected[100:150]
    assert next(db.scan()) == (key(0), value(0, 2))
    db.close()


# ----------------------------------------------------------------------
# (7) superseded tables go with the last view or iterator
# ----------------------------------------------------------------------

def test_superseded_readers_are_freed_with_their_last_user():
    db = open_db("leak")
    load(db, 400)
    old = [weakref.ref(reader) for reader in db._view.tables.values()]
    assert len(old) >= 3

    iterator = db.scan()
    next(iterator)
    for i in range(400):
        db.put(key(i), value(i, 2))
    db.compact_range()
    assert len(db._view.tables) == len(table_numbers(db))
    assert all(ref() is not None for ref in old), \
        "a suspended scan must keep its tables"

    iterator.close()
    del iterator
    assert all(ref() is None for ref in old), "superseded readers leaked"
    db.close()


def test_a_closed_db_lets_its_readers_and_cached_blocks_go():
    """``close()`` drops the table readers and empties the block cache
    while the handle itself may stay referenced (as a benchmark that
    reopens the directory keeps it); the metadata views still answer."""
    db = open_db("closed")
    load(db, 400)
    assert db.get(key(3)) == value(3)  # something in the block cache
    readers = [weakref.ref(reader) for reader in db._view.tables.values()]
    assert len(readers) >= 3 and len(db.block_cache)
    rows = db.level_amplification()
    db.close()
    assert all(ref() is None for ref in readers), "a closed DB kept tables"
    assert len(db.block_cache) == 0 and db.block_cache.usage == 0
    assert db.level_amplification() == rows
    assert db.property("repro.num-files-at-level0") == str(rows[0]["files"])
    assert "level" in db.property("repro.levelstats")
    assert "block_cache" in db.property("repro.stats")
