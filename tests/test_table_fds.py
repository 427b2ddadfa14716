"""Tables read from their files on a real filesystem (``OsEnv``): each
live table holds one descriptor, compaction may unlink a table that a
scan or a held read view still reads, and nothing stays open after the
last reader and ``close()``."""

import os

import pytest

from repro.lsm.db import LsmDB
from repro.lsm.env import OsEnv
from repro.obs.registry import MetricsRegistry
from tests.test_read_view import key, load, table_numbers, tiny_options, value

pytestmark = pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                                reason="counts descriptors in /proc")


def open_db(path):
    return LsmDB(str(path), tiny_options(), env=OsEnv(),
                 metrics=MetricsRegistry())


def overwrite(db, count, version):
    for i in range(count):
        db.put(key(i), value(i, version))
    db.flush()


def open_tables(path):
    """Open descriptors of this process naming a table under ``path``
    (an unlinked one reads ``... (deleted)``)."""
    targets = []
    for fd in os.listdir("/proc/self/fd"):
        try:
            targets.append(os.readlink(f"/proc/self/fd/{fd}"))
        except OSError:  # the listing's own descriptor, already closed
            pass
    return [t for t in targets if t.startswith(str(path)) and ".ldb" in t]


def test_scan_and_held_view_read_on_after_their_files_are_unlinked(tmp_path):
    db = open_db(tmp_path / "db")
    load(db, 400)
    expected = [(key(i), value(i)) for i in range(400)]
    before = table_numbers(db)
    assert len(before) >= 3
    iterator = db.scan()
    rows = [next(iterator)]  # the view is captured here
    view = db._view

    overwrite(db, 400, 2)  # every key, then merge it all down
    db.compact_range()
    assert not before & table_numbers(db)
    on_disk = {int(name[:-4]) for name in os.listdir(tmp_path / "db")
               if name.endswith(".ldb")}
    assert on_disk == table_numbers(db)  # the inputs are unlinked
    assert len(open_tables(tmp_path)) > len(on_disk)

    rows.extend(iterator)
    assert rows == expected
    # ``merge_input`` skips the block cache: every block is a pread.
    held = sorted(entry for reader in view.tables.values()
                  for entry in reader.merge_input())
    assert [(k[:-8], v) for k, v in held] == expected
    assert db.get(key(7)) == value(7, 2)
    db.close()


def test_one_descriptor_per_live_table_and_none_after_close(tmp_path):
    db = open_db(tmp_path / "db")
    for version in range(1, 5):
        overwrite(db, 300, version)
        db.compact_range()
        assert len(open_tables(tmp_path)) == len(table_numbers(db))
    assert db.stats.compactions >= 4
    db.close()
    assert open_tables(tmp_path) == []

    with open_db(tmp_path / "db") as db:  # a reopen opens each table once
        assert len(open_tables(tmp_path)) == len(table_numbers(db))
        assert db.get(key(3)) == value(3, 4)
    assert open_tables(tmp_path) == []
