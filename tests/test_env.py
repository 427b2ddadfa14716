"""Env abstraction: MemEnv and OsEnv behave identically."""

import pytest

from repro.errors import NotFoundError
from repro.lsm.env import MemEnv, OsEnv


@pytest.fixture(params=["mem", "os"])
def env(request, tmp_path):
    if request.param == "mem":
        return MemEnv(), "root"
    return OsEnv(), str(tmp_path)


class TestFiles:
    def test_write_read(self, env):
        fs, root = env
        fs.create_dir(root)
        handle = fs.new_writable_file(f"{root}/f1")
        handle.append(b"hello ")
        handle.append(b"world")
        handle.close()
        assert fs.read_file(f"{root}/f1") == b"hello world"

    def test_size(self, env):
        fs, root = env
        fs.create_dir(root)
        handle = fs.new_writable_file(f"{root}/f")
        handle.append(b"12345")
        handle.close()
        assert fs.file_size(f"{root}/f") == 5
        assert handle.size == 5

    def test_exists(self, env):
        fs, root = env
        fs.create_dir(root)
        assert not fs.file_exists(f"{root}/nope")
        handle = fs.new_writable_file(f"{root}/yes")
        handle.close()
        assert fs.file_exists(f"{root}/yes")

    def test_delete(self, env):
        fs, root = env
        fs.create_dir(root)
        handle = fs.new_writable_file(f"{root}/f")
        handle.close()
        fs.delete_file(f"{root}/f")
        assert not fs.file_exists(f"{root}/f")

    def test_delete_missing_raises(self, env):
        fs, root = env
        with pytest.raises(NotFoundError):
            fs.delete_file(f"{root}/ghost")

    def test_read_missing_raises(self, env):
        fs, root = env
        with pytest.raises(NotFoundError):
            fs.read_file(f"{root}/ghost")

    def test_rename(self, env):
        fs, root = env
        fs.create_dir(root)
        handle = fs.new_writable_file(f"{root}/old")
        handle.append(b"data")
        handle.close()
        fs.rename_file(f"{root}/old", f"{root}/new")
        assert not fs.file_exists(f"{root}/old")
        assert fs.read_file(f"{root}/new") == b"data"

    def test_rename_overwrites(self, env):
        fs, root = env
        fs.create_dir(root)
        for name, content in (("a", b"1"), ("b", b"2")):
            handle = fs.new_writable_file(f"{root}/{name}")
            handle.append(content)
            handle.close()
        fs.rename_file(f"{root}/a", f"{root}/b")
        assert fs.read_file(f"{root}/b") == b"1"

    def test_list_dir(self, env):
        fs, root = env
        fs.create_dir(root)
        for name in ("c", "a", "b"):
            fs.new_writable_file(f"{root}/{name}").close()
        assert fs.list_dir(root) == ["a", "b", "c"]


class TestRandomAccess:
    def test_positional_reads_and_image(self, env):
        fs, root = env
        fs.create_dir(root)
        handle = fs.new_writable_file(f"{root}/t")
        handle.append(b"0123456789")
        handle.close()
        table = fs.new_random_access_file(f"{root}/t")
        assert table.size == 10
        assert table.read(3, 4) == b"3456"
        assert table.read(8, 4) == b"89"  # short at the end of the file
        assert table.image == b"0123456789"

    def test_reads_on_after_the_file_is_deleted(self, env):
        """What lets compaction delete a table that readers still hold:
        an OsEnv descriptor reads an unlinked file, an in-memory handle
        holds its own image."""
        fs, root = env
        fs.create_dir(root)
        handle = fs.new_writable_file(f"{root}/t")
        handle.append(b"abcdef")
        handle.close()
        table = fs.new_random_access_file(f"{root}/t")
        fs.delete_file(f"{root}/t")
        assert table.read(1, 3) == b"bcd" and table.image == b"abcdef"

    def test_open_missing_raises(self, env):
        fs, root = env
        with pytest.raises(NotFoundError):
            fs.new_random_access_file(f"{root}/ghost")


class TestAppendable:
    def test_appendable_preserves_content(self, env):
        fs, root = env
        fs.create_dir(root)
        handle = fs.new_writable_file(f"{root}/log")
        handle.append(b"first|")
        handle.close()
        handle = fs.new_appendable_file(f"{root}/log")
        handle.append(b"second")
        handle.close()
        assert fs.read_file(f"{root}/log") == b"first|second"

    def test_appendable_size_seeded_from_existing(self, env):
        """Regression: OsEnv's appendable handle reported size 0 for a
        non-empty file, so WAL block-offset accounting restarted from a
        block boundary it wasn't at."""
        fs, root = env
        fs.create_dir(root)
        handle = fs.new_writable_file(f"{root}/log")
        handle.append(b"x" * 100)
        handle.close()
        handle = fs.new_appendable_file(f"{root}/log")
        assert handle.size == 100
        handle.append(b"y" * 7)
        assert handle.size == 107
        handle.close()

    def test_appendable_missing_file_starts_empty(self, env):
        fs, root = env
        fs.create_dir(root)
        handle = fs.new_appendable_file(f"{root}/fresh")
        assert handle.size == 0
        handle.append(b"ab")
        handle.close()
        assert fs.read_file(f"{root}/fresh") == b"ab"


class TestSync:
    def test_sync_flushes_and_persists(self, env):
        fs, root = env
        fs.create_dir(root)
        handle = fs.new_writable_file(f"{root}/f")
        handle.append(b"durable")
        handle.sync()
        assert fs.read_file(f"{root}/f") == b"durable"
        handle.close()

    def test_memenv_counts_syncs(self):
        fs = MemEnv()
        handle = fs.new_writable_file("f")
        handle.append(b"x")
        handle.sync()
        handle.sync()
        assert fs.syncs == 2
        handle.close()


class TestJournalAppendPath:
    def test_reopened_db_appends_journal_segment(self, env):
        """Regression (journal path): reopening a DB must append a new
        ``journal_open`` segment to EVENTS.jsonl, not clobber or corrupt
        the first one — exercises the appendable-file size fix on OsEnv."""
        from repro.lsm import LsmDB, Options

        fs, root = env
        options = Options(event_journal=True, bloom_bits_per_key=0)
        db = LsmDB(f"{root}/jdb", options, env=fs)
        db.put(b"k", b"v")
        db.close()
        db = LsmDB(f"{root}/jdb", options, env=fs)
        assert db.journal_segments() == 2
        assert db.get(b"k") == b"v"
        db.close()


class TestMemEnvSpecifics:
    def test_append_after_close_raises(self):
        fs = MemEnv()
        handle = fs.new_writable_file("f")
        handle.close()
        with pytest.raises(ValueError):
            handle.append(b"late")

    def test_path_normalization(self):
        fs = MemEnv()
        handle = fs.new_writable_file("dir/./file")
        handle.append(b"x")
        handle.close()
        assert fs.read_file("dir/file") == b"x"
