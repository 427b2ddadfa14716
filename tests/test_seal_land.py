"""Sealed memtables built on the codec helper.

A writer's swap seals the memtable it swaps out and sends its entries to
the helper, which builds the table while the writer goes on; the next
swap lands it.  None of it may change what the store writes: the tables, the MANIFEST, the projected journal
and the stats after ``close()`` are a helper-less run's, whether the
helper takes every request, breaks the protocol on one, or is killed --
and a broken helper is counted once, reaped, and never started again.
"""

from __future__ import annotations

import json
import os
import random
import sys

import pytest

from repro.compress import encoder
from repro.compress.encoder import BlockEncoder
from repro.lsm import db as db_module
from repro.lsm import sstable
from repro.lsm.db import LsmDB
from repro.lsm.env import MemEnv
from repro.lsm.filenames import event_journal_file_name
from repro.lsm.options import Options
from repro.obs.registry import MetricsRegistry

from tests.test_journal_pin import _projection


class _KeepingEnv(MemEnv):
    """Keeps a copy of every table the DB deletes."""

    def __init__(self) -> None:
        super().__init__()
        self.retired: dict[str, bytes] = {}

    def delete_file(self, name: str) -> None:
        if name.endswith(".ldb"):
            self.retired[name] = self.read_file(name)
        super().delete_file(name)


def _run(ops: int = 8000, compressible: bool = False) -> dict:
    """``tests/test_journal_pin.py``'s inline op stream; with
    ``compressible``, its first ``ops`` operations with values snappy can
    halve.  What the closed DB left behind."""
    env = _KeepingEnv()
    options = Options(event_journal=True, write_buffer_size=32 * 1024,
                      sstable_size=16 * 1024)
    db = LsmDB("sealdb", options, env=env, metrics=MetricsRegistry())
    rng = random.Random(7)
    for _ in range(ops):
        key = b"key%08d" % rng.randrange(20000)
        if rng.random() < 0.1:
            db.delete(key)
        else:
            db.put(key, rng.randbytes(50) + bytes(50) if compressible
                   else rng.randbytes(100))
    db.close()
    files = {name: env.read_file(os.path.join("sealdb", name))
             for name in env.list_dir("sealdb")
             if name.endswith(".ldb") or name.startswith("MANIFEST")}
    journal = [json.loads(line) for line in env.read_file(
        event_journal_file_name("sealdb")).decode().splitlines()]
    return {"files": {**env.retired, **files},
            "journal": _projection(journal),
            "stats": db.stats.as_dict()}


def _same_program(run: dict, reference: dict) -> None:
    assert run["files"].keys() == reference["files"].keys()
    for name, image in reference["files"].items():
        assert run["files"][name] == image, name
    assert run["journal"] == reference["journal"]
    counts = ("flushes", "flush_bytes", "compactions",
              "compaction_input_bytes", "compaction_output_bytes", "stalls")
    assert {k: run["stats"][k] for k in counts} \
        == {k: reference["stats"][k] for k in counts}


def test_helper_on_and_off_write_the_same_store(monkeypatch):
    """The pinned op stream with every sealed memtable built on the
    helper, then with no helper: the same bytes, journal and counts."""
    monkeypatch.setattr(encoder, "_cpus", lambda: 2)
    block_encoder = encoder.block_encoder
    assert block_encoder.start(timeout=60.0), block_encoder.stats()
    before = block_encoder.stats()
    helped = _run()
    after = block_encoder.stats()
    assert after["failures"] == before["failures"]
    assert after["helper_build_tables"] > before["helper_build_tables"]
    monkeypatch.setattr(encoder, "_cpus", lambda: 1)
    alone = _run()
    assert encoder.block_encoder.stats()["helper_build_tables"] == (
        after["helper_build_tables"])
    _same_program(helped, alone)
    assert helped["stats"]["flushes"] > 10


# ----------------------------------------------------------------------
# A helper breaking the protocol on one request kind
# ----------------------------------------------------------------------

#: A stand-in helper: serves every request as the real one does, except
#: those of ``kind``, which ``behaviour`` answers.
_FAKE_HELPER = """
import os, signal, struct, sys
sys.path.insert(0, {src!r})
from repro.compress import encoder as e, snappy
from repro.lsm.sstable import serve_build
source, sink = sys.stdin.buffer, sys.stdout.buffer
sink.write(e._READY)
sink.flush()
while len(head := source.read(e._REQUEST.size)) == e._REQUEST.size:
    kind, sequence, count = e._REQUEST.unpack(head)
    lengths = struct.unpack(f"<{{count}}I", source.read(4 * count))
    parts = [source.read(n) for n in lengths]
    outs = (serve_build(parts) if kind == e._BUILD else
            [snappy.compress(p) for p in parts])
    if kind == {kind!r}:
{behaviour}
    sink.write(e._ANSWER.pack(e._ANSWER_MAGIC, sequence, len(outs), 0.0)
               + struct.pack(f"<{{len(outs)}}I", *map(len, outs))
               + b"".join(outs))
    sink.flush()
"""

_KILLED = "        os.kill(os.getpid(), signal.SIGKILL)"

#: (request kind, failure) -> the code that answers it.
_DRILLS = {
    # A build's answer: image, stats, first key, last key.
    ("build", "killed"): _KILLED,
    ("build", "bad_length"): "        outs[0] = outs[0][:-1]",
    ("build", "bad_crc"): "        outs[0] = b'\\xff' + outs[0][1:]",
}

_KINDS = {"build": encoder._BUILD}


class _Encoder(BlockEncoder):
    """A private encoder with a stand-in helper, and the pid of every
    helper it starts."""

    def __init__(self, kind: str, failure: str) -> None:
        super().__init__()
        self.kind, self.failure = kind, failure
        self.pids: list[int] = []

    def _command(self, src: str) -> list[str]:
        return [sys.executable, "-c", _FAKE_HELPER.format(
            src=src, kind=_KINDS[self.kind],
            behaviour=_DRILLS[self.kind, self.failure])]

    def _helper_ready(self) -> bool:
        started = self._proc is None
        ready = super()._helper_ready()
        if started:
            self.pids.append(self._proc.pid)
        return ready


@pytest.fixture(scope="module")
def reference():
    """The drills' op stream with no helper."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(encoder, "_cpus", lambda: 1)
        return _run(ops=3000, compressible=True)


@pytest.mark.parametrize("kind,failure", sorted(_DRILLS))
def test_a_broken_helper_changes_nothing(reference, monkeypatch, kind,
                                         failure):
    monkeypatch.setattr(encoder, "_cpus", lambda: 2)
    monkeypatch.setattr(encoder, "_DEADLINE_FLOOR_S", 0.5)
    block_encoder = _Encoder(kind, failure)
    for module in (db_module, sstable):
        monkeypatch.setattr(module, "block_encoder", block_encoder)
    assert block_encoder.start(timeout=60.0)
    # Warm, and slow alone: every landing waits for its answer, so each
    # is checked.
    block_encoder._counts.update(
        helper_build_tables=1, host_build_tables=1, host_build_s=60.0)
    before = block_encoder.stats()
    _same_program(_run(ops=3000, compressible=True), reference)
    stats = block_encoder.stats()
    assert stats["failures"] == 1
    assert len(block_encoder.pids) == 1
    with pytest.raises(ChildProcessError):  # reaped: no zombie
        os.waitpid(block_encoder.pids[0], os.WNOHANG)
    assert block_encoder.start(timeout=1.0) is False
    assert len(block_encoder.pids) == 1
    assert stats["host_build_tables"] > before["host_build_tables"]


# ----------------------------------------------------------------------
# Merge inputs bypass the block cache
# ----------------------------------------------------------------------

def test_compaction_reads_leave_the_block_cache_alone():
    """A merge reads its inputs past the block cache (LevelDB's
    ``fill_cache = false``): the cache holds what readers put there; a
    scan over the merged tables reads through it."""
    options = Options(write_buffer_size=16 * 1024, sstable_size=8 * 1024,
                      max_level0_size=32 * 1024,
                      block_cache_capacity=1 << 20)
    db = LsmDB("cachedb", options, env=MemEnv())
    rng = random.Random(3)
    keys = []
    for _ in range(6):
        for _ in range(300):
            keys.append(b"%08d" % rng.randrange(5000))
            db.put(keys[-1], rng.randbytes(60))
        db.flush()
    for key in keys[::50]:
        db.get(key)
    cache = db.block_cache
    cached = list(cache._entries.items())
    assert cached
    db.compact_range()
    assert db.stats.compactions > 0
    assert list(cache._entries.items()) == cached
    assert len(list(db.scan())) == len(set(keys))
    assert len(cache) > len(cached)
    db.close()


# ----------------------------------------------------------------------
# A landed table is parsed once
# ----------------------------------------------------------------------

class _CountingTablesEnv(MemEnv):
    """Counts the tables a DB writes."""

    def __init__(self) -> None:
        super().__init__()
        self.tables_written = 0

    def new_writable_file(self, name: str):
        self.tables_written += name.endswith(".ldb")
        return super().new_writable_file(name)


@pytest.mark.parametrize("cpus", [2, 1], ids=["helper", "no_helper"])
def test_each_landed_table_is_opened_once(monkeypatch, cpus):
    """The reader that opened a flushed table's image (the helper
    answer's check, or a local build) reads its file from then on: one
    ``TableReader.__init__`` per table written, merge outputs included."""
    monkeypatch.setattr(encoder, "_cpus", lambda: cpus)
    opened = []
    init = sstable.TableReader.__init__

    def counting_init(self, *args, **kwargs):
        opened.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(sstable.TableReader, "__init__", counting_init)
    before = encoder.block_encoder.stats()["helper_build_tables"]
    env = _CountingTablesEnv()
    options = Options(write_buffer_size=32 * 1024, sstable_size=16 * 1024)
    db = LsmDB("oncedb", options, env=env, metrics=MetricsRegistry())
    rng = random.Random(11)
    for i in range(4000):
        db.put(b"key%08d" % rng.randrange(20000), rng.randbytes(100))
        if i == 0 and cpus > 1:
            assert encoder.block_encoder.start(timeout=60.0)
    db.close()
    assert db.stats.flushes > 5 and db.stats.compactions > 0
    assert len(opened) == env.tables_written
    helped = encoder.block_encoder.stats()["helper_build_tables"] - before
    assert (helped > 0) == (cpus > 1)
