"""Table writing as cut -> encode -> lay out.

The bulk path (:func:`repro.lsm.sstable.build_tables`, behind every
merge's ``build_output_tables`` and every flush) must write the bytes the
streaming ``TableBuilder.add`` writes -- pinned below by digests that the
streaming builder produced before the bulk path existed -- whether the
codec helper process compresses the blocks or the building thread does;
and every way that helper can fail must leave those bytes, and the
process, intact: one failure counted, the child reaped, no helper again.
"""

from __future__ import annotations

import hashlib
import os
import random
import signal
import sys
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress import encoder, snappy
from repro.compress.encoder import BlockEncoder
from repro.errors import InvalidArgumentError
from repro.lsm import sstable
from repro.lsm.compaction import _BufferFile, build_output_tables
from repro.lsm.db import LsmDB
from repro.lsm.env import MemEnv
from repro.lsm.internal import (
    InternalKeyComparator,
    TYPE_VALUE,
    encode_internal_key,
)
from repro.lsm.options import Options
from repro.lsm.sstable import TableBuilder, TableReader
from repro.util.comparator import BytewiseComparator

BYTEWISE = InternalKeyComparator(BytewiseComparator())


# ----------------------------------------------------------------------
# Corpora and their digests
# ----------------------------------------------------------------------

def _value(rng: random.Random, key: bytes) -> bytes:
    """The e2e benchmark's value shape: snappy keeps about half."""
    head = rng.choice((1, 1, 1, 2, 2, 3)).to_bytes(8, "big")
    return head + hashlib.shake_128(head + key).digest(60) + head[-1:] * 60


def _entries(count: int, seed: int) -> list:
    rng = random.Random(seed)
    users = sorted({b"%016d" % rng.randrange(10 ** 7) for _ in range(count)})
    return [(encode_internal_key(user, sequence, TYPE_VALUE),
             _value(rng, user))
            for sequence, user in enumerate(users, 1)]


def _options(**overrides) -> Options:
    base = dict(block_size=4096, sstable_size=64 << 10,
                compression="snappy", bloom_bits_per_key=10)
    base.update(overrides)
    return Options(**base)


def _oversized() -> list:
    """Entries past ``block_size``: one too large for a helper chunk."""
    rng = random.Random(9)
    values = [b"a" * 40, rng.randbytes(40_000), bytes(range(256)) * 40,
              b"d" * 40]
    return [(encode_internal_key(bytes([97 + i]), i + 1, TYPE_VALUE), value)
            for i, value in enumerate(values)]


def _exact_cut() -> tuple:
    """Equal blocks and an ``sstable_size`` of exactly three of them:
    the table is cut when ``file_size`` reaches the size, not passes it."""
    entries = [(encode_internal_key(b"%08d" % i, i + 1, TYPE_VALUE),
                b"v" * 100) for i in range(400)]
    options = _options(compression="none", block_size=1024,
                       block_restart_interval=1)
    probe = TableBuilder(options, _BufferFile(), BYTEWISE)
    for key, value in entries:
        probe.add(key, value)
        if probe.file_size:
            break
    return (entries, _options(compression="none", block_size=1024,
                              block_restart_interval=1,
                              sstable_size=3 * probe.file_size), BYTEWISE)


#: name -> (entries, options, comparator) for ``build_output_tables``.
CORPORA = {
    "cut_at_exact_size": _exact_cut,
    "plain": lambda: (_entries(2000, 1), _options(), BYTEWISE),
    "empty": lambda: ([], _options(), BYTEWISE),
    "entries_over_block_size": lambda: (
        _oversized(), _options(block_size=1024, sstable_size=1024),
        BYTEWISE),
    "table_per_block": lambda: (
        _entries(300, 2), _options(block_size=64, sstable_size=64),
        BYTEWISE),
    "no_compression": lambda: (
        _entries(1500, 3), _options(compression="none"), BYTEWISE),
    "no_bloom": lambda: (
        _entries(1500, 4), _options(bloom_bits_per_key=0), BYTEWISE),
    "restart_interval_1": lambda: (
        _entries(1500, 5), _options(block_restart_interval=1), BYTEWISE),
}

#: sha256 of each corpus's output tables, computed with the streaming
#: ``TableBuilder.add`` loop that ``build_output_tables`` was before the
#: bulk path (and that ``_streaming_tables`` below still is).
CORPUS_DIGESTS = {
    "cut_at_exact_size":
        "9d99a86fe0de57d67ca31f4e6b52b1368f778965ec944606fc21d157879cb876",
    "plain":
        "d29670720e15c1bdcec5e245206d7b12bb19cdd91415fa36813ed55699a26a7b",
    "empty":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "entries_over_block_size":
        "705ba7389538893962bc7c249852d9759ef4be303adf4eb8f2035fec143b67c1",
    "table_per_block":
        "8974be56512756f0f1c4cd5c839f16f405e3c57cfaa195350b05b59c84df30b1",
    "no_compression":
        "1cc407370a7f32ca6a5507ba0bec2cfbb63a88179217f0355f1d7171cadd675f",
    "no_bloom":
        "fccc3b69deea94546759946003724e26d4cf09af8368060890765943254e3407",
    "restart_interval_1":
        "11cdf0703f0b44ef42dccbf14b03c88bdff67517b7c3ee46ef53e7db44c88d9f",
}

#: sha256 of every table :func:`_db_tables` writes, computed the same way.
DB_DIGEST = (
    "9adb40b27ab1110e95ab6af622fc674b2e6b9abdcbc8a8b4f6e4d9f496cbcd83")


def _digest(tables) -> str:
    """sha256 over ``(image, smallest, largest)`` triples, in order."""
    digest = hashlib.sha256()
    for parts in tables:
        for part in parts:
            digest.update(len(part).to_bytes(8, "little"))
            digest.update(part)
    return digest.hexdigest()


class _KeepingEnv(MemEnv):
    """Keeps a copy of every table the DB deletes."""

    def __init__(self) -> None:
        super().__init__()
        self.retired: dict[str, bytes] = {}

    def delete_file(self, name: str) -> None:
        if name.endswith(".ldb"):
            self.retired[name] = self.read_file(name)
        super().delete_file(name)


def _db_tables() -> dict[str, bytes]:
    """Every table a seeded 3-level DB writes, flushes and merges, with
    snappy and bloom on."""
    env = _KeepingEnv()
    db = LsmDB("golden", Options(write_buffer_size=32 << 10,
                                 sstable_size=16 << 10,
                                 max_level0_size=64 << 10), env=env)
    rng = random.Random(11)
    for i in range(4000):
        key = b"%016d" % rng.randrange(3000)
        if i % 29 == 0:
            db.delete(key)
        else:
            db.put(key, _value(rng, key))
    assert all(db.level_file_counts()[:3]), "levels 0-2 must hold tables"
    db.close()
    tables = dict(env.retired)
    for name in env.list_dir("golden"):
        if name.endswith(".ldb"):
            tables[name] = env.read_file(os.path.join("golden", name))
    return tables


def _db_digest(tables: dict[str, bytes]) -> str:
    return _digest((name.encode(), image, b"")
                   for name, image in sorted(tables.items()))


def _streaming_tables(entries, options, icmp) -> list:
    """The reference: ``TableBuilder.add`` per entry, a new table once
    ``file_size`` reaches ``sstable_size`` after an add."""
    outputs, builder = [], None
    for key, value in entries:
        if builder is None:
            dest = _BufferFile()
            builder = TableBuilder(options, dest, icmp)
        builder.add(key, value)
        if builder.file_size >= options.sstable_size:
            builder.finish()
            outputs.append((dest.getvalue(), builder.smallest_key,
                            builder.largest_key))
            builder = None
    if builder is not None:
        builder.finish()
        outputs.append((dest.getvalue(), builder.smallest_key,
                        builder.largest_key))
    return outputs


def _bulk_tables(entries, options, icmp) -> list:
    return [(out.data, out.smallest, out.largest)
            for out in build_output_tables(iter(entries), options, icmp)]


# ----------------------------------------------------------------------
# Byte identity, helper on and off
# ----------------------------------------------------------------------

@pytest.fixture(params=["helper", "host"])
def codec(request, monkeypatch):
    """The process's encoder with its helper sent every block it can
    take (one-block chunks, two CPUs assumed), or with no helper."""
    block_encoder = encoder.block_encoder
    if request.param == "helper":
        monkeypatch.setattr(encoder, "_cpus", lambda: 2)
        monkeypatch.setattr(encoder, "_CHUNK_BLOCKS", 1)
        assert block_encoder.start(timeout=60.0), block_encoder.stats()
    else:
        monkeypatch.setattr(encoder, "_cpus", lambda: 1)
    before = block_encoder.stats()
    yield request.param
    after = block_encoder.stats()
    assert after["failures"] == before["failures"]
    if request.param == "host":
        assert after["helper_blocks"] == before["helper_blocks"]


def _helper_blocks() -> int:
    return encoder.block_encoder.stats()["helper_blocks"]


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_corpus_tables_keep_their_bytes(codec, name):
    entries, options, icmp = CORPORA[name]()
    before = _helper_blocks()
    assert _digest(_bulk_tables(entries, options, icmp)) == (
        CORPUS_DIGESTS[name])
    if codec == "helper" and entries and options.compression == "snappy":
        assert _helper_blocks() > before


def test_db_tables_keep_their_bytes(codec):
    before = _helper_blocks()
    assert _db_digest(_db_tables()) == DB_DIGEST
    if codec == "helper":
        assert _helper_blocks() > before


def test_one_block_table(codec):
    entries = _entries(1, 12)
    options = _options()
    before = _helper_blocks()
    assert _bulk_tables(entries, options, BYTEWISE) == _streaming_tables(
        entries, options, BYTEWISE)
    assert _helper_blocks() == before + (codec == "helper")


_user_keys = st.sets(st.binary(min_size=1, max_size=24), max_size=300)


@settings(max_examples=40, deadline=None)
@given(keys=_user_keys, block_size=st.sampled_from([64, 256, 1024]),
       table_blocks=st.integers(1, 6),
       compression=st.sampled_from(["snappy", "none"]),
       bloom_bits=st.sampled_from([0, 10]),
       restart_interval=st.integers(1, 16))
def test_bulk_path_writes_what_add_writes(keys, block_size, table_blocks,
                                          compression, bloom_bits,
                                          restart_interval):
    options = Options(block_size=block_size,
                      sstable_size=block_size * table_blocks,
                      compression=compression, bloom_bits_per_key=bloom_bits,
                      block_restart_interval=restart_interval)
    entries = [(encode_internal_key(user, sequence, TYPE_VALUE),
                user[::-1] * 5)
               for sequence, user in enumerate(sorted(keys), 1)]
    assert _bulk_tables(entries, options, BYTEWISE) == _streaming_tables(
        entries, options, BYTEWISE)


@settings(max_examples=40, deadline=None)
@given(versions=st.dictionaries(st.binary(min_size=1, max_size=12),
                                st.integers(1, 6), max_size=120),
       block_size=st.sampled_from([64, 256]),
       table_blocks=st.integers(1, 4),
       compression=st.sampled_from(["snappy", "none"]))
def test_no_user_key_spans_two_tables(versions, block_size, table_blocks,
                                      compression):
    """A merge under a snapshot keeps several versions of one user key:
    no table boundary falls between them, and every entry is written
    once, in order."""
    options = Options(block_size=block_size,
                      sstable_size=block_size * table_blocks,
                      compression=compression)
    sequence = iter(range(1000, 0, -1))
    entries = [(encode_internal_key(user, next(sequence), TYPE_VALUE),
                user * 3)
               for user in sorted(versions)
               for _ in range(versions[user])]
    tables = [TableReader(image, BYTEWISE, options)
              for image, _, _ in _bulk_tables(entries, options, BYTEWISE)]
    users = [{key[:-8] for key, _ in table} for table in tables]
    for earlier, later in zip(users, users[1:]):
        assert max(earlier) < min(later)
    assert [entry for table in tables for entry in table] == entries
# ----------------------------------------------------------------------

#: A stand-in helper: reports ready, then reads requests like the real
#: one; the code appended to it decides how it answers.
_FAKE_HELPER = """
import os, signal, struct, sys, time
sys.path.insert(0, {src!r})
from repro.compress import encoder as e, snappy
source, sink = sys.stdin.buffer, sys.stdout.buffer
def requests():
    while True:
        head = source.read(e._REQUEST.size)
        if len(head) < e._REQUEST.size:
            return
        _, sequence, count = e._REQUEST.unpack(head)
        lengths = struct.unpack(f"<{{count}}I", source.read(4 * count))
        yield sequence, [source.read(n) for n in lengths]
def frame(sequence, outs, count=None):
    count = len(outs) if count is None else count
    return (e._ANSWER.pack(e._ANSWER_MAGIC, sequence, count, 0.0)
            + struct.pack(f"<{{len(outs)}}I", *map(len, outs))
            + b"".join(outs))
def send(data):
    sink.write(data)
    sink.flush()
send(e._READY)
"""

_BEHAVIOURS = {
    "stale_sequence": """
for sequence, raws in requests():
    send(frame(sequence - 1, [snappy.compress(raw) for raw in raws]))
""",
    "missing_block": """
for sequence, raws in requests():
    outs = [snappy.compress(raw) for raw in raws]
    send(frame(sequence, outs[:-1]))
""",
    "short_frame": """
for sequence, raws in requests():
    send(frame(sequence, [snappy.compress(raw) for raw in raws])[:-9])
    time.sleep(60)
""",
    "wrong_preamble": """
for sequence, raws in requests():
    send(frame(sequence, [snappy.compress(raw + b"x") for raw in raws]))
""",
    "killed_mid_chunk": """
for sequence, raws in requests():
    data = frame(sequence, [snappy.compress(raw) for raw in raws])
    send(data[:len(data) // 2])
    os.kill(os.getpid(), signal.SIGKILL)
""",
}


class _Encoder(BlockEncoder):
    """A private encoder: a stand-in helper when given its behaviour,
    and the pid of every helper it starts."""

    def __init__(self, behaviour: str | None = None) -> None:
        super().__init__()
        self.behaviour = behaviour
        self.pids: list[int] = []

    def _command(self, src: str) -> list[str]:
        if self.behaviour is None:
            return super()._command(src)
        code = _BEHAVIOURS.get(self.behaviour)
        if code is None:  # exits before it reports ready
            return [sys.executable, "-c", "raise SystemExit(3)"]
        return [sys.executable, "-c", _FAKE_HELPER.format(src=src) + code]

    def _helper_ready(self) -> bool:
        started = self._proc is None
        ready = super()._helper_ready()
        if started:
            self.pids.append(self._proc.pid)
        return ready


def _blocks(count: int, seed: int = 0) -> list[bytes]:
    rng = random.Random(seed)
    return [b"".join(_value(rng, b"%016d" % rng.randrange(10 ** 6))
                     for _ in range(28))
            for _ in range(count)]


BLOCKS = _blocks(40)
EXPECTED = [snappy.compress(block) for block in BLOCKS]


def _encode(block_encoder: BlockEncoder, blocks=BLOCKS) -> list[bytes]:
    return [out for _, out in block_encoder.encode(
        (block,) for block in blocks)]


@pytest.fixture
def two_cpus(monkeypatch):
    """The helper may run on any machine, and misses deadlines fast."""
    monkeypatch.setattr(encoder, "_cpus", lambda: 2)
    monkeypatch.setattr(encoder, "_DEADLINE_FLOOR_S", 0.2)


def _assert_failed_once_then_host_only(block_encoder: _Encoder) -> None:
    stats = block_encoder.stats()
    assert stats["failures"] == 1
    assert block_encoder.pids, "a helper was started"
    for pid in block_encoder.pids:  # reaped: no zombie left behind
        with pytest.raises(ChildProcessError):
            os.waitpid(pid, os.WNOHANG)
    assert _encode(block_encoder) == EXPECTED
    assert block_encoder.start(timeout=1.0) is False
    after = block_encoder.stats()
    assert after["helper_blocks"] == stats["helper_blocks"]
    assert after["failures"] == 1
    assert len(block_encoder.pids) == 1


@pytest.mark.parametrize("behaviour", sorted(_BEHAVIOURS))
def test_a_helper_breaking_the_protocol_is_dropped(two_cpus, behaviour):
    block_encoder = _Encoder(behaviour)
    assert block_encoder.start(timeout=60.0)
    assert _encode(block_encoder) == EXPECTED
    _assert_failed_once_then_host_only(block_encoder)


def test_a_helper_exiting_before_ready_is_dropped(two_cpus):
    block_encoder = _Encoder("exits_before_ready")
    assert block_encoder.start(timeout=60.0) is False
    _assert_failed_once_then_host_only(block_encoder)


def _wait_until_dead(pid: int) -> None:
    """Until ``pid`` is a zombie: killed, not yet reaped."""
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        with open(f"/proc/{pid}/stat") as stat:
            if stat.read().rsplit(")", 1)[1].split()[0] == "Z":
                return
        time.sleep(0.01)
    raise AssertionError(f"helper {pid} still running")


@pytest.mark.skipif(not os.path.exists("/proc/self/stat"),
                    reason="reads process states from /proc")
def test_a_helper_killed_between_chunks_is_dropped(two_cpus):
    block_encoder = _Encoder()
    assert block_encoder.start(timeout=60.0)
    assert _encode(block_encoder) == EXPECTED
    assert block_encoder.stats()["helper_blocks"] > 0
    os.kill(block_encoder.pids[0], signal.SIGKILL)
    _wait_until_dead(block_encoder.pids[0])
    assert _encode(block_encoder) == EXPECTED
    _assert_failed_once_then_host_only(block_encoder)


def test_a_stopped_helper_misses_its_deadline(two_cpus):
    block_encoder = _Encoder()
    assert block_encoder.start(timeout=60.0)
    os.kill(block_encoder.pids[0], signal.SIGSTOP)
    try:
        assert _encode(block_encoder) == EXPECTED
    finally:
        if block_encoder.stats()["failures"] == 0:
            os.kill(block_encoder.pids[0], signal.SIGCONT)
    _assert_failed_once_then_host_only(block_encoder)


def test_out_of_order_key_frees_the_helper(two_cpus, monkeypatch):
    block_encoder = _Encoder()
    monkeypatch.setattr(sstable, "block_encoder", block_encoder)
    assert block_encoder.start(timeout=60.0)
    entries = _entries(2000, 7)
    options = _options()
    misordered = entries[:1200] + [entries[0]] + entries[1200:]
    with pytest.raises(InvalidArgumentError):
        build_output_tables(iter(misordered), options, BYTEWISE)
    before = block_encoder.stats()["helper_blocks"]
    # The next build gets the helper, and none of the first build's
    # answers: it writes exactly the streaming bytes.
    assert _bulk_tables(entries, options, BYTEWISE) == _streaming_tables(
        entries, options, BYTEWISE)
    stats = block_encoder.stats()
    assert stats["helper_blocks"] > before
    assert stats["failures"] == 0
    block_encoder.close()


# ----------------------------------------------------------------------
# Concurrent builders
# ----------------------------------------------------------------------

def test_a_second_builder_encodes_on_its_own(two_cpus):
    block_encoder = _Encoder()
    assert block_encoder.start(timeout=60.0)
    holding, release = threading.Event(), threading.Event()
    first: list[bytes] = []

    def held_source():
        for index, block in enumerate(BLOCKS):
            if index == 20:
                holding.set()
                assert release.wait(30)
            yield (block,)

    def first_build():
        first.extend(out for _, out in block_encoder.encode(held_source()))

    thread = threading.Thread(target=first_build)
    thread.start()
    try:
        assert holding.wait(30)
        before = block_encoder.stats()
        assert _encode(block_encoder) == EXPECTED
        after = block_encoder.stats()
        # Every block of the second build was compressed right here.
        assert after["host_blocks"] - before["host_blocks"] == len(BLOCKS)
    finally:
        release.set()
        thread.join(30)
    assert not thread.is_alive()
    assert first == EXPECTED
    assert block_encoder.stats()["helper_blocks"] > 0
    block_encoder.close()
