"""The flight-recorder journal, pinned.

A flush, compaction or write stall reaches the journal as a
``<kind>_start`` / ``<kind>_finish`` pair.  An inline run's journal is
held line for line by a sha256 over each line's type and payload
fields: a mismatch is a changed journal, never a digest to regenerate.
A run with a second thread calling maintenance beside the writer
interleaves differently each time, so its test checks invariants
instead.
"""

import hashlib
import json
import random
import threading
import time

import pytest

from repro import obs
from repro.fpga.config import CONFIG_2_INPUT
from repro.fpga.engine import simulate_synthetic
from repro.lsm.db import LsmDB
from repro.lsm.env import MemEnv
from repro.lsm.filenames import event_journal_file_name
from repro.lsm.options import Options
from repro.obs import names
from repro.obs.events import EventJournal, replay
from repro.obs.registry import MetricsRegistry
from repro.sim.system import SystemConfig, simulate_fillrandom

#: The payload fields hashed per line; ``ts``, ``seconds`` and ``trace``
#: vary from run to run and are left out.
PROJECTED = ("db", "table", "level", "output_level", "reason", "bytes",
             "input_bytes", "output_bytes", "input_bytes_base",
             "input_bytes_parent", "backend", "write_bytes")

#: sha256 of the inline run's projected journal.
INLINE_DIGEST = \
    "b68b463536311b103bb689ed6cc02191d8e1c6d3f2501a50e0b99d0e60bf9668"


def _projection(events):
    return [[event["type"]] + [event.get(key) for key in PROJECTED]
            for event in events]


def _digest(events):
    digest = hashlib.sha256()
    for row in _projection(events):
        digest.update(json.dumps(row).encode() + b"\n")
    return digest.hexdigest()


def _count(events, etype):
    return sum(1 for event in events if event["type"] == etype)


def _run(concurrent=False):
    """8,000 random puts and deletes into a ``MemEnv`` DB with its own
    journal and an installed one (as ``--events-out`` installs it); with
    ``concurrent``, a second thread calls ``flush()`` and
    ``compact_range()`` beside the writer.  Returns the closed DB, its
    live per-level write bytes and W-Amp before ``close()`` with the
    journal's line count then, and both journals' lines."""
    env = MemEnv()
    registry = MetricsRegistry()
    names.register_all(registry)
    installed = EventJournal(keep_events=True)
    options = Options(event_journal=True, write_buffer_size=32 * 1024,
                      sstable_size=16 * 1024)
    rng = random.Random(7)
    with obs.scoped(events=installed):
        db = LsmDB("pindb", options, env=env, metrics=registry)
        writing = threading.Event()
        errors = []

        def maintain():
            try:
                while writing.is_set():
                    db.flush()
                    db.compact_range()
                    time.sleep(0.005)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        maintainer = threading.Thread(target=maintain)
        if concurrent:
            writing.set()
            maintainer.start()
        try:
            for _ in range(8000):
                key = b"key%08d" % rng.randrange(20000)
                if rng.random() < 0.1:
                    db.delete(key)
                else:
                    db.put(key, rng.randbytes(100))
        finally:
            writing.clear()
            if concurrent:
                maintainer.join(timeout=60)
        assert not maintainer.is_alive() and errors == []
        if concurrent:
            db.compact_range()  # nothing left for close() to drain
        rows = db.level_amplification()
        live = {
            "write_bytes": {row["level"]: row["write_bytes"]
                            for row in rows if row["write_bytes"]},
            "write_amp": {row["level"]: row["write_amp"]
                          for row in rows if row["write_amp"]},
            "lines": len(installed.events),  # close() may land a flush
        }
        db.close()
    own = [json.loads(line) for line in env.read_file(
        event_journal_file_name("pindb")).decode().splitlines()]
    return db, live, own, installed.events


def test_inline_journal_is_pinned():
    db, live, own, installed = _run()
    assert _projection(own) == _projection(installed)
    assert _count(own, "flush_finish") == db.stats.flushes
    assert _count(own, "compaction_finish") == db.stats.compactions
    assert _count(own, "stall_finish") == db.stats.stalls
    assert db.stats.compactions > 0 and db.stats.stalls > 0
    assert _digest(own) == INLINE_DIGEST
    assert not replay(own).unbalanced
    # Mid-run (the last sealed memtable not yet landed), replay of the
    # journal so far gives each level the bytes the live registry
    # counted, and the same W-Amp: both divide by the user bytes the
    # last landing fixed, not by every byte written since.
    summary = replay(own[:live["lines"]])
    assert {level: amount for level, amount
            in summary.level_write_bytes.items() if amount} \
        == live["write_bytes"]
    assert {level: amp for level, amp
            in summary.per_level_write_amp().items() if amp} \
        == pytest.approx(live["write_amp"], rel=1e-12)


def test_driver_journal_invariants():
    """Maintenance driven from a second caller thread beside the writer:
    the journal's order varies, its invariants do not."""
    db, live, own, installed = _run(concurrent=True)
    assert _projection(own) == _projection(installed)
    assert _count(own, "flush_finish") == db.stats.flushes
    assert _count(own, "compaction_finish") == db.stats.compactions
    assert _count(own, "stall_finish") == db.stats.stalls
    summary = replay(own)
    assert not summary.unbalanced
    assert {level: amp for level, amp
            in summary.per_level_write_amp().items() if amp} \
        == pytest.approx(live["write_amp"])


def test_simulator_spans_write_no_journal_line():
    """The engine's synthetic ``compaction`` span and the system
    simulator's ``sim.*`` spans are modeled work, not store episodes."""
    journal = EventJournal(keep_events=True)
    with obs.scoped(tracer=obs.Tracer(), events=journal):
        simulate_synthetic(CONFIG_2_INPUT, [300, 200], 16, 64)
        simulate_fillrandom(SystemConfig(
            mode="fcae", options=Options(value_length=512),
            data_size_bytes=64 << 20))
    assert [event["type"] for event in journal.events] == ["journal_open"]
