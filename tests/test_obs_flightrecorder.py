"""Flight-recorder acceptance: journal replay reproduces the live
registry's per-level write-amplification, ``repro.levelstats`` reports
the amplification table, windowed percentiles reach the Prometheus
exposition, and device faults reach the DB's own journal."""

import gc
import json
import os
import random
import sys
import threading
import time
import warnings
from collections import Counter

import pytest

from repro import obs
from repro.errors import NotFoundError
from repro.fpga.config import CONFIG_9_INPUT
from repro.host.device import FcaeDevice
from repro.host.scheduler import CompactionScheduler
from repro.lsm.batch import WriteBatch
from repro.lsm.db import LsmDB
from repro.lsm.env import MemEnv, OsEnv
from repro.lsm.filenames import event_journal_file_name
from repro.lsm.options import Options
from repro.obs.events import EventJournal, replay
from repro.obs.exposition import to_prometheus_text
from repro.obs.registry import MetricsRegistry
from repro.obs import names

from tests.faulting_backend import faulting_registry


def small_options(**overrides):
    return Options(block_size=512, sstable_size=8 * 1024,
                   write_buffer_size=16 * 1024,
                   max_level0_size=64 * 1024, compression="none",
                   **overrides)


def fill(db, entries=4000, key_space=1600, seed=5):
    rng = random.Random(seed)
    for _ in range(entries):
        db.put(f"k{rng.randrange(key_space):08d}".encode(), b"v" * 64)


@pytest.fixture
def registry():
    registry = MetricsRegistry()
    names.register_all(registry)
    return registry


class TestStatsReport:
    def test_uptime_and_journal_segments(self, registry):
        db = LsmDB("repdb", small_options(event_journal=True),
                   metrics=registry)
        db.put(b"a", b"1")
        report = db.property("repro.stats")
        assert "uptime_seconds:" in report
        assert "journal_segments: 1" in report
        plain = LsmDB("plaindb", small_options(), metrics=registry)
        plain.put(b"a", b"1")
        assert "journal_segments: 0" in plain.property("repro.stats")


class TestOpScoring:
    def test_failure_scored_once_against_the_outermost_op(self, registry):
        """A put is timed around the write it makes: a success is one
        put and one write observation, a failure one observation of the
        outermost op — not two."""
        db = LsmDB("opdb", small_options(latency_window_seconds=60.0),
                   metrics=registry)

        def counts():
            return {op: db.latency_window(op).count
                    for op in ("put", "write", "get")}

        db.put(b"a", b"1")
        assert counts() == {"put": 1, "write": 1, "get": 0}

        def torn_append(record):
            raise OSError("disk gone")
        db._log.add_record = torn_append
        with pytest.raises(OSError):
            db.put(b"b", b"2")
        assert counts() == {"put": 2, "write": 1, "get": 0}
        batch = WriteBatch()
        batch.put(b"c", b"3")
        with pytest.raises(OSError):
            db.write(batch)
        assert counts() == {"put": 2, "write": 2, "get": 0}
        # an absent key is one get like any other
        with pytest.raises(NotFoundError):
            db.get(b"b")
        assert counts() == {"put": 2, "write": 2, "get": 1}


class TestReplayEqualsLiveRegistry:
    def test_fillrandom_with_background_compaction(self, registry):
        """A second thread runs ``compact_range()`` beside the writer,
        whose own writes run the maintenance they find due."""
        journal = EventJournal(keep_events=True)
        with obs.scoped(events=journal):
            db = LsmDB("wadb", small_options(), metrics=registry)
        writing = threading.Event()
        writing.set()
        errors = []

        def maintain():
            try:
                while writing.is_set():
                    db.compact_range()
                    time.sleep(0.005)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        maintainer = threading.Thread(target=maintain)
        maintainer.start()
        try:
            fill(db)
        finally:
            writing.clear()
            maintainer.join(timeout=60)
        assert not maintainer.is_alive() and errors == []
        db.compact_range()

        live_total = db.stats.write_amplification
        live_levels = {row["level"]: row["write_amp"]
                       for row in db.level_amplification()
                       if row["write_amp"]}
        level_bytes = {row["level"]: row["write_bytes"]
                       for row in db.level_amplification()}
        db.close()

        summary = replay(journal.events)
        assert summary.compactions > 0 and summary.flushes > 0
        assert summary.write_amplification == pytest.approx(
            live_total, abs=1e-9)
        replayed = {level: amp
                    for level, amp in summary.per_level_write_amp().items()
                    if amp}
        assert replayed == pytest.approx(live_levels)
        for level, amp_bytes in summary.level_write_bytes.items():
            assert amp_bytes == level_bytes[level]

    def test_replay_matches_synchronous_compaction(self, registry):
        journal = EventJournal(keep_events=True)
        with obs.scoped(events=journal):
            db = LsmDB("syncdb", small_options(), metrics=registry)
        fill(db, entries=2500)
        db.flush()

        live_levels = {row["level"]: row["write_amp"]
                       for row in db.level_amplification()
                       if row["write_amp"]}
        level_bytes = {row["level"]: row["write_bytes"]
                       for row in db.level_amplification()}
        db.close()

        summary = replay(journal.events)
        assert summary.compactions > 0 and summary.flushes > 0
        assert summary.write_amplification == pytest.approx(
            db.stats.write_amplification, abs=1e-9)
        replayed = {level: amp
                    for level, amp in summary.per_level_write_amp().items()
                    if amp}
        assert replayed == pytest.approx(live_levels)
        # The byte-level accounting matches the registry counters too.
        for level, amp_bytes in summary.level_write_bytes.items():
            assert amp_bytes == level_bytes[level]


class TestLevelStatsProperty:
    def test_table_reports_per_level_amplification(self, registry):
        db = LsmDB("statsdb", small_options(), metrics=registry)
        fill(db, entries=3000)
        db.flush()
        text = db.property("repro.levelstats")
        assert text is not None
        rows = db.level_amplification()

        assert "W-Amp" in text and "S-Amp" in text and "R-Amp" in text
        for level, row in enumerate(rows):
            assert f"level {level}   {row['files']:5d}" in text
            if row["files"]:
                assert f"{row['write_amp']:8.3f}" in text
        assert f"write_amplification: " \
               f"{db.stats.write_amplification:.3f}" in text
        db.close()

    def test_rows_cover_all_levels_and_definitions(self, registry):
        db = LsmDB("ampdb", small_options(), metrics=registry)
        fill(db, entries=3000)
        db.flush()
        rows = db.level_amplification()
        assert [row["level"] for row in rows] == list(range(len(rows)))
        sizes = [row["bytes"] for row in rows]
        last = next((s for s in reversed(sizes) if s), 0)
        for row in rows:
            if row["bytes"]:
                assert row["space_amp"] == pytest.approx(
                    row["bytes"] / last)
            if row["level"] == 0:
                assert row["read_amp"] == row["files"]
        db.close()

    def test_amp_gauges_land_in_registry(self, registry):
        db = LsmDB("gaugedb", small_options(), metrics=registry)
        fill(db, entries=3000)
        db.flush()
        db.compact_range()
        text = to_prometheus_text(registry)
        assert 'lsm_level_write_amp{' in text
        l0 = next(line for line in text.splitlines()
                  if line.startswith("lsm_level_write_amp")
                  and 'level="0"' in line)
        row0 = db.level_amplification()[0]
        assert float(l0.split()[-1]) == pytest.approx(row0["write_amp"])
        db.close()


class TestWindowedExposition:
    def test_windowed_p99_in_prometheus_text(self, registry):
        db = LsmDB("windb", small_options(latency_window_seconds=60.0),
                   metrics=registry)
        fill(db, entries=1500)
        for i in range(200):
            db.put(f"g{i:08d}".encode(), b"v" * 64)
            db.get(f"g{i:08d}".encode())
        text = to_prometheus_text(registry)
        lines = [line for line in text.splitlines()
                 if line.startswith("lsm_op_latency_window_seconds")]
        ops = {op for op in ("get", "put", "write")
               if any(f'op="{op}"' in line for line in lines)}
        assert ops == {"get", "put", "write"}
        p99_put = next(line for line in lines
                       if 'op="put"' in line and 'quantile="p99"' in line)
        assert float(p99_put.split()[-1]) > 0.0
        db.close()


class TestDeviceFaultsReachTheDbJournal:
    """A fault the scheduler absorbs inside a DB's compaction lands in
    that DB's own journal (and in an installed one), once per journal."""

    def _run(self, installed=None):
        env = MemEnv()
        options = Options(event_journal=True, write_buffer_size=32 * 1024,
                          sstable_size=16 * 1024, accelerator="fpga-sim")
        device = FcaeDevice(CONFIG_9_INPUT, options)
        rng = random.Random(7)
        with obs.scoped(events=installed):
            backends, _ = faulting_registry(device, options,
                                            protocol_error_every=1)
            scheduler = CompactionScheduler(device, options,
                                            backends=backends)
            db = LsmDB("faultdb", options, env=env,
                       compaction_executor=scheduler)
            for _ in range(6000):
                db.put(b"key%08d" % rng.randrange(20000),
                       rng.randbytes(100))
            db.close()
        own = [json.loads(line) for line in env.read_file(
            event_journal_file_name("faultdb")).decode().splitlines()]
        return scheduler, own

    def test_faults_and_fallbacks_in_the_db_journal(self):
        scheduler, own = self._run()
        stats = scheduler.stats
        faults = [e for e in own if e["type"] == "fault"]
        retries = [e for e in own if e["type"] == "retry"]
        fallbacks = [e for e in own if e["type"] == "fallback"]
        assert stats.fpga_fallbacks > 0
        assert len(faults) == stats.fpga_faults
        assert len(retries) == stats.fpga_retries
        assert len(fallbacks) == stats.fpga_fallbacks
        assert {e["backend"] for e in faults + retries} == {"fpga-sim"}
        assert {(e["source"], e["target"]) for e in fallbacks} \
            == {("fpga-sim", "cpu")}
        # Each compaction's journal ``backend`` is the route its
        # executor returned; a failover counts against the backend it
        # tried.
        routes = Counter(e["backend"] for e in own
                         if e["type"] == "compaction_finish")
        tasks = stats.backend_tasks
        assert routes == Counter({
            "fallback": stats.fpga_fallbacks,
            "fpga-sim": tasks["fpga-sim"] - stats.fpga_fallbacks,
            "cpu": tasks["cpu"]})

    def test_each_journal_gets_each_line_once(self):
        recovery = ("fault", "retry", "fallback")

        def lines(events):
            return [(e["type"], e.get("attempt"), e.get("level"))
                    for e in events if e["type"] in recovery]
        installed = EventJournal(keep_events=True)
        scheduler, own = self._run(installed)
        assert lines(own) == lines(installed.events)
        assert len(lines(own)) == (scheduler.stats.fpga_faults
                                   + scheduler.stats.fpga_retries
                                   + scheduler.stats.fpga_fallbacks)


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="counts descriptors in /proc")
def test_close_closes_the_db_journal_file(tmp_path, monkeypatch):
    """``close()`` closes the ``EVENTS.jsonl`` handle the DB opened: its
    descriptor is gone at once, and dropping the DB warns of nothing."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    path = str(tmp_path / "db")

    def journal_fds():
        names = []
        for fd in os.listdir("/proc/self/fd"):
            try:
                names.append(os.readlink(f"/proc/self/fd/{fd}"))
            except OSError:  # the listing's own descriptor
                pass
        return [n for n in names if n == event_journal_file_name(path)]

    with warnings.catch_warnings():
        warnings.simplefilter("error")
        db = LsmDB(path, Options(event_journal=True), env=OsEnv(),
                   metrics=MetricsRegistry())
        db.put(b"k", b"v")
        assert journal_fds()
        db.close()
        assert journal_fds() == []
        del db
        gc.collect()
    assert unraisable == []
