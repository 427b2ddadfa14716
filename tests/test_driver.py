"""The write path under concurrency: throttling, fault recovery.

Covers maintenance run by the threads that find it due, end to end:
flushes and merges installing under the DB mutex, the L0 stop trigger,
concurrent readers and scanners against a writing database, and the
scheduler's software fallback under injected device faults (no lost or
duplicated keys, no device fault ever reaching a writer).  The file
keeps the name it had when a thread driver ran these steps, so its
tests keep their ids.
"""

import threading
import time
from itertools import islice

import pytest

from repro import obs
from repro.errors import DBStateError, NotFoundError
from repro.fpga.config import CONFIG_9_INPUT
from repro.host.device import FcaeDevice
from repro.host.scheduler import CompactionScheduler
from repro.lsm.db import LsmDB
from repro.lsm.env import MemEnv
from repro.lsm.options import L0_STOP_TRIGGER, Options
from repro.obs.events import EventJournal
from repro.obs.registry import MetricsRegistry

from tests.faulting_backend import faulting_registry


def small_options(**overrides):
    base = dict(write_buffer_size=8 * 1024, sstable_size=8 * 1024,
                max_level0_size=32 * 1024, compression="none",
                value_length=64, bloom_bits_per_key=0)
    base.update(overrides)
    return Options(**base)


def make_db(name, **kwargs):
    return LsmDB(name, small_options(), env=MemEnv(),
                 metrics=MetricsRegistry(), **kwargs)


def family_total(registry, name, **match):
    """Sum a family's children whose labels contain ``match``."""
    total = 0.0
    for family in registry.collect():
        if family.name != name:
            continue
        for child in family.children.values():
            labels = dict(child.labels)
            if all(labels.get(k) == v for k, v in match.items()):
                total += child.value
    return total


def key(i):
    return f"key{i:08d}".encode()


def value(i):
    return f"val{i:04d}".encode() * 8


class TestBackgroundBasics:
    def test_fillrandom_complete_and_sorted(self):
        with make_db("bg-basic") as db:
            n = 1200
            for i in range(n):
                db.put(key(i * 37 % n), value(i * 37 % n))
            db.compact_range()
            scanned = list(db.scan())
            assert len(scanned) == n
            assert [k for k, _ in scanned] == sorted(k for k, _ in scanned)
            for i in range(0, n, 97):
                assert db.get(key(i)) == value(i)

    def test_flush_blocks_until_installed(self):
        with make_db("bg-flush") as db:
            for i in range(100):
                db.put(key(i), value(i))
            db.flush()
            assert db._imm is None
            assert db.versions.current.num_files(0) >= 1

    def test_close_drains_pending_work(self):
        db = make_db("bg-close")
        for i in range(800):
            db.put(key(i), value(i))
        db.close()
        assert db._imm is None
        with pytest.raises(DBStateError):
            db.put(b"late", b"x")


class CountingTarget:
    """A skiplist search target that counts the comparisons made against
    it: the descent's ``node.key < target`` reflects to ``__gt__``."""

    def __init__(self, sort_key):
        self.sort_key = sort_key
        self.calls = 0

    def __gt__(self, other):
        self.calls += 1
        return other < self.sort_key


class TestScan:
    def test_scan_seeks_the_memtable(self):
        """A late ``start`` costs O(log n + rows) comparisons, not a
        walk over everything before it."""
        db = LsmDB("seekdb", Options(), env=MemEnv())
        n = 3000
        for i in range(n):
            db.put(key(i), value(i))
        targets = []

        def counting_sort_key(internal_key):
            targets.append(CountingTarget(db.icmp.sort_key(internal_key)))
            return targets[-1]

        db._mem._sort_key = counting_sort_key
        rows = list(islice(db.scan(start=key(n - 100)), 10))
        assert [k for k, _ in rows] == [key(i)
                                        for i in range(n - 100, n - 90)]
        [target] = targets  # one seek
        assert 0 < target.calls < 100  # a walk would make ~n of them
        db.close()

    def test_scans_beside_writers_see_committed_prefixes(self):
        """Memtables are iterated lazily next to four writers (no copy
        under the mutex): every scan must still be one consistent cut —
        per writer, exactly a prefix of what it committed in order."""
        db = make_db("bg-prefix")
        writers, per_writer = 4, 500
        errors = []
        done = threading.Event()

        def wkey(w, i):
            return f"w{w}-{i:05d}".encode()

        def writer(w):
            try:
                for i in range(per_writer):
                    db.put(wkey(w, i), value(i))
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        def scanner():
            try:
                while not done.is_set():
                    seen = list(db.scan())
                    for w in range(writers):
                        mine = [kv for kv in seen
                                if kv[0].startswith(b"w%d-" % w)]
                        assert mine == [(wkey(w, i), value(i))
                                        for i in range(len(mine))]
                    time.sleep(0)  # hand the writers the GIL
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=writer, args=(w,))
                   for w in range(writers)]
        scan_thread = threading.Thread(target=scanner)
        scan_thread.start()
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        done.set()
        scan_thread.join(timeout=120)
        assert not scan_thread.is_alive()
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert len(list(db.scan())) == writers * per_writer
        db.close()


class TestConcurrency:
    def test_concurrent_put_get_scan(self):
        db = make_db("bg-conc")
        n = 1500
        errors = []
        done = threading.Event()

        def writer():
            try:
                for i in range(n):
                    db.put(key(i), value(i))
            except Exception as error:  # noqa: BLE001
                errors.append(error)
            finally:
                done.set()

        def reader():
            try:
                while not done.is_set():
                    for i in range(0, n, 61):
                        try:
                            assert db.get(key(i)) == value(i)
                        except NotFoundError:
                            pass  # not written yet
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        def scanner():
            try:
                while not done.is_set():
                    seen = [k for k, _ in db.scan()]
                    assert seen == sorted(seen)
                    assert len(seen) == len(set(seen))
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=writer),
                   threading.Thread(target=reader),
                   threading.Thread(target=scanner)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
        assert errors == []
        db.compact_range()
        assert len(list(db.scan())) == n
        for i in range(0, n, 41):
            assert db.get(key(i)) == value(i)
        db.close()

    def test_scan_during_write_is_snapshot_consistent(self):
        db = make_db("bg-scan")
        for i in range(400):
            db.put(key(i), value(i))
        stop = threading.Event()
        errors = []

        def writer():
            i = 400
            while not stop.is_set():
                db.put(key(i % 2000), value(i % 2000))
                i += 1

        def scanner():
            try:
                for _ in range(20):
                    seen = list(db.scan(start=key(0), end=key(2000)))
                    keys = [k for k, _ in seen]
                    assert keys == sorted(keys)
                    assert len(keys) == len(set(keys))
                    # Everything loaded before the writer started must
                    # stay visible in every scan.
                    assert set(key(i) for i in range(400)) <= set(keys)
            except Exception as error:  # noqa: BLE001
                errors.append(error)
            finally:
                stop.set()

        w = threading.Thread(target=writer)
        s = threading.Thread(target=scanner)
        w.start()
        s.start()
        s.join(timeout=120)
        stop.set()
        w.join(timeout=120)
        assert errors == []
        db.close()


class TestThrottling:
    def test_l0_stop_trigger_blocks_then_recovers(self):
        """Drive L0 over the stop trigger with compactions disabled, then
        let the writer relieve it: the writer must have stalled (counted
        + histogram) at the stop trigger and L0 must drop below it."""
        journal = EventJournal(keep_events=True)
        with obs.scoped(events=journal):
            db = make_db("bg-stop")
        try:
            # Pause merges: the DB's pick returns None until released.
            real_pick = db._pick_compaction_locked
            db._pick_compaction_locked = lambda hint: None
            for i in range(4000):
                db.put(key(i), value(i))
                if db.versions.current.num_files(0) >= L0_STOP_TRIGGER:
                    break
            assert db.versions.current.num_files(0) >= L0_STOP_TRIGGER

            # Keep merges paused until the writer stalls at the stop
            # trigger; from then on each of its steps picks an L0 merge.
            def release_after_stall():
                while not db._closed and not any(
                        event.get("reason") == "l0_stop"
                        for event in list(journal.events)):
                    time.sleep(0.001)
                db._pick_compaction_locked = real_pick

            releaser = threading.Thread(target=release_after_stall)
            releaser.start()
            # The next memtable-filling writes hit the stop path, block,
            # and resume once an L0 compaction lands.
            for i in range(4000, 5200):
                db.put(key(i), value(i))
            releaser.join(timeout=30)
            assert not releaser.is_alive()
            assert db.stats.stalls > 0
            assert db._m.stall_seconds.count > 0
            db.compact_range()
            assert db.versions.current.num_files(0) < L0_STOP_TRIGGER
        finally:
            db.close()


class TestFaultInjection:
    """Device faults inside a live DB's merges, from a faulting
    ``fpga-sim`` backend."""

    def _load(self, db, n):
        for i in range(n):
            db.put(key(i), value(i))
        db.compact_range()

    def _faulty(self, name, **schedule):
        options = small_options(accelerator="fpga-sim")
        registry = MetricsRegistry()
        device = FcaeDevice(CONFIG_9_INPUT, options, metrics=registry)
        backends, faulting = faulting_registry(device, options, **schedule)
        scheduler = CompactionScheduler(device, options, metrics=registry,
                                        backends=backends)
        db = LsmDB(name, options, env=MemEnv(), metrics=registry,
                   compaction_executor=scheduler)
        return db, scheduler, faulting, registry

    def test_every_nth_fpga_task_fails_no_lost_keys(self):
        """Every offload raises, so each task's attempt and its retry
        fault and the task falls back to the software merge.  The
        resulting key space must be identical to a software-only
        database and no exception may reach a writer."""
        n = 1800
        software = LsmDB("sw-ref", small_options(), env=MemEnv(),
                         metrics=MetricsRegistry())
        self._load(software, n)
        reference = list(software.scan())
        software.close()

        faulty, scheduler, faulting, registry = self._faulty(
            "fpga-faulty", protocol_error_every=1)
        self._load(faulty, n)
        assert list(faulty.scan()) == reference
        stats = scheduler.stats
        assert stats.fpga_fallbacks > 0
        assert faulting.injected_faults == 2 * stats.fpga_fallbacks
        assert stats.fpga_faults == faulting.injected_faults
        assert stats.fpga_retries == stats.fpga_fallbacks
        assert stats.backend_tasks["fpga-sim"] == stats.fpga_fallbacks
        assert family_total(registry, "scheduler_fallbacks_total") \
            == stats.fpga_fallbacks
        faulty.close()

    def test_retries_absorb_periodic_faults(self):
        """With one retry, an every-3rd-task fault schedule never needs
        the software fallback (the retry is a new backend run)."""
        db, scheduler, faulting, _ = self._faulty("fpga-retry",
                                                  timeout_every=3)
        self._load(db, 1200)
        assert faulting.injected_faults > 0
        assert scheduler.stats.fpga_retries == faulting.injected_faults
        assert scheduler.stats.fpga_fallbacks == 0
        assert len(list(db.scan())) == 1200
        db.close()
