"""Runtime lock-order watchdog tests (``repro.analysis.watchdog``).

The ABBA fixture proves cycle detection works from acquisition *order*
alone — the test never actually deadlocks.  The clean-run tests prove
the watchdog reports no cycles across the store's real concurrency
(8-writer group commit) and that the two regression fixes hold: the
metrics registry takes its lock on reads, and compaction fsyncs output
tables without holding the DB mutex.
"""

from __future__ import annotations

import threading

import pytest

from repro.analysis import watchdog as lockwatch
from repro.analysis.watchdog import LockWatchdog, WatchdogLock
from repro.lsm import LsmDB, Options
from repro.lsm.env import MemEnv
from repro.obs.events import EventJournal
from repro.obs.registry import MetricsRegistry


def _locks(wd, *names):
    return [WatchdogLock(wd, name, threading.Lock()) for name in names]


@pytest.fixture
def enabled_watchdog():
    """Enable the module-level watchdog for one test, restoring the
    previous enablement afterwards."""
    was_enabled = lockwatch.enabled()
    wd = lockwatch.enable()
    lockwatch.reset()
    yield wd
    lockwatch.reset()
    if not was_enabled:
        lockwatch.disable()


# ---------------------------------------------------------------------------
# Cycle detection
# ---------------------------------------------------------------------------

def test_abba_inversion_detected_without_deadlock():
    wd = LockWatchdog()
    a, b = _locks(wd, "A", "B")
    with a:
        with b:
            pass
    with b:
        with a:
            pass
    cycles = wd.cycles()
    assert len(cycles) == 1
    assert sorted(cycles[0]["locks"]) == ["A", "B"]
    assert cycles[0]["closing_edge"] == ["B", "A"]


def test_consistent_order_reports_no_cycles():
    wd = LockWatchdog()
    a, b = _locks(wd, "A", "B")
    for _ in range(10):
        with a:
            with b:
                pass
    assert wd.cycles() == []
    assert wd.edge_count() == 1


def test_three_lock_cycle_detected():
    wd = LockWatchdog()
    a, b, c = _locks(wd, "A", "B", "C")
    with a:
        with b:
            pass
    with b:
        with c:
            pass
    with c:
        with a:
            pass
    cycles = wd.cycles()
    assert len(cycles) == 1
    assert sorted(cycles[0]["locks"]) == ["A", "B", "C"]


def test_same_cycle_reported_once():
    wd = LockWatchdog()
    a, b = _locks(wd, "A", "B")
    for _ in range(5):
        with a:
            with b:
                pass
        with b:
            with a:
                pass
    assert len(wd.cycles()) == 1


def test_abba_across_two_threads():
    wd = LockWatchdog()
    a, b = _locks(wd, "A", "B")
    with a:
        with b:
            pass

    def inverted():
        with b:
            with a:
                pass

    thread = threading.Thread(target=inverted)
    thread.start()
    thread.join()
    assert len(wd.cycles()) == 1


# ---------------------------------------------------------------------------
# Wrapper mechanics: Condition protocol, long holds
# ---------------------------------------------------------------------------

def test_condition_wait_fully_releases_and_restores():
    wd = LockWatchdog()
    lock = WatchdogLock(wd, "m", threading.Lock())
    cond = threading.Condition(lock)
    waiting = threading.Event()
    seen: list = []

    def waiter():
        with cond:
            seen.append(list(wd.held_names()))
            waiting.set()
            cond.wait(timeout=5)
            seen.append(list(wd.held_names()))
        seen.append(list(wd.held_names()))

    thread = threading.Thread(target=waiter)
    thread.start()
    assert waiting.wait(timeout=5)
    # Acquiring here proves the waiter physically released the lock.
    with cond:
        cond.notify()
    thread.join(timeout=5)
    assert not thread.is_alive()
    assert seen == [["m"], ["m"], []]
    assert wd.held_names() == []
    # The waiter's entry and re-take after wait(), and this thread's hold.
    assert wd.acquires() == {"m": 3}
    assert wd.edge_count() == 0


def test_long_hold_reported():
    fake_now = [0.0]
    wd = LockWatchdog(long_hold_seconds=0.05, clock=lambda: fake_now[0])
    lock = WatchdogLock(wd, "slow", threading.Lock())
    with lock:
        fake_now[0] = 1.0
    holds = wd.long_holds()
    assert len(holds) == 1
    assert holds[0]["lock"] == "slow"
    assert holds[0]["seconds"] == pytest.approx(1.0)
    # quick holds stay quiet
    with lock:
        pass
    assert len(wd.long_holds()) == 1


def test_cycle_report_reaches_journal_after_stack_drains():
    wd = LockWatchdog()
    a, b = _locks(wd, "A", "B")
    journal = EventJournal(keep_events=True)
    wd.attach_journal((journal,))
    with a:
        with b:
            pass
    with b:
        with a:
            # Cycle already detected, but emission is deferred until
            # this thread holds no instrumented locks.
            types = [e["type"] for e in journal.events]
            assert "lock_cycle" not in types
    events = [e for e in journal.events if e["type"] == "lock_cycle"]
    assert len(events) == 1
    assert events[0]["closing_edge"] == "B->A"
    assert set(events[0]) >= {"locks", "closing_edge", "thread"}


def test_closed_db_detaches_its_journal(enabled_watchdog):
    """A report queued after ``close()`` waits for the next journal
    instead of vanishing into the closed DB's sink."""
    db = LsmDB("db", env=MemEnv(), options=Options(event_journal=True))
    db.close()
    hold = enabled_watchdog.long_hold_seconds
    enabled_watchdog.long_hold_seconds = 0.0
    try:
        with WatchdogLock(enabled_watchdog, "slow", threading.Lock()):
            pass
    finally:
        enabled_watchdog.long_hold_seconds = hold
    journal = EventJournal(keep_events=True)
    enabled_watchdog.attach_journal((journal,))
    with WatchdogLock(enabled_watchdog, "quick", threading.Lock()):
        pass
    holds = [e for e in journal.events if e["type"] == "lock_long_hold"]
    assert [e["lock"] for e in holds] == ["slow"]


def test_publish_exports_gauges():
    wd = LockWatchdog()
    a, b = _locks(wd, "A", "B")
    with a:
        with b:
            pass
    with b:
        with a:
            pass
    registry = MetricsRegistry()
    wd.publish(registry)
    assert registry.get_value("lockwatch_acquires") == 4.0
    assert registry.get_value("lockwatch_edges") == 2.0
    assert registry.get_value("lockwatch_cycles") == 1.0
    assert registry.get_value("lockwatch_long_holds") == 0.0


def test_factories_return_plain_primitives_when_disabled():
    if lockwatch.enabled():
        pytest.skip("watchdog force-enabled via environment")
    assert not isinstance(lockwatch.make_lock("x"), WatchdogLock)


# ---------------------------------------------------------------------------
# Clean runs over the real store
# ---------------------------------------------------------------------------

def test_group_commit_clean_run_reports_no_cycles(enabled_watchdog):
    db = LsmDB("db", options=Options(
        wal_sync="group", compression="none", bloom_bits_per_key=0,
        write_buffer_size=16 * 1024))
    errors: list = []

    def writer(wid: int):
        try:
            for i in range(40):
                db.put(f"w{wid:02d}-{i:04d}".encode(),
                       f"v{wid}-{i}".encode() * 4)
        except Exception as exc:  # pragma: no cover - fail loudly
            errors.append(exc)

    threads = [threading.Thread(target=writer, args=(wid,))
               for wid in range(8)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    db.close()
    assert errors == []
    assert enabled_watchdog.cycles() == []
    assert enabled_watchdog.acquires().get("lsm.mutex", 0) > 0


def test_registry_reads_take_the_lock(enabled_watchdog):
    registry = MetricsRegistry()
    registry.gauge("lockwatch_cycles").set(3.0)
    before = enabled_watchdog.acquires().get("obs.registry", 0)
    assert before > 0
    assert registry.get_value("lockwatch_cycles") == 3.0
    assert registry.sum_family("lockwatch_cycles") == 3.0
    after = enabled_watchdog.acquires().get("obs.registry", 0)
    assert after >= before + 2


class _SyncSpyFile:
    """WritableFile wrapper recording held instrumented locks at sync."""

    def __init__(self, inner, name: str, record: list):
        self._inner = inner
        self._name = name
        self._record = record

    def append(self, data: bytes) -> None:
        self._inner.append(data)

    def sync(self) -> None:
        self._record.append(
            (self._name, list(lockwatch.held_by_current_thread())))
        self._inner.sync()

    def close(self) -> None:
        self._inner.close()

    def __getattr__(self, attr):
        return getattr(self._inner, attr)


class _SyncSpyEnv(MemEnv):
    def __init__(self, record: list):
        super().__init__()
        self._record = record

    def new_writable_file(self, name: str):
        return _SyncSpyFile(super().new_writable_file(name), name,
                            self._record)


def test_compaction_syncs_tables_without_db_mutex(enabled_watchdog):
    record: list = []
    db = LsmDB("db", env=_SyncSpyEnv(record),
               options=Options(
                   compression="none", bloom_bits_per_key=0,
                   block_size=512, sstable_size=4 * 1024,
                   write_buffer_size=8 * 1024))
    # Hold merges off while L0 fills (an instance attribute shadows the
    # method until the ``del``), so the merge below has inputs.
    db.versions.needs_compaction = lambda: False
    for batch in range(6):
        for i in range(60):
            db.put(f"k{batch:02d}-{i:04d}".encode(), b"v" * 64)
        db.flush()
    del db.versions.needs_compaction
    record.clear()
    assert db.compact_once(level_hint=0)
    table_syncs = [(name, held) for name, held in record
                   if name.endswith(".ldb")]
    assert table_syncs, "compaction wrote no output tables"
    for name, held in table_syncs:
        assert "lsm.mutex" not in held, (
            f"{name} fsynced while holding the DB mutex")
    db.close()
    assert enabled_watchdog.cycles() == []
