"""Runtime lock-order watchdog: instrumented locks with cycle detection.

The static pass in :mod:`repro.analysis.lockdiscipline` proves lexical
discipline; this module watches the *dynamic* order in which threads
actually acquire locks.  Each instrumented lock acquisition while
another instrumented lock is held adds an edge ``held -> acquired`` to
a global lock-order graph.  A cycle in that graph means two threads can
acquire the same locks in opposite orders — the classic ABBA deadlock —
even if the test run never interleaved badly enough to hang.  The
watchdog also flags long-hold outliers (a mutex held across an fsync is
exactly the bug class group commit exists to avoid).

Design constraints:

* **Zero overhead when disabled.**  The factory functions return plain
  ``threading`` primitives unless the watchdog is enabled (env var
  ``REPRO_LOCK_WATCHDOG=1`` or :func:`enable`).
* **Never deadlock the thing it watches.**  Bookkeeping uses one plain
  internal ``threading.Lock`` that is never held while user code runs,
  and journal emission is deferred until the reporting thread holds no
  instrumented locks (the journal's own lock may be instrumented —
  emitting from inside acquire bookkeeping would self-deadlock).
* **Condition-compatible.**  ``threading.Condition(wrapped_lock)``
  releases and re-takes a ``WatchdogLock`` through its own ``release`` /
  ``acquire`` around ``wait()``, so the real lock and the watchdog's
  books move together.  There is no re-entrant flavour: no lock in the
  store is taken twice by one thread.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Set, Tuple

__all__ = [
    "LockWatchdog",
    "WatchdogLock",
    "get",
    "enabled",
    "enable",
    "disable",
    "reset",
    "make_lock",
    "make_condition",
    "held_by_current_thread",
]

#: Default threshold for the long-hold report, in seconds.  CI boxes
#: are noisy; anything below ~100 ms flags GC pauses, not bugs.
DEFAULT_LONG_HOLD_SECONDS = 0.5


class _Held:
    """One entry in a thread's held-lock stack."""

    __slots__ = ("serial", "name", "since")

    def __init__(self, serial: int, name: str, since: float):
        self.serial = serial
        self.name = name
        self.since = since


class LockWatchdog:
    """Global acquisition-order graph plus per-thread held stacks."""

    def __init__(self, long_hold_seconds: float = DEFAULT_LONG_HOLD_SECONDS,
                 clock: Callable[[], float] = time.monotonic):
        self.long_hold_seconds = long_hold_seconds
        self._clock = clock
        # Internal bookkeeping lock: plain, never instrumented, never
        # held while calling out to user code or the journal.
        self._lock = threading.Lock()
        self._next_serial = 1
        self._tl = threading.local()
        # serial -> set of serials acquired while it was held
        self._edges: Dict[int, Set[int]] = {}
        self._names: Dict[int, str] = {}
        self._cycles: List[dict] = []
        self._cycle_keys: Set[Tuple[str, ...]] = set()
        self._long_holds: List[dict] = []
        self._acquires: Dict[str, int] = {}
        # (event_type, fields) reports awaiting a safe moment to emit.
        self._pending: List[Tuple[str, dict]] = []
        self._journals: tuple = ()

    # ------------------------------------------------------------ wiring

    def new_serial(self) -> int:
        with self._lock:
            serial = self._next_serial
            self._next_serial += 1
            return serial

    def attach_journal(self, journals: tuple) -> None:
        """Route cycle/long-hold reports to a DB's journals (a tuple of
        ``EventJournal`` objects)."""
        with self._lock:
            self._journals = journals

    def detach_journal(self, journals: tuple) -> None:
        """Stop routing reports to ``journals`` if they are still the
        attached ones; reports queue until journals are attached."""
        with self._lock:
            if self._journals is journals:
                self._journals = ()

    def reset_state(self) -> None:
        """Drop the graph, findings, and every thread's held stack.
        Only call when no instrumented lock is held (e.g. between
        tests); existing wrapper objects stay valid."""
        with self._lock:
            self._edges.clear()
            self._names.clear()
            self._cycles.clear()
            self._cycle_keys.clear()
            self._long_holds.clear()
            self._acquires.clear()
            self._pending.clear()
            self._tl = threading.local()

    # ------------------------------------------------ per-thread helpers

    def _stack(self) -> List[_Held]:
        stack = getattr(self._tl, "stack", None)
        if stack is None:
            stack = []
            self._tl.stack = stack
            self._tl.seen_edges = set()
        return stack

    def held_names(self) -> List[str]:
        """Names of instrumented locks the current thread holds, in
        acquisition order (innermost last)."""
        return [entry.name for entry in self._stack()]

    # ------------------------------------------------------- bookkeeping

    def note_acquire(self, serial: int, name: str) -> None:
        stack = self._stack()
        entry = _Held(serial, name, self._clock())
        if stack:
            self._note_edge(stack[-1], entry)
        stack.append(entry)
        with self._lock:
            self._acquires[name] = self._acquires.get(name, 0) + 1

    def note_release(self, serial: int) -> None:
        """Pop this thread's hold of ``serial``."""
        stack = self._stack()
        for i in range(len(stack) - 1, -1, -1):
            if stack[i].serial == serial:
                self._note_hold_time(stack.pop(i))
                break
        if not stack:
            self._drain_reports()

    def _note_hold_time(self, entry: _Held) -> None:
        held_for = self._clock() - entry.since
        if held_for < self.long_hold_seconds:
            return
        report = {
            "lock": entry.name,
            "seconds": round(held_for, 6),
            "thread": threading.current_thread().name,
        }
        with self._lock:
            self._long_holds.append(report)
            self._pending.append(("lock_long_hold", dict(report)))

    def _note_edge(self, outer: _Held, inner: _Held) -> None:
        key = (outer.serial, inner.serial)
        seen: Set[Tuple[int, int]] = self._tl.seen_edges
        if key in seen:
            return
        seen.add(key)
        with self._lock:
            self._names.setdefault(outer.serial, outer.name)
            self._names.setdefault(inner.serial, inner.name)
            successors = self._edges.setdefault(outer.serial, set())
            if inner.serial in successors:
                return
            path = self._find_path(inner.serial, outer.serial)
            successors.add(inner.serial)
            if path is None:
                return
            # path runs inner -> ... -> outer; closing edge outer->inner
            # completes the cycle.
            cycle_names = tuple(self._names.get(s, f"lock-{s}")
                                for s in path)
            canonical = min(cycle_names[i:] + cycle_names[:i]
                            for i in range(len(cycle_names)))
            if canonical in self._cycle_keys:
                return
            self._cycle_keys.add(canonical)
            report = {
                "locks": list(cycle_names),
                "closing_edge": [outer.name, inner.name],
                "thread": threading.current_thread().name,
            }
            self._cycles.append(report)
            self._pending.append(("lock_cycle", {
                "locks": ",".join(cycle_names),
                "closing_edge": f"{outer.name}->{inner.name}",
                "thread": report["thread"],
            }))

    def _find_path(self, src: int, dst: int) -> Optional[List[int]]:
        """DFS path src -> dst in the edge graph (caller holds _lock)."""
        stack = [(src, [src])]
        visited = {src}
        while stack:
            node, path = stack.pop()
            if node == dst:
                return path
            for succ in self._edges.get(node, ()):
                if succ not in visited:
                    visited.add(succ)
                    stack.append((succ, path + [succ]))
        return None

    # --------------------------------------------------------- reporting

    def _drain_reports(self) -> None:
        """Emit queued reports once this thread holds no instrumented
        locks.  Re-entrancy guard: emit() itself acquires the (possibly
        instrumented) journal lock, whose release re-enters here."""
        if getattr(self._tl, "draining", False):
            return
        with self._lock:
            journals = self._journals
            if not journals or not self._pending:
                return
            pending, self._pending = self._pending, []
        # Imported here: repro.obs.events instruments its lock with this
        # module.
        from repro.obs.events import record
        self._tl.draining = True
        try:
            for event_type, fields in pending:
                try:
                    record(journals, event_type, **fields)
                except Exception:
                    # Diagnostics must never take down the store; a
                    # closed/invalid journal just drops the report.
                    pass
        finally:
            self._tl.draining = False

    def cycles(self) -> List[dict]:
        with self._lock:
            return [dict(c) for c in self._cycles]

    def long_holds(self) -> List[dict]:
        with self._lock:
            return [dict(h) for h in self._long_holds]

    def acquires(self) -> Dict[str, int]:
        with self._lock:
            return dict(self._acquires)

    def edge_count(self) -> int:
        with self._lock:
            return sum(len(s) for s in self._edges.values())

    def report(self) -> dict:
        """Machine-readable summary of everything observed so far."""
        with self._lock:
            return {
                "acquires": dict(self._acquires),
                "edges": sum(len(s) for s in self._edges.values()),
                "cycles": [dict(c) for c in self._cycles],
                "long_holds": [dict(h) for h in self._long_holds],
            }

    def publish(self, registry: Any) -> None:
        """Export counts as gauges on a ``MetricsRegistry``."""
        report = self.report()
        registry.gauge("lockwatch_acquires").set(
            float(sum(report["acquires"].values())))
        registry.gauge("lockwatch_edges").set(float(report["edges"]))
        registry.gauge("lockwatch_cycles").set(float(len(report["cycles"])))
        registry.gauge("lockwatch_long_holds").set(
            float(len(report["long_holds"])))


class WatchdogLock:
    """Instrumented ``threading.Lock``."""

    def __init__(self, watchdog: LockWatchdog, name: str, inner):
        self._watchdog = watchdog
        self.name = name
        self._inner = inner
        self._serial = watchdog.new_serial()

    def acquire(self, blocking: bool = True, timeout: float = -1) -> bool:
        acquired = self._inner.acquire(blocking, timeout)
        if acquired:
            self._watchdog.note_acquire(self._serial, self.name)
        return acquired

    def release(self) -> None:
        # Real release first: the bookkeeping may drain queued reports
        # once this thread's held stack empties, and that must not run
        # while the lock is still physically held.
        self._inner.release()
        self._watchdog.note_release(self._serial)

    def locked(self) -> bool:
        return self._inner.locked()

    def __enter__(self):
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"<{type(self).__name__} {self.name!r} "
                f"serial={self._serial}>")


# ---------------------------------------------------------------- module API

_watchdog = LockWatchdog()


def _env_truthy(value: Optional[str]) -> bool:
    return (value or "").strip().lower() not in ("", "0", "false", "no")


_enabled = _env_truthy(os.environ.get("REPRO_LOCK_WATCHDOG"))
if _enabled:
    _hold = os.environ.get("REPRO_LOCK_WATCHDOG_HOLD_S")
    if _hold:
        try:
            _watchdog.long_hold_seconds = float(_hold)
        except ValueError:
            pass


def get() -> LockWatchdog:
    return _watchdog


def enabled() -> bool:
    return _enabled


def enable(long_hold_seconds: Optional[float] = None) -> LockWatchdog:
    """Turn instrumentation on for locks created *after* this call."""
    global _enabled
    _enabled = True
    if long_hold_seconds is not None:
        _watchdog.long_hold_seconds = long_hold_seconds
    return _watchdog


def disable() -> None:
    global _enabled
    _enabled = False


def reset() -> None:
    """Clear observed state (graph, cycles, held stacks, reports)."""
    _watchdog.reset_state()


def make_lock(name: str) -> Any:
    """A ``Lock``, instrumented when the watchdog is enabled."""
    if not _enabled:
        return threading.Lock()
    return WatchdogLock(_watchdog, name, threading.Lock())


def make_condition(lock: Any, name: str = "") -> threading.Condition:
    """A ``Condition`` over ``lock``, plain or instrumented."""
    return threading.Condition(lock)


def held_by_current_thread() -> List[str]:
    """Instrumented-lock names the calling thread currently holds."""
    return _watchdog.held_names()
