"""Background compaction driver: the paper's Compaction Units as threads.

:class:`CompactionDriver` decouples :class:`repro.lsm.db.LsmDB`'s write
path from maintenance.  A full memtable is swapped out under the DB mutex
and a *flush token* is queued for the flush worker; merge compactions are
fed to ``num_units`` unit workers through a **bounded task queue** whose
capacity equals ``num_units`` — the software picture of the paper's
multiple Compaction Units, where at most ``num_units`` merge tasks can be
outstanding on the card and further demand simply waits (the version
set's scores keep re-kicking until no level is over budget).

Scheduling protocol (all shared state is guarded by the DB mutex):

* ``kick`` enqueues a compaction token iff the queue has a free slot
  (``put_nowait``); a dropped kick is harmless because every completion
  re-kicks while ``needs_compaction()`` holds.
* A unit worker picks its :class:`CompactionSpec` **at execution time**
  under the mutex — never from the token — so it always sees the current
  version.  Files of in-flight compactions are tracked in a busy-set;
  any pick that touches a busy file is discarded (the pick is retried on
  the next kick), which keeps concurrent unit outputs disjoint.
* Completions install their version edit under the mutex (inside
  ``LsmDB.run_compaction``), notify throttled writers, and re-kick.

Failures never reach a writer as an exception from ``put``: a worker
records the first error via ``LsmDB._set_background_error_locked`` and the
write path surfaces it as :class:`~repro.errors.DBStateError`.  Device
faults normally never get that far — the scheduler's retry/fallback
absorbs them (see :mod:`repro.host.scheduler`).
"""

from __future__ import annotations

import queue
import threading
import time

from repro.lsm.options import L0_STOP_TRIGGER
from repro.lsm.version import CompactionSpec
from repro.obs.names import DriverMetrics

#: Level value for "no level preference" (the L0 stall path enqueues
#: ``0`` to force level-0 relief).  Queue tokens are ``(level,
#: trace_context)`` tuples so the trace minted at the kicking write
#: follows the task onto the worker thread.
_ANY_LEVEL = -1


class CompactionDriver:
    """Flush worker + ``num_units`` compaction unit workers for one DB."""

    def __init__(self, db, num_units: int = 1):
        if num_units < 1:
            raise ValueError("num_units must be >= 1")
        self.db = db
        self.num_units = num_units
        self._tasks: queue.Queue[tuple] = queue.Queue(maxsize=num_units)
        self._flush_q: queue.Queue[tuple] = queue.Queue(maxsize=1)
        self._stop = threading.Event()
        self._closed = False
        #: File numbers owned by in-flight compactions (DB mutex held).
        self._busy: set[int] = set()
        self._m = DriverMetrics(db.metrics,
                                inst=db.metrics.instance_label())
        self._threads = [
            threading.Thread(target=self._flush_loop,
                             name=f"{db.dbname}-flush", daemon=True)
        ] + [
            threading.Thread(target=self._unit_loop, args=(unit,),
                             name=f"{db.dbname}-unit{unit}", daemon=True)
            for unit in range(num_units)
        ]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Submission (called with the DB mutex held, except from workers)
    # ------------------------------------------------------------------

    def kick(self, level: int | None = None, ctx=None) -> None:
        """Queue one compaction token; drops silently when the unit
        queue is full (a later completion re-kicks).  ``ctx`` is a
        :class:`repro.obs.TraceContext` the worker re-activates, so the
        compaction's spans stitch under the kicking write's trace."""
        if self._stop.is_set() or self._closed:
            return
        try:
            self._tasks.put_nowait(
                (_ANY_LEVEL if level is None else level, ctx))
        except queue.Full:
            return
        self._m.queue_depth.set(self._tasks.qsize())

    def kick_flush(self, ctx=None) -> None:
        """Queue the flush token (idempotent: one immutable memtable)."""
        if self._stop.is_set() or self._closed:
            return
        try:
            self._flush_q.put_nowait((0, ctx))
        except queue.Full:
            pass

    def idle(self) -> bool:
        """True when no task is queued or executing (both queues track
        in-flight work via ``task_done``)."""
        return (self._tasks.unfinished_tasks == 0
                and self._flush_q.unfinished_tasks == 0)

    # ------------------------------------------------------------------
    # Workers
    # ------------------------------------------------------------------

    def _next(self, source: queue.Queue):
        """Block for the next token; ``None`` means shut down (stop set
        and the queue fully drained)."""
        while True:
            try:
                return source.get(timeout=0.05)
            except queue.Empty:
                if self._stop.is_set():
                    return None

    def _flush_loop(self) -> None:
        db = self.db
        while True:
            token = self._next(self._flush_q)
            if token is None:
                return
            _, ctx = token
            self._m.tasks["flush"].inc()
            try:
                with db.tracer.activate(ctx):
                    db._background_flush()
            except Exception as error:  # noqa: BLE001 — reported, not lost
                with db._mutex:
                    db._set_background_error_locked(error)
            finally:
                self._flush_q.task_done()
                with db._mutex:
                    db._cond.notify_all()

    def _unit_loop(self, unit: int) -> None:
        db = self.db
        while True:
            token = self._next(self._tasks)
            if token is None:
                return
            level, ctx = token
            self._m.queue_depth.set(self._tasks.qsize())
            try:
                with db.tracer.activate(ctx):
                    self._run_one(None if level == _ANY_LEVEL else level)
            except Exception as error:  # noqa: BLE001 — reported, not lost
                with db._mutex:
                    db._set_background_error_locked(error)
            finally:
                self._tasks.task_done()
                with db._mutex:
                    db._cond.notify_all()

    def _run_one(self, level_hint: int | None) -> None:
        """Pick under the mutex, merge outside it, install inside it."""
        db = self.db
        with db._mutex:
            if db._closed or db._bg_error is not None:
                return
            spec = self._pick_locked(level_hint)
            if spec is None:
                return
            for meta in spec.inputs + spec.parents:
                self._busy.add(meta.number)
        try:
            self._m.tasks["compaction"].inc()
            db.run_compaction(spec)
        finally:
            with db._mutex:
                for meta in spec.inputs + spec.parents:
                    self._busy.discard(meta.number)
        if db.versions.needs_compaction():
            # Still inside the worker's activated context: a cascading
            # compaction stays on the trace that triggered this one.
            self.kick(ctx=db.tracer.current_context())

    def _pick_locked(self, level_hint: int | None) -> CompactionSpec | None:
        """Choose a compaction for the current version (DB mutex held).

        An explicit level-0 hint (or L0 at the stop trigger) prefers a
        forced level-0 compaction so stalled writers unblock; otherwise
        the version set's score-based pick decides.  Picks overlapping
        the busy-set are discarded — the files are already being
        compacted and their completion re-kicks.
        """
        versions = self.db.versions
        l0_files = versions.current.num_files(0)
        if (level_hint == 0 or l0_files >= L0_STOP_TRIGGER) and l0_files:
            spec = versions.pick_compaction(level=0)
            if spec is not None and not self._overlaps_busy(spec):
                return spec
        if not versions.needs_compaction():
            return None
        spec = versions.pick_compaction()
        if spec is None or self._overlaps_busy(spec):
            return None
        return spec

    def _overlaps_busy(self, spec: CompactionSpec) -> bool:
        return any(meta.number in self._busy
                   for meta in spec.inputs + spec.parents)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def close(self, timeout: float = 30.0) -> None:
        """Drain pending work, then stop the workers.

        Must be called *without* the DB mutex (workers need it to
        finish).  Gives up draining on a background error or after
        ``timeout`` seconds; the workers are daemons either way.
        """
        if self._closed:
            return
        self._closed = True
        deadline = time.monotonic() + timeout
        while time.monotonic() < deadline:
            with self.db._mutex:
                bg_error = self.db._bg_error
                imm_pending = self.db._imm is not None
            if bg_error is not None:
                break
            if imm_pending:
                # Re-queue directly: self._closed suppresses kick_flush.
                try:
                    self._flush_q.put_nowait((0, None))
                except queue.Full:
                    pass
            elif self.idle():
                break
            time.sleep(0.005)
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=5.0)

    def __repr__(self) -> str:
        return (f"CompactionDriver(units={self.num_units}, "
                f"queued={self._tasks.qsize()}, busy={len(self._busy)})")
