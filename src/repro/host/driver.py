"""Background compaction driver: the paper's Compaction Units as threads.

:class:`CompactionDriver` decouples :class:`repro.lsm.db.LsmDB`'s write
path from maintenance.  A full memtable is swapped out under the DB mutex
and a *flush token* is queued for the flush worker; merge compactions are
fed to ``num_units`` unit workers through a **bounded task queue** whose
capacity equals ``num_units`` — the software picture of the paper's
multiple Compaction Units, where at most ``num_units`` merge tasks can be
outstanding on the card and further demand simply waits (the version
set's scores keep re-kicking until no level is over budget).

The driver schedules; the DB decides.  It owns the threads and the two
queues and nothing else — which compaction to run, which files are busy,
when a writer may proceed and what a failure means are the DB's, behind
its mutex.  Everything the driver asks of its DB is four maintenance
entry points:

* ``flush_immutable()`` — dump the immutable memtable, if any;
* ``compact_once(level_hint)`` — pick (at execution time, so the pick
  sees the current version), merge and install one compaction;
* ``maintenance_failed(error)`` — park a worker's failure, so the write
  path surfaces it as :class:`~repro.errors.DBStateError` instead of an
  exception from some later ``put``;
* ``maintenance_pending()`` — what is still owed: the flush
  :meth:`close` must drain, the compaction a finished step re-kicks;

plus ``tracer`` (to re-activate a token's trace context), ``metrics``
and ``dbname``.  ``kick`` enqueues a compaction token iff the queue has
a free slot; a dropped kick is harmless because every finished step
re-kicks while the version needs compaction.  Device faults normally
never reach ``maintenance_failed`` — the scheduler's retry/fallback
absorbs them (see :mod:`repro.host.scheduler`).
"""

from __future__ import annotations

import queue
import threading
import time

from repro.obs.names import DriverMetrics


class CompactionDriver:
    """Flush worker + ``num_units`` compaction unit workers for one DB."""

    def __init__(self, db, num_units: int = 1):
        if num_units < 1:
            raise ValueError("num_units must be >= 1")
        self.db = db
        self.num_units = num_units
        #: Tokens are ``(level hint or None, trace context)``: the trace
        #: minted at the kicking write follows the task onto the worker.
        self._tasks: queue.Queue[tuple] = queue.Queue(maxsize=num_units)
        self._flush_q: queue.Queue[tuple] = queue.Queue(maxsize=1)
        self._stop = threading.Event()
        self._closed = False
        self._m = DriverMetrics(db.metrics,
                                inst=db.metrics.instance_label())
        workers = [("flush", self._flush_q, "flush",
                    lambda _hint: db.flush_immutable())] + [
            (f"unit{unit}", self._tasks, "compaction", db.compact_once)
            for unit in range(num_units)]
        self._threads = [
            threading.Thread(target=self._work, args=args, daemon=True,
                             name=f"{db.dbname}-{name}")
            for name, *args in workers]
        for thread in self._threads:
            thread.start()

    # ------------------------------------------------------------------
    # Submission (called with the DB mutex held, except from workers)
    # ------------------------------------------------------------------

    def kick(self, level: int | None = None, ctx=None) -> None:
        """Queue one compaction token; drops silently when the unit
        queue is full (a later completion re-kicks).  ``level=0`` asks
        for level-0 relief (the stalled write path).  ``ctx`` is a
        :class:`repro.obs.TraceContext` the worker re-activates, so the
        compaction's spans stitch under the kicking write's trace."""
        if not self._closed:
            self._offer(self._tasks, (level, ctx))
            self._m.queue_depth.set(self._tasks.qsize())

    def kick_flush(self, ctx=None) -> None:
        """Queue the flush token (idempotent: one immutable memtable)."""
        if not self._closed:
            self._offer(self._flush_q, (None, ctx))

    @staticmethod
    def _offer(target: queue.Queue, token: tuple) -> None:
        try:
            target.put_nowait(token)
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

    def _work(self, source: queue.Queue, kind: str, run) -> None:
        """One worker: take tokens from ``source`` until shut down (stop
        set and the queue drained), ``run(level hint)`` each under its
        trace context, and park — never lose — a failure."""
        db = self.db
        while True:
            try:
                hint, ctx = source.get(timeout=0.05)
            except queue.Empty:
                if self._stop.is_set():
                    return
                continue
            self._m.queue_depth.set(self._tasks.qsize())
            try:
                # A token kicked without a context (a waiter re-kicking)
                # may be the one that finds the work: trace it anyway.
                with db.tracer.activate(ctx or db.tracer.mint_context()):
                    if run(hint):
                        self._m.tasks[kind].inc()
                        if "compaction" in db.maintenance_pending():
                            # Still inside the activated context: the
                            # cascade stays on the trace that began it.
                            self.kick(ctx=db.tracer.current_context())
            except Exception as error:  # noqa: BLE001 — reported, not lost
                db.maintenance_failed(error)
            finally:
                source.task_done()

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
            pending = self.db.maintenance_pending()
            if "failed" in pending:
                break
            if "flush" in pending:
                # Not kick_flush: self._closed already suppresses it.
                self._offer(self._flush_q, (None, None))
            elif self.idle():
                break
            time.sleep(0.005)
        self._stop.set()
        for thread in self._threads:
            thread.join(timeout=5.0)

    def __repr__(self) -> str:
        return (f"CompactionDriver(units={self.num_units}, "
                f"queued={self._tasks.qsize()})")
