"""The database façade: a single-process LevelDB-workalike.

Write path: WriteBatch → WAL record → memtable; at
``Options.write_buffer_size`` the memtable is dumped to a level-0 SSTable
(the paper's first compaction type).  Merge compactions (the second type —
the one FCAE offloads) run through a pluggable *compaction executor*, so
the same database can be driven by the CPU reference merge or by the FPGA
engine of :mod:`repro.host` without touching the storage format.

Maintenance is one path.  Before it builds its group the commit leader
makes room (:meth:`LsmDB._make_room_for_write_locked`, LevelDB's
``MakeRoomForWrite``): a full memtable is swapped out — rotate the WAL,
then swap, so a failed rotation changes nothing — and from then on a
*step* is due: a flush while there is an immutable memtable, else a
merge while the version needs it.  The thread that finds a step due runs
it (:meth:`LsmDB._maintain_locked`), in a loop, and releases the mutex
around each step — so readers, ``snapshot()``, stats and queueing writers
go on meanwhile.  A failure raises to that caller, and the step is due
again at the next call.  As in LevelDB, which never schedules a second
background compaction, a DB runs one step at a time: a caller that finds
one running waits on ``_cond`` for it, and so does :meth:`LsmDB.close`.
Timing questions (the paper's Fig 6 overlap, its Compaction Units) are
answered by the discrete-event simulator in :mod:`repro.sim`.

A writer's swap *seals* the memtable it swaps out, the codec helper
builds its table meanwhile, and the next swap, ``flush()``,
``compact_range()`` or ``close()`` *lands* it (one ``no_workers`` stall).

A blocked writer is one stall episode: one ``lsm_write_stall_seconds``
observation, one ``stall_start`` / ``stall_finish`` pair, one
``write.stall`` span.

Every public operation is safe to call from multiple threads:
state mutations hold ``_mutex``; ``get`` and ``scan`` take no lock — they
load the published :class:`_ReadView` (memtables, an immutable version and
its open tables) and a sequence, then search beside writers, flushes and
compactions (the skiplist is insert-only and the sequence filter hides
anything newer).  DESIGN.md "Read path" has the argument.

Every write commits through one path — the writer queue in
:meth:`LsmDB.write` — whatever ``Options.wal_sync`` says; the mode only
picks a row of :data:`_WAL_POLICY`.
"""

from __future__ import annotations

import time
from collections import deque
from contextlib import contextmanager
from itertools import islice
from typing import Callable, Iterator, NamedTuple, Optional

from repro.analysis import watchdog as lockwatch
from repro.compress.encoder import block_encoder
from repro.errors import CorruptionError, DBStateError, NotFoundError
from repro.lsm.batch import WriteBatch
from repro.lsm.cache import LRUCache
from repro.lsm.compaction import OutputTable, compact_tables
from repro.lsm.env import Env, MemEnv
from repro.lsm.filenames import (
    current_file_name,
    event_journal_file_name,
    log_file_name,
    manifest_file_name,
    parse_log_number,
    parse_manifest_number,
    table_file_name,
)
from repro.lsm.filter import BloomFilterPolicy
from repro.lsm.internal import (
    InternalKeyComparator,
    MARK_FIELDS_SIZE,
    MAX_SEQUENCE,
    TYPE_DELETION,
    TYPE_VALUE,
    encode_internal_key,
    extract_user_key,
    make_lookup_key,
    parse_internal_key,
)
from repro.lsm.iterator import merging_iterator
from repro.lsm.memtable import MemTable
from repro.lsm.options import (
    L0_STOP_TRIGGER,
    NUM_LEVELS,
    Options,
)
from repro.lsm.sstable import TableReader, build_request, build_table
from repro.lsm.version import (
    CompactionSpec,
    FileMetaData,
    Version,
    VersionEdit,
    VersionSet,
)
from repro.lsm.wal import LogReader, LogWriter

from repro import obs
from repro.obs import resolve_registry, resolve_tracer
from repro.obs.events import EventJournal, episode
from repro.obs.names import DbStats, LsmMetrics
from repro.obs.opobserver import OpObserver
from repro.obs.registry import MetricsRegistry
from repro.obs.report import render_db_report, render_level_stats

#: A compaction executor turns (spec, input tables, parent tables,
#: drop_deletions) into (output table images, route): the route names
#: what ran the merge (``"cpu"``, ``"fpga-sim"``, or ``"fallback"``
#: after a fault-forced CPU merge) and becomes the compaction's journal
#: ``backend``.  ``repro.host`` provides the FPGA-backed implementation.
CompactionExecutor = Callable[
    [CompactionSpec, list, list, bool], tuple[list[OutputTable], str]]

#: Byte cap of one spliced group commit (LevelDB's 1 MiB): the leader
#: stops collecting followers past this size.
_GROUP_COMMIT_MAX_BYTES = 1 << 20


#: All the commit path knows about an ``Options.wal_sync`` mode:
#: (followers may join the leader's group, by LevelDB's size rule;
#:  flush the record to the OS before the acknowledgement;
#:  fsync it too — "no", "due" once ``wal_sync_interval_seconds`` passed
#:  since the last fsync, or "yes").
_WAL_POLICY = {
    "none": (False, False, "no"),
    "flush": (False, True, "no"),
    "interval": (False, True, "due"),
    "always": (False, True, "yes"),
    "group": (True, True, "yes"),
}


class _Writer:
    """One queued commit.

    Writers park in :attr:`LsmDB._writers`; the front writer is the
    *leader* — it commits its group (itself alone unless the mode lets
    groups grow) as one WAL record with one persist step, and marks
    every member ``done`` (with the shared ``error`` if the commit
    failed)."""

    __slots__ = ("batch", "done", "error")

    def __init__(self, batch: WriteBatch):
        self.batch = batch
        self.done = False
        self.error: Optional[BaseException] = None


class _ReadView(NamedTuple):
    """Everything a read needs, frozen at one publish (RocksDB's
    SuperVersion).  ``tables`` maps exactly ``version``'s file numbers to
    their open readers (none once the DB is closed).  A view is never
    edited: state changes publish a new one, and a superseded table is
    freed when the last view or live scan naming it is — CPython's
    reference count is the unref."""

    mem: MemTable
    imm: Optional[MemTable]
    version: Version
    tables: dict[int, TableReader]


#: A writer's swap seals a memtable this large to land later.  A smaller
#: one (a build under 4 ms) lands at once, not a second one for gets; so
#: does a larger one, whose request would not fit the helper's pipe.
_SEAL_BYTES = range(32 << 10, 512 << 10)


class _Seal(NamedTuple):
    """A memtable sealed for its flush: table number; ``write_bytes`` and
    snapshot floor for its landing and the merges up to the next, fixed
    at a writer's swap (None: live) -- a later snapshot needs no older
    version of what has landed; the helper's build and its check."""

    number: int
    write_bytes: Optional[int] = None
    smallest_snapshot: Optional[int] = None
    request: object = None
    check: Optional[Callable] = None


class _EnvTextSink:
    """Adapts an :class:`repro.lsm.env.WritableFile` to the text-handle
    interface :class:`repro.obs.EventJournal` writes through."""

    __slots__ = ("_file",)

    def __init__(self, wfile):
        self._file = wfile

    def write(self, text: str) -> None:
        self._file.append(text.encode())

    def flush(self) -> None:
        self._file.flush()

    def close(self) -> None:
        self._file.close()


class LsmDB:
    """Open a directory (real or in-memory) as an LSM key-value store.

    Parameters
    ----------
    dbname:
        Directory for the store's files.
    options:
        Tuning knobs; defaults follow the paper's Table IV.
    env:
        Filesystem; defaults to an in-memory one.
    compaction_executor:
        Override how merge compactions execute (CPU reference by
        default): a :data:`CompactionExecutor`, called with
        ``(spec, input_tables, parent_tables, drop_deletions)`` and
        returning ``(outputs, route)``.
    metrics:
        A :class:`repro.obs.MetricsRegistry` to publish into; defaults to
        the process-wide registry installed by :func:`repro.obs.install`
        (benchmark CLIs), else a private one.
    tracer:
        A :class:`repro.obs.Tracer` for flush/compaction/stall spans;
        defaults to the installed tracer, else a no-op.  Each of those
        spans is also written to :attr:`journals`.
    """

    def __init__(self, dbname: str = "db", options: Optional[Options] = None,
                 env: Optional[Env] = None,
                 compaction_executor: Optional[CompactionExecutor] = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer=None):
        self.options = options or Options()
        self.env = env or MemEnv()
        self.dbname = dbname
        self.metrics = resolve_registry(metrics)
        self.tracer = resolve_tracer(tracer)
        self._m = LsmMetrics(self.metrics, db=dbname,
                             inst=self.metrics.instance_label())
        self._c = self._m.counters
        self.icmp = InternalKeyComparator(self.options.comparator)
        self.versions = VersionSet(self.options, self.icmp)
        self.block_cache = (
            LRUCache(self.options.block_cache_capacity,
                     hit_counter=self._c["block_cache_hits"],
                     miss_counter=self._c["block_cache_misses"],
                     usage_gauge=self._m.cache_usage)
            if self.options.block_cache_capacity > 0 else None)
        #: How merge compactions execute (the CPU reference merge
        #: unless the caller passed a scheduler).
        self.compaction_executor = compaction_executor or self._cpu_executor
        self._mem = MemTable(self.icmp)  # guarded_by: _mutex
        self._imm: Optional[MemTable] = None  # guarded_by: _mutex
        #: What ``get`` / ``scan`` read, without the mutex: republished
        #: wherever ``_mem``, ``_imm`` or ``versions.current`` changes.
        self._view = _ReadView(  # guarded_by: _mutex
            self._mem, None, self.versions.current, {})
        self._closed = False
        self._log: Optional[LogWriter] = None  # guarded_by: _mutex
        self._log_file = None  # guarded_by: _mutex
        self._log_number = 0  # guarded_by: _mutex
        #: True while a maintenance step runs (:meth:`_run_step_locked`).
        self._stepping = False  # guarded_by: _mutex
        #: A writer's seal of ``_imm`` until its flush; the last landed.
        self._sealed: Optional[_Seal] = None  # guarded_by: _mutex
        self._last_landed: Optional[_Seal] = None  # guarded_by: _mutex
        self.stats = DbStats(self._m)
        #: Never held across a maintenance step, whoever runs it, and
        #: never taken twice by one thread.  Instrumented by the lock
        #: watchdog when REPRO_LOCK_WATCHDOG=1.
        self._mutex = lockwatch.make_lock("lsm.mutex")
        #: Signalled when a commit group, a WAL append or a step ends.
        self._cond = lockwatch.make_condition(self._mutex)
        #: Writer queue: front is the leader, the rest wait on ``_cond``.
        self._writers: deque[_Writer] = deque()  # guarded_by: _mutex
        #: True while the leader runs WAL I/O outside the mutex; nothing
        #: swaps the memtable or rotates the log meanwhile (the leader's
        #: batch would land in the new memtable while its record sits in
        #: the segment being retired).
        self._wal_writing = False  # guarded_by: _mutex
        self._last_wal_sync = time.monotonic()
        #: Live snapshot sequences → refcount (satellite: snapshot
        #: registry; compaction consults ``min``).
        self._snapshots: dict[int, int] = {}  # guarded_by: _mutex

        self.env.create_dir(dbname)
        #: The per-directory flight recorder, with
        #: ``Options.event_journal``.
        self._own_journal: Optional[EventJournal] = None
        if self.options.event_journal:
            self._journal_sink = _EnvTextSink(self.env.new_appendable_file(
                event_journal_file_name(dbname)))
            self._own_journal = EventJournal(sink=self._journal_sink)
        #: Where this DB's episodes go: its own journal plus the one
        #: installed at open (``--events-out``).
        self.journals = obs.journals(self._own_journal)
        if lockwatch.enabled():
            # Route lock-cycle / long-hold reports into this DB's
            # journals (last opened DB wins; diagnostics, not state).
            lockwatch.get().attach_journal(self.journals)

        #: Per-op latency windows; None unless
        #: ``Options.latency_window_seconds`` turns them on, so the
        #: disabled hot path stays a single check.
        self._ops = OpObserver.build(self.options, self.metrics,
                                     self._m.labels)
        self._opened_monotonic = time.monotonic()

        self._recover()
        with self._mutex:
            self._new_log_locked()

    # ------------------------------------------------------------------
    # Recovery & manifest
    # ------------------------------------------------------------------

    def _recover(self) -> None:
        """Rebuild state from MANIFEST and WAL.  Runs from ``__init__``,
        before another thread can reach the DB: files are read with no
        mutex held, state changes take it."""
        current = current_file_name(self.dbname)
        if self.env.file_exists(current):
            manifest_name = self.env.read_file(current).decode().strip()
            self._replay_manifest(manifest_name)
        self._replay_logs()

    def _replay_manifest(self, manifest_name: str) -> None:
        data = self.env.read_file(manifest_name)
        snapshot: Optional[bytes] = None
        for record in LogReader(data):
            snapshot = record  # last full snapshot wins
        if snapshot is None:
            return
        self.versions.restore_snapshot(snapshot)
        opened = {meta.number: self._open_table(meta.number)
                  for files in self.versions.current.files for meta in files}
        with self._mutex:
            self._publish_view_locked(opened)

    def _replay_logs(self) -> None:
        log_numbers = sorted(
            number for name in self.env.list_dir(self.dbname)
            if (number := parse_log_number(name)) is not None)
        for number in log_numbers:
            data = self.env.read_file(log_file_name(self.dbname, number))
            for record in LogReader(data):
                sequence, batch = WriteBatch.deserialize(record)
                next_seq = batch.apply_to_memtable(self._mem, sequence)
                self.versions.last_sequence = max(
                    self.versions.last_sequence, next_seq - 1)
            self.versions.reuse_file_number(number)
            if (self._mem.approximate_memory_usage
                    >= self.options.write_buffer_size):
                self.flush()
        # Like LevelDB's RecoverLogFile: recovered writes go straight to
        # a level-0 table so retiring the old WAL cannot lose them.
        self.flush()
        for number in log_numbers:
            if self.env.file_exists(log_file_name(self.dbname, number)):
                self.env.delete_file(log_file_name(self.dbname, number))

    def _durable_close(self, dest) -> None:
        """Sync-then-close for files the store's correctness depends on
        (SSTables, MANIFEST, CURRENT): with any durability mode above
        ``none``, a power loss must only ever cost WAL tail, never an
        installed table or the version state pointing at it."""
        if self.options.wal_sync != "none":
            dest.sync()
        dest.close()

    def _write_manifest(self) -> None:
        snapshot = self.versions.encode_snapshot()
        manifest_number = self.versions.new_file_number()
        manifest_name = manifest_file_name(self.dbname, manifest_number)
        dest = self.env.new_writable_file(manifest_name)
        LogWriter(dest).add_record(snapshot)
        self._durable_close(dest)
        # Point CURRENT at it by renaming a durable temp over it: a failed
        # write leaves the old pointer, and the old MANIFEST, in place.
        current = current_file_name(self.dbname)
        temp_name = current + ".tmp"
        temp = self.env.new_writable_file(temp_name)
        temp.append(manifest_name.encode())
        self._durable_close(temp)
        self.env.rename_file(temp_name, current)
        # Retire older manifests.
        for name in self.env.list_dir(self.dbname):
            number = parse_manifest_number(name)
            if number is not None and number != manifest_number:
                self.env.delete_file(f"{self.dbname}/{name}")

    def _new_log_locked(self) -> None:
        # Whoever rotates the log does so between appends: the queue
        # leader making room before its own, or flush() once it has
        # waited the leader out.  The new segment exists before the old
        # one is closed: a failed creation costs a file number, no more.
        assert not self._wal_writing
        number = self.versions.new_file_number()
        log_file = self._create_log_file(number)
        if self._log_file is not None:
            self._log_file.close()
        self._log_number, self._log_file = number, log_file
        self._log = LogWriter(log_file)

    def _create_log_file(self, number: int):
        """A log rotation's one blocking step; as in LevelDB it runs
        under the mutex, and from here the lint reports it as LD004."""
        return self.env.new_writable_file(log_file_name(self.dbname, number))

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise DBStateError("database is closed")

    def _observed(self, op: str, call, *args):
        """``call(*args)`` as foreground operation ``op``, timed by the
        observer when there is one."""
        if self._ops is None:
            return call(*args)
        return self._ops.timed(op, call, *args)

    def put(self, key: bytes, value: bytes) -> None:
        batch = WriteBatch()
        batch.put(key, value)
        self._observed("put", self.write, batch)

    def delete(self, key: bytes) -> None:
        batch = WriteBatch()
        batch.delete(key)
        self.write(batch)

    def latency_window(self, op: str):
        """The sliding latency window of ``op`` (``get`` / ``put`` /
        ``write``), or None when ``Options.latency_window_seconds`` is 0."""
        return self._ops.window(op) if self._ops is not None else None

    def uptime_seconds(self) -> float:
        """Seconds since this handle opened (monotonic clock)."""
        return time.monotonic() - self._opened_monotonic

    def journal_segments(self) -> int:
        """Number of ``journal_open`` segments in this DB's own
        ``EVENTS.jsonl`` (0 when the flight recorder is off)."""
        name = event_journal_file_name(self.dbname)
        if not self.env.file_exists(name):
            return 0
        return self.env.read_file(name).count(b'"type": "journal_open"')

    def write(self, batch: WriteBatch) -> None:
        """Commit a batch: WAL append + persist per ``Options.wal_sync``,
        then memtable insert.  The write is acknowledged (this method
        returns) only after the WAL bytes have reached the durability
        point the configured mode promises."""
        self._check_open()
        if len(batch):
            self._observed("write", self._commit, batch)

    def _commit(self, batch: WriteBatch) -> None:
        """The one commit path (LevelDB's ``DBImpl::Write``).

        Every writer enqueues and waits; the queue front becomes the
        leader.  The leader makes room, collects its group (itself alone
        unless the mode lets groups grow), splices the batches into one
        WAL record, and releases the mutex for the append + persist — so
        readers never wait behind an fsync, and new writers line up into
        the *next* group meanwhile (that overlap is group commit's whole
        throughput win).  It then re-takes the mutex to apply the group
        to the memtable and wake it."""
        grow, flush, sync = _WAL_POLICY[self.options.wal_sync]
        writer = _Writer(batch)
        with self._mutex:
            self._writers.append(writer)
            while not writer.done and self._writers[0] is not writer:
                self._cond.wait()
            if writer.done:
                if writer.error is not None:
                    raise writer.error
                return
            # This thread leads the commit.
            try:
                self._make_room_for_write_locked()
            except BaseException as exc:
                self._finish_group_locked([writer], exc)
                raise
            group = self._build_group_locked() if grow else [writer]
            if len(group) == 1:
                spliced = batch
            else:
                spliced = WriteBatch()
                for member in group:
                    spliced.extend(member.batch)
            sequence = self.versions.last_sequence + 1
            record = spliced.serialize(sequence)
            log, log_file = self._log, self._log_file
            self._wal_writing = True
        error: Optional[BaseException] = None
        try:
            log.add_record(record)
            if flush:
                log.flush()
            if sync == "yes" or (
                    sync == "due"
                    and time.monotonic() - self._last_wal_sync
                    >= self.options.wal_sync_interval_seconds):
                self._sync_wal(log_file)
        except BaseException as exc:
            error = exc
        with self._mutex:
            self._wal_writing = False
            if error is None:
                self._c["writes"].inc(len(spliced))
                self._c["write_bytes"].inc(spliced.byte_size())
                next_seq = spliced.apply_to_memtable(self._mem, sequence)
                self.versions.last_sequence = next_seq - 1
                if grow:
                    self._m.group_commit_batches.observe(len(group))
            self._finish_group_locked(group, error)
        if error is not None:
            raise error

    def _sync_wal(self, log_file) -> None:
        """fsync one WAL segment, timed into ``lsm_wal_sync_seconds``.
        The commit path calls it with the mutex released."""
        started = time.perf_counter()
        log_file.sync()
        self._last_wal_sync = time.monotonic()
        self._m.wal_syncs.inc()
        self._m.wal_sync_seconds.observe(time.perf_counter() - started)

    def _build_group_locked(self) -> list[_Writer]:
        """Collect the leader's group from the queue front (mutex held).

        LevelDB's rule: cap the spliced record at
        :data:`_GROUP_COMMIT_MAX_BYTES`, and when the leader's own
        batch is small (≤128 KB) cap growth at +128 KB so a tiny write
        is never held hostage to a huge group."""
        front = self._writers[0]
        group = [front]
        total = front.batch.byte_size()
        max_size = _GROUP_COMMIT_MAX_BYTES
        if total <= 128 * 1024:
            max_size = min(max_size, total + 128 * 1024)
        for candidate in islice(self._writers, 1, None):
            total += candidate.batch.byte_size()
            if total > max_size:
                break
            group.append(candidate)
        return group

    def _finish_group_locked(self, group: list[_Writer],
                             error: Optional[BaseException]) -> None:
        """Pop ``group`` off the queue front, mark everyone done (with
        the shared error, if any) and wake waiters + log rotators."""
        for member in group:
            popped = self._writers.popleft()
            assert popped is member
            member.error = error
            member.done = True
        self._cond.notify_all()

    def _make_room_for_write_locked(self) -> None:
        """LevelDB's ``MakeRoomForWrite`` (mutex held): what every leader
        does before it builds its group.

        * the memtable has room → run whatever is due and go on;
        * memtable full and its predecessor sealed → land that, go round;
        * memtable full but the previous one still unflushed → stall;
        * memtable full and L0 at the stop trigger → stall until an L0
          compaction lands;
        * otherwise swap the memtable (sealing it) and go round: the fresh
          one has room.
        """
        while True:
            if (self._mem.approximate_memory_usage
                    < self.options.write_buffer_size):
                if self._maintenance_due_locked():
                    self._maintain_locked(
                        lambda: not self._maintenance_due_locked(),
                        reason="no_workers")
                return
            if self._sealed is not None:
                self._land_locked()
                continue
            if self._imm is not None:
                reason, done = "imm_full", lambda: self._imm is None
            elif self.versions.current.num_files(0) >= L0_STOP_TRIGGER:
                reason, done = "l0_stop", lambda: (
                    self.versions.current.num_files(0) < L0_STOP_TRIGGER)
            else:
                self._swap_memtable_locked()
                if self._imm.approximate_memory_usage in _SEAL_BYTES:
                    self._seal_locked()
                continue
            self._maintain_locked(done, reason)

    def _maintenance_due_locked(self) -> bool:
        return ((self._imm is not None and self._sealed is None)
                or self.versions.needs_compaction())

    def _land_locked(self) -> None:
        """Land the sealed memtable and the merges that makes due."""
        self._maintain_locked(
            lambda: self._imm is None and not self.versions.needs_compaction(),
            reason="no_workers", land=True)

    def _maintain_locked(self, done, reason: Optional[str] = None,
                         land: bool = False) -> None:
        """Run maintenance steps on this thread until ``done()`` holds
        (mutex held).

        A step is a flush while there is an immutable memtable, else a
        merge (:meth:`_run_step_locked`).  While another thread's step
        runs this waits on ``_cond`` for it; a step with nothing to do
        ends the loop; one that fails raises to the caller, due again
        next call.  A sealed memtable is landed only with ``land``.

        ``reason`` names the write stall of a writer blocked here until
        ``done()``: the whole episode is one observation.
        """
        ctx = self.tracer.current_context()
        if ctx is None:
            ctx = self.tracer.mint_context()
        with self.tracer.activate(ctx), self._stall_episode(reason):
            while not done() and not self._closed:
                if self._stepping:
                    self._cond.wait()
                elif not self._run_step_locked(self._imm is not None and (
                        land or self._sealed is None)):
                    break

    def _run_step_locked(self, flush: bool,
                         level_hint: Optional[int] = None) -> bool:
        """Run one maintenance step on this thread (mutex held, no step
        running): :meth:`_flush_step` or :meth:`_merge_step`, with the
        mutex released and ``_stepping`` set meanwhile; the mutex is
        taken back before this returns or raises."""
        self._stepping = True
        self._mutex.release()
        try:
            return self._flush_step() if flush else self._merge_step(
                level_hint)
        finally:
            self._mutex.acquire()
            self._stepping = False
            self._cond.notify_all()

    @contextmanager
    def _stall_episode(self, reason: Optional[str]) -> Iterator[None]:
        """Account the enclosed wait as one write stall (no ``reason``:
        not a writer's wait, nothing is recorded).

        The episode's trace context is carried by the stall span, the
        ``stall_*`` events, and the maintenance work done meanwhile."""
        if reason is None:
            yield
            return
        self._c["stalls"].inc()
        start = time.perf_counter()
        try:
            with episode(self.tracer, self.journals, "stall",
                         db=self.dbname, reason=reason):
                yield
        finally:
            self._m.stall_seconds.observe(time.perf_counter() - start)

    def _swap_memtable_locked(self) -> None:
        """Rotate the WAL, then make the active memtable immutable
        (mutex held, ``_imm`` empty, no WAL append in flight); its flush
        is due from here.  A failed rotation leaves everything as it
        was.  New writes land in the fresh log; the old segment is
        retired only after the immutable memtable reaches level 0."""
        if self._log is not None:
            # No active WAL during recovery replay: rotating there would
            # retire segments that have not been replayed yet.
            self._new_log_locked()
        self._imm = self._mem
        self._mem = MemTable(self.icmp)
        self._publish_view_locked()

    def _seal_locked(self) -> None:
        """Seal the memtable a writer just swapped out (mutex held), and
        send its entries to the codec helper when it can take them."""
        request = check = None
        if block_encoder.can_take(self._imm.approximate_memory_usage):
            parts, check = build_request(self._imm, self.options)
            request = block_encoder.submit(parts)
        self._sealed = _Seal(self.versions.new_file_number(),
                             int(self._c["write_bytes"].value),
                             self._smallest_live_snapshot_locked(),
                             request, check)

    def flush(self) -> None:
        """Force what the active memtable holds now to a level-0
        SSTable: returns once the table is installed (or raises what
        stopped it).  A sealed memtable lands first, with its merges;
        past that this starts none: the next write hands them over."""
        self._check_open()
        with self._mutex:
            mem = self._mem
            while True:
                if self._sealed is not None:
                    self._land_locked()
                self._maintain_locked(lambda: self._imm is None)
                self._check_open()  # a close() may have ended the wait
                if self._mem is not mem or not len(mem):
                    return  # swapped out, by this call or a leader
                if self._wal_writing:
                    # A leader is mid-append (see ``_wal_writing``):
                    # wait it out, then look again.
                    self._cond.wait()
                else:
                    self._swap_memtable_locked()

    def _retire_old_logs(self) -> None:
        """Delete WAL segments older than the active one (their contents
        are durable in level-0 tables now)."""
        for name in list(self.env.list_dir(self.dbname)):
            log_num = parse_log_number(name)
            if log_num is not None and log_num < self._log_number:
                self.env.delete_file(f"{self.dbname}/{name}")

    # ------------------------------------------------------------------
    # Compaction
    # ------------------------------------------------------------------

    def _open_table(self, number: int) -> TableReader:
        """Open table ``number`` from its durably written file."""
        return TableReader(self.env.new_random_access_file(
            table_file_name(self.dbname, number)), self.icmp, self.options,
            self.block_cache, number)

    def _publish_view_locked(
            self, opened: Optional[dict[int, TableReader]] = None) -> None:
        """Store the read view of the state as it is now (mutex held,
        state consistent): the memtables, the current version, and a
        reader per file of it — carried over from the view being
        replaced, or one of ``opened`` for a file this change adds."""
        known = {**self._view.tables, **(opened or {})}
        version = self.versions.current
        self._view = _ReadView(
            self._mem, self._imm, version,
            {meta.number: known[meta.number]
             for files in version.files for meta in files})

    def _cpu_executor(self, spec: CompactionSpec, input_tables: list,
                      parent_tables: list, drop_deletions: bool,
                      smallest_snapshot: Optional[int] = None
                      ) -> tuple[list[OutputTable], str]:
        """The CPU reference merge.  With ``smallest_snapshot`` it keeps,
        per user key, the newest version at or below every live snapshot
        (LevelDB's ``last_sequence_for_key`` rule)."""
        stats = compact_tables(spec.level, input_tables, parent_tables,
                               self.options, self.icmp, drop_deletions,
                               smallest_snapshot=smallest_snapshot)
        return stats.outputs, "cpu"

    def compact_once(self, level_hint: Optional[int] = None) -> bool:
        """Pick and execute one merge compaction, after any step already
        running; returns False when none is due.  ``level_hint=0``
        forces a level-0 pick, as L0 at the stop trigger does by
        itself."""
        with self._mutex:
            while self._stepping:
                self._cond.wait()
            self._check_open()  # after the wait: a close() may end it
            return self._run_step_locked(False, level_hint)

    def _pick_compaction_locked(self, level_hint: Optional[int]
                                ) -> Optional[CompactionSpec]:
        """Choose a compaction for the current version (mutex held).

        A level-0 hint (or L0 at the stop trigger) prefers a forced
        level-0 compaction so stalled writers unblock; otherwise the
        version set's score-based pick decides.
        """
        versions = self.versions
        l0_files = versions.current.num_files(0)
        if (level_hint == 0 or l0_files >= L0_STOP_TRIGGER) and l0_files:
            spec = versions.pick_compaction(level=0)
            if spec is not None:
                return spec
        return versions.pick_compaction()  # None unless a score is >= 1

    # -- Maintenance steps: what ``_run_step_locked`` runs ----------------

    def _merge_step(self, level_hint: Optional[int]) -> bool:
        """Pick a merge and run it; False when none is due.

        The merge itself runs outside the DB mutex (so readers and
        queueing writers go on meanwhile); the pick, reader capture
        before and version-edit install after hold it."""
        with self._mutex:
            with self.tracer.span("compaction.pick", db=self.dbname) as span:
                spec = self._pick_compaction_locked(level_hint)
                span.set(picked=spec is not None)
        if spec is None:
            return False
        with episode(self.tracer, self.journals, "compaction",
                     db=self.dbname, level=spec.level,
                     output_level=spec.output_level, reason=spec.reason,
                     input_bytes=spec.total_input_bytes) as ep:
            self._run_compaction(spec, ep)
        return True

    def _run_compaction(self, spec: CompactionSpec, ep) -> None:
        base_bytes = sum(m.file_size for m in spec.inputs)
        parent_bytes = sum(m.file_size for m in spec.parents)
        with self._mutex:
            tables = self._view.tables
            input_tables = [tables[m.number] for m in spec.inputs]
            parent_tables = [tables[m.number] for m in spec.parents]
            if spec.level == 0:
                # Newest-first so the merge meets newer versions first
                # (the internal-key order already guarantees it; this
                # keeps the tie-break rule aligned anyway).
                pairs = sorted(zip(spec.inputs, input_tables),
                               key=lambda p: p[0].number, reverse=True)
                input_tables = [t for _, t in pairs]
            drop = self.versions.is_bottommost_level_for(spec)
            floor = self._last_landed  # a writer's seal fixes the floor
            if floor is None or floor.write_bytes is None:
                floor = _Seal(0, None, self._smallest_live_snapshot_locked())
            smallest_snapshot = floor.smallest_snapshot

        if smallest_snapshot is not None:
            # Live snapshots: route to the snapshot-preserving CPU merge
            # (the FPGA engine keeps only the newest version per key, so
            # offloading here could drop versions a snapshot still needs).
            self._m.snapshot_merges.inc()
            outputs, backend = self._cpu_executor(
                spec, input_tables, parent_tables, drop, smallest_snapshot)
            ep.set(snapshot_merge=True,
                   smallest_snapshot=smallest_snapshot)
        else:
            outputs, backend = self.compaction_executor(
                spec, input_tables, parent_tables, drop)

        # Write, durably close and open the outputs *before* taking the
        # mutex: fsyncing N tables under it would stall every writer (the
        # bug class lint rules LD003/LD004 catch).  Nothing references
        # the new numbers until the edit below installs them.
        new_metas: list[FileMetaData] = []
        opened: dict[int, TableReader] = {}
        written: list[str] = []
        try:
            for output in outputs:
                with self._mutex:
                    number = self.versions.new_file_number()
                name = table_file_name(self.dbname, number)
                written.append(name)
                dest = self.env.new_writable_file(name)
                dest.append(output.data)
                self._durable_close(dest)
                opened[number] = self._open_table(number)
                new_metas.append(FileMetaData(
                    number, len(output.data),
                    output.smallest, output.largest))
        except BaseException:
            # Uninstalled outputs are garbage: remove what was written,
            # the table in progress included, so a failed compaction
            # leaves no orphan tables behind.
            for name in written:
                if self.env.file_exists(name):
                    self.env.delete_file(name)
            raise

        with self._mutex:
            output_bytes = sum(len(o.data) for o in outputs)
            self._c["compactions"].inc()
            self._c["compaction_input_bytes"].inc(spec.total_input_bytes)
            self._c["compaction_output_bytes"].inc(output_bytes)
            write_bytes = (floor.write_bytes
                           or int(self._c["write_bytes"].value))
            self._m.add_level_write(spec.output_level, output_bytes,
                                    write_bytes)
            self._m.add_level_read(spec.level, base_bytes)
            if parent_bytes:
                self._m.add_level_read(spec.output_level, parent_bytes)
            ep.set(backend=backend, output_bytes=output_bytes,
                   output_tables=len(outputs), input_bytes_base=base_bytes,
                   input_bytes_parent=parent_bytes, write_bytes=write_bytes)
            with self.tracer.span("compaction.install"):
                edit = VersionEdit()
                for meta in spec.inputs:
                    edit.delete_file(spec.level, meta.number)
                for meta in spec.parents:
                    edit.delete_file(spec.output_level, meta.number)
                for meta in new_metas:
                    edit.add_file(spec.output_level, meta)
                self.versions.apply(edit)
                self._publish_view_locked(opened)
                # Safe while views and scans still read the inputs: a
                # TableReader's open handle reads on after the unlink.
                for old in spec.inputs + spec.parents:
                    self.env.delete_file(
                        table_file_name(self.dbname, old.number))
                self._write_manifest()
            self._m.refresh_levels(self.versions.current)

    def _flush_step(self) -> bool:
        """Seal (unless a writer's swap did) and land the immutable
        memtable as a level-0 table; False when there is none.

        The table is built (or the helper's checked), written and opened
        with no mutex taken — the memtable is immutable — so writes go on
        into the fresh memtable; only taking the seal and the install
        lock.  On failure the partial file is removed and ``_imm`` stays,
        unsealed: readable, its WAL segment retained, its flush still due.
        """
        with self._mutex:
            imm = self._imm
            if imm is None:
                return False
            seal, self._sealed = self._sealed, None
            if seal is None:
                seal = _Seal(self.versions.new_file_number())
        number = seal.number
        name = table_file_name(self.dbname, number)

        def build_here():
            # A non-empty memtable, no size cut: exactly one table.
            image, builder = build_table(imm, self.options, self.icmp)
            return (image, builder.stats, builder.smallest_key,
                    builder.largest_key,
                    TableReader(image, self.icmp, self.options))

        with episode(self.tracer, self.journals, "flush", db=self.dbname,
                     table=number) as ep:
            try:
                image, stats, smallest, largest, reader = (
                    block_encoder.finish(seal.request, seal.check,
                                         build_here))
                dest = self.env.new_writable_file(name)
                dest.append(image)
                self._durable_close(dest)
                # The reader that opened the image reads the file now.
                reader.rebind(self.env.new_random_access_file(name),
                              self.block_cache, number)
            except BaseException:
                if self.env.file_exists(name):
                    self.env.delete_file(name)
                raise
            edit = VersionEdit()
            edit.add_file(0, FileMetaData(number, stats.file_bytes,
                                          smallest, largest))
            with self._mutex:
                self.versions.apply(edit)
                self._c["flushes"].inc()
                self._c["flush_bytes"].inc(stats.file_bytes)
                write_bytes = (seal.write_bytes
                               or int(self._c["write_bytes"].value))
                self._m.add_level_write(0, stats.file_bytes, write_bytes)
                ep.set(bytes=stats.file_bytes, write_bytes=write_bytes)
                # Its build is done: keep no hold on the image it sent.
                self._last_landed = seal._replace(request=None, check=None)
                self._imm = None
                self._publish_view_locked({number: reader})
                self._write_manifest()
                self._retire_old_logs()
                self._m.refresh_levels(self.versions.current)
        return True

    def compact_range(self) -> None:
        """Flush, then compact until no level is over budget and no step
        is running."""
        self.flush()
        with self._mutex:
            self._maintain_locked(
                lambda: not (self._maintenance_due_locked()
                             or self._stepping))

    # ------------------------------------------------------------------
    # Read path
    # ------------------------------------------------------------------

    def snapshot(self) -> "Snapshot":
        """Capture a read view at the current sequence number.

        The snapshot is registered with the database: as long as it is
        live, compaction keeps — for every user key — the newest version
        at or below its sequence, so reads through the snapshot stay
        correct across flushes and compactions (LevelDB's
        ``last_sequence_for_key`` rule).  Release it with
        :meth:`Snapshot.close` (or use it as a context manager) so
        compaction can reclaim the old versions again.
        """
        self._check_open()
        with self._mutex:
            sequence = self.versions.last_sequence
            self._snapshots[sequence] = self._snapshots.get(sequence, 0) + 1
            self._m.snapshots_live.set(sum(self._snapshots.values()))
            return Snapshot(self, sequence)

    def release_snapshot(self, snapshot: "Snapshot") -> None:
        """Unregister ``snapshot``; idempotent."""
        snapshot._check_owner(self)
        with self._mutex:
            if snapshot._released:
                return
            snapshot._released = True
            count = self._snapshots.get(snapshot.sequence, 0)
            if count <= 1:
                self._snapshots.pop(snapshot.sequence, None)
            else:
                self._snapshots[snapshot.sequence] = count - 1
            self._m.snapshots_live.set(sum(self._snapshots.values()))

    def _smallest_live_snapshot_locked(self) -> Optional[int]:
        """Sequence of the oldest live snapshot (mutex held), or None."""
        return min(self._snapshots) if self._snapshots else None

    def get(self, key: bytes, snapshot: "Snapshot | None" = None) -> bytes:
        """Return the value of ``key`` (newest, or as of ``snapshot``).

        Raises :class:`NotFoundError` when absent or deleted.  Takes no
        lock: the lookup runs over the published read view (see
        :meth:`_get`), beside writers, flushes and compactions.
        """
        self._check_open()
        if snapshot is not None:
            snapshot._check_owner(self)
        return self._observed("get", self._get, key, snapshot)

    def _get(self, key: bytes, snapshot: "Snapshot | None") -> bytes:
        # Two attribute loads, no mutex — the view first, then the
        # sequence: one read before the view could predate a merge the
        # view already contains (DESIGN.md "Read path").
        view = self._view
        sequence = (snapshot.sequence if snapshot is not None
                    else self.versions.last_sequence)
        self._c["reads"].inc()
        lookup = make_lookup_key(key, sequence)
        value = view.mem.get(key, sequence, lookup)
        if value is None and view.imm is not None:
            value = view.imm.get(key, sequence, lookup)
        if value is None:
            key_hash = BloomFilterPolicy.hash_key(key)
            tables = view.tables
            for _level, meta in view.version.files_for_key(key):
                reader = tables[meta.number]
                if not reader.key_may_match(key, key_hash):
                    continue
                entry = reader.get(lookup)
                if (entry is not None
                        and entry[0][:-MARK_FIELDS_SIZE] == key):
                    # The mark fields' low byte is the value type.
                    value_type = entry[0][-MARK_FIELDS_SIZE]
                    if value_type == TYPE_VALUE:
                        value = entry[1]
                        break
                    if value_type == TYPE_DELETION:
                        raise NotFoundError(key)
                    raise CorruptionError(
                        f"unknown value type byte {value_type:#x}")
            else:
                raise NotFoundError(key)
        self._c["read_hits"].inc()
        return value

    def scan(self, start: Optional[bytes] = None,
             end: Optional[bytes] = None,
             snapshot: "Snapshot | None" = None
             ) -> Iterator[tuple[bytes, bytes]]:
        """Range scan over live user keys in ``[start, end)``.

        With ``snapshot``, entries newer than the snapshot's sequence are
        invisible.  Like :meth:`get` it takes no lock; the generator
        keeps its read view — memtables and tables — alive until it is
        exhausted or dropped, whatever flushes and compactions do
        meanwhile.
        """
        self._check_open()
        if snapshot is not None:
            snapshot._check_owner(self)
        lookup = (encode_internal_key(start, MAX_SEQUENCE, 0x1)
                  if start is not None else None)
        view = self._view  # before the sequence: see _get
        visible_sequence = (snapshot.sequence if snapshot is not None
                            else self.versions.last_sequence)
        # Memtables iterate lazily beside writers: the skiplist is
        # insert-only and links a node only after its own pointers are
        # set, and the sequence filter below hides anything committed
        # after this point.
        sources = [mem.iter_from(lookup)
                   for mem in (view.mem, view.imm) if mem is not None]
        for meta in view.version.files_in_range(start, end):
            reader = view.tables[meta.number]
            sources.append(reader.iter_from(lookup) if lookup is not None
                           else iter(reader))
        last_user: Optional[bytes] = None
        for internal_key, value in merging_iterator(sources,
                                                    self.icmp.sort_key):
            user_key = extract_user_key(internal_key)
            if end is not None and user_key >= end:
                return
            parsed = parse_internal_key(internal_key)
            if parsed.sequence > visible_sequence:
                continue  # newer than the snapshot: invisible
            if user_key == last_user:
                continue
            last_user = user_key
            if parsed.is_deletion:
                continue
            yield user_key, value

    # ------------------------------------------------------------------
    # Introspection & lifecycle
    # ------------------------------------------------------------------

    def level_file_counts(self) -> list[int]:
        with self._mutex:
            return [self.versions.current.num_files(level)
                    for level in range(NUM_LEVELS)]

    def level_sizes(self) -> list[int]:
        with self._mutex:
            return [self.versions.current.level_bytes(level)
                    for level in range(NUM_LEVELS)]

    def level_amplification(self) -> list[dict]:
        """Per-level amplification accounting, one dict per level with
        ``level``, ``files``, ``bytes``, ``write_bytes``, ``read_bytes``,
        ``write_amp``, ``space_amp`` and ``read_amp`` keys (defined at
        :meth:`repro.obs.names.LsmMetrics.level_amplification`)."""
        with self._mutex:
            return self._m.level_amplification(self.versions.current)

    def property(self, name: str) -> str:
        """LevelDB-style ``GetProperty``.

        Supported names: ``repro.stats`` (the human-readable report),
        ``repro.levelstats`` (per-level amplification table),
        ``repro.num-files-at-level<N>``, and
        ``repro.approximate-memory-usage`` (live memtable bytes).
        Raises :class:`NotFoundError` for unknown properties.
        """
        # The reports take the mutex per read and read the event journal
        # from the env: rendered with the mutex free.
        if name == "repro.stats":
            return render_db_report(self)
        if name == "repro.levelstats":
            return render_level_stats(self)
        prefix = "repro.num-files-at-level"
        if name.startswith(prefix):
            try:
                level = int(name[len(prefix):])
            except ValueError:
                raise NotFoundError(name) from None
            if not 0 <= level < NUM_LEVELS:
                raise NotFoundError(name)
            with self._mutex:
                return str(self.versions.current.num_files(level))
        if name == "repro.approximate-memory-usage":
            with self._mutex:
                usage = self._mem.approximate_memory_usage
                if self._imm is not None:
                    usage += self._imm.approximate_memory_usage
            return str(usage)
        raise NotFoundError(name)

    def approximate_size(self, start: bytes, end: bytes) -> int:
        """Approximate on-disk bytes occupied by user keys in
        ``[start, end)`` (see :meth:`Version.approximate_size`)."""
        self._check_open()
        with self._mutex:
            version = self.versions.current
        return version.approximate_size(start, end)

    def close(self) -> None:
        """Drain writes and running steps, land a sealed memtable (a
        failure leaves it to its WAL segment, for the next open), close,
        and let the table readers and cached blocks go."""
        if self._closed:
            return
        with self._mutex:
            if self._closed:
                return
            # Let queued group commits drain (every writer in the queue
            # has been promised an acknowledgement or an error) and a
            # step running on a caller's thread install or clean up.
            while self._writers or self._wal_writing or self._stepping:
                self._cond.wait()
            if self._sealed is not None:
                try:
                    self._land_locked()
                except Exception:  # noqa: BLE001 - the WAL still holds it
                    pass
            if self._log_file is not None:
                self._log_file.close()
            # A closed handle answers property() and level_amplification()
            # from version metadata: its tables and cached blocks can go.
            self._view = self._view._replace(tables={})
            if self.block_cache is not None:
                self.block_cache.clear()
            lockwatch.get().detach_journal(self.journals)
            if self._own_journal is not None:
                self._own_journal.close()
                self._journal_sink.close()
            self._closed = True
            self._cond.notify_all()

    def __enter__(self) -> "LsmDB":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()


class Snapshot:
    """A consistent read view of one :class:`LsmDB`.

    Carries the sequence number observed at creation; pass it to
    :meth:`LsmDB.get` / :meth:`LsmDB.scan` to read as of that point.
    While live it pins its versions against compaction; release it with
    :meth:`close` or by using it as a context manager.
    """

    __slots__ = ("_db", "sequence", "_released")

    def __init__(self, db: LsmDB, sequence: int):
        self._db = db
        self.sequence = sequence
        self._released = False

    def close(self) -> None:
        """Release the snapshot's pin on old versions; idempotent."""
        self._db.release_snapshot(self)

    @property
    def released(self) -> bool:
        return self._released

    def _check_owner(self, db: LsmDB) -> None:
        if db is not self._db:
            raise DBStateError("snapshot belongs to a different database")

    def __enter__(self) -> "Snapshot":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (f"Snapshot(sequence={self.sequence}, "
                f"released={self._released})")
