"""The database façade: a single-process LevelDB-workalike.

Write path: WriteBatch → WAL record → memtable; at
``Options.write_buffer_size`` the memtable is dumped to a level-0 SSTable
(the paper's first compaction type).  Merge compactions (the second type —
the one FCAE offloads) run through a pluggable *compaction executor*, so
the same database can be driven by the CPU reference merge or by the FPGA
engine of :mod:`repro.host` without touching the storage format.

Concurrency model: two modes.

* **Synchronous** (default): deterministic, effectively single-threaded —
  maintenance runs inline inside ``write`` (``auto_compact=True``), as the
  seed reproduction always did.  Timing questions are answered by the
  discrete-event simulator in :mod:`repro.sim`.
* **Background** (``background_compaction=True``): the paper's Fig 6
  workflow on real threads.  A full memtable is swapped out under the DB
  mutex and handed to :class:`repro.host.driver.CompactionDriver`; merge
  compactions run on ``num_units`` worker threads fed by a bounded task
  queue, and completions install version edits back under the mutex.  The
  write path then throttles for real: LevelDB's L0 slowdown (per-write
  sleep) and stop (block until an L0 compaction lands) triggers, with
  stall durations published to the ``lsm_write_stall_seconds`` histogram.

Either way every public operation is safe to call from multiple threads:
state mutations hold ``_mutex``, scans capture an immutable version (plus
materialized memtable contents when a driver is live) before iterating.
"""

from __future__ import annotations

import time
from collections import deque
from itertools import islice
from typing import Callable, Iterator, Optional

from repro.analysis import watchdog as lockwatch
from repro.errors import DBStateError, NotFoundError
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
from repro.lsm.internal import (
    InternalKeyComparator,
    MAX_SEQUENCE,
    TYPE_DELETION,
    TYPE_VALUE,
    encode_internal_key,
    extract_user_key,
    parse_internal_key,
)
from repro.lsm.iterator import merging_iterator
from repro.lsm.memtable import MemTable
from repro.lsm.options import (
    L0_SLOWDOWN_TRIGGER,
    L0_STOP_TRIGGER,
    NUM_LEVELS,
    Options,
)
from repro.lsm.sstable import TableBuilder, TableReader
from repro.lsm.version import (
    CompactionSpec,
    FileMetaData,
    VersionEdit,
    VersionSet,
)
from repro.lsm.wal import LogReader, LogWriter
from repro.util.coding import (
    decode_fixed32,
    decode_fixed64,
    encode_fixed32,
    encode_fixed64,
    get_length_prefixed_slice,
    put_length_prefixed_slice,
)

from repro.obs import (
    current_events,
    merge_counts,
    resolve_events,
    resolve_registry,
    resolve_tracer,
)
from repro.obs.events import EventJournal, NullJournal, TeeJournal
from repro.obs.names import LsmMetrics
from repro.obs.registry import MetricsRegistry
from repro.obs.report import render_db_report, render_level_stats
from repro.obs.slo import build_engine
from repro.obs.window import WindowedHistogram, publish_window

#: A compaction executor turns (spec, input tables, parent tables,
#: drop_deletions) into output table images.  ``repro.host`` provides the
#: FPGA-backed implementation.
CompactionExecutor = Callable[
    [CompactionSpec, list, list, bool], list[OutputTable]]


def _trace_fields(span) -> dict:
    """The ``trace`` field of journal events emitted under ``span``
    (empty when the span carries no trace id)."""
    trace_id = getattr(span, "trace_id", None)
    return {} if trace_id is None else {"trace": str(trace_id)}


class DbStats:
    """Operational counters, in the spirit of LevelDB's
    ``GetProperty("leveldb.stats")``.

    A read-only view over the database's metrics registry (the registry
    is the single source of truth; this class keeps the historical
    attribute names).  Counter fields resolve via ``__getattr__`` from
    :data:`FIELDS`, so exposition code can iterate :meth:`as_dict`
    instead of hand-copying field lists.
    """

    #: Counter fields, in reporting order.
    FIELDS = ("writes", "write_bytes", "reads", "read_hits", "flushes",
              "flush_bytes", "compactions", "compaction_input_bytes",
              "compaction_output_bytes", "stalls", "block_cache_hits",
              "block_cache_misses")

    def __init__(self, metrics: LsmMetrics):
        self._metrics = metrics

    def __getattr__(self, name: str):
        if name in DbStats.FIELDS:
            return int(self._metrics.value(name))
        raise AttributeError(name)

    @property
    def write_amplification(self) -> float:
        """(flushed + compacted) bytes per user byte written."""
        if self.write_bytes == 0:
            return 0.0
        return ((self.flush_bytes + self.compaction_output_bytes)
                / self.write_bytes)

    @property
    def block_cache_hit_ratio(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        total = self.block_cache_hits + self.block_cache_misses
        return self.block_cache_hits / total if total else 0.0

    def as_dict(self) -> dict[str, int]:
        """Counter fields as a plain dict, in :data:`FIELDS` order."""
        return {field: getattr(self, field) for field in DbStats.FIELDS}

    @staticmethod
    def merge(*stats: "DbStats | dict") -> dict[str, int]:
        """Field-wise sum across databases (shard aggregation)."""
        return merge_counts(
            s if isinstance(s, dict) else s.as_dict() for s in stats)

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"DbStats({inner})"


class _Writer:
    """One queued commit in the group-commit protocol.

    Writers park in :attr:`LsmDB._writers`; the front writer is the
    *leader* — it splices the queued batches into one WAL record, pays a
    single flush+fsync for the group, and marks every member ``done``
    (with the shared ``error`` if the commit failed)."""

    __slots__ = ("batch", "done", "error")

    def __init__(self, batch: WriteBatch):
        self.batch = batch
        self.done = False
        self.error: Optional[BaseException] = None


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
        Override how merge compactions execute (CPU reference by default).
    auto_compact:
        Run flushes/compactions inline when thresholds trip.  Disable for
        manual control in tests and offload demos.
    metrics:
        A :class:`repro.obs.MetricsRegistry` to publish into; defaults to
        the process-wide registry installed by :func:`repro.obs.install`
        (benchmark CLIs), else a private one.
    tracer:
        A :class:`repro.obs.Tracer` for flush/compaction spans; defaults
        to the installed tracer, else a no-op.
    events:
        A :class:`repro.obs.EventJournal` for the flight recorder's
        flush/compaction/stall events; defaults to a DB-directory
        journal when ``Options.event_journal`` is set, else the
        installed journal, else a no-op.
    background_compaction:
        Run flushes and merge compactions on background threads via a
        :class:`repro.host.driver.CompactionDriver`; the write path then
        throttles (L0 slowdown/stop) instead of maintaining inline.
        Mutually exclusive with inline ``auto_compact`` maintenance.
    num_units:
        Number of concurrent compaction workers (the paper's Compaction
        Units) and the bound of the driver's task queue.  Only meaningful
        with ``background_compaction=True``.
    """

    def __init__(self, dbname: str = "db", options: Optional[Options] = None,
                 env: Optional[Env] = None,
                 compaction_executor: Optional[CompactionExecutor] = None,
                 auto_compact: bool = True,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer=None,
                 events=None,
                 background_compaction: bool = False,
                 num_units: int = 1):
        self.options = options or Options()
        self.env = env or MemEnv()
        self.dbname = dbname
        self.metrics = resolve_registry(metrics)
        self.tracer = resolve_tracer(tracer)
        self._m = LsmMetrics(self.metrics, db=dbname,
                             inst=self.metrics.instance_label())
        self._windows: Optional[dict[str, WindowedHistogram]] = None
        if self.options.latency_window_seconds > 0:
            self._windows = {
                op: WindowedHistogram(
                    window_seconds=self.options.latency_window_seconds)
                for op in ("get", "put", "write")}
            for op, window in self._windows.items():
                publish_window(
                    self.metrics, "lsm_op_latency_window_seconds",
                    "Sliding-window operation latency quantiles.",
                    window, op=op, **self._m.labels)
        self._c = self._m.counters
        self.icmp = InternalKeyComparator(self.options.comparator)
        self.versions = VersionSet(self.options, self.icmp)
        self.block_cache = (
            LRUCache(self.options.block_cache_capacity,
                     hit_counter=self._c["block_cache_hits"],
                     miss_counter=self._c["block_cache_misses"],
                     usage_gauge=self._m.cache_usage)
            if self.options.block_cache_capacity > 0 else None)
        self._executor = compaction_executor or self._cpu_executor
        self.auto_compact = auto_compact
        self._mem = MemTable(self.icmp)
        self._imm: Optional[MemTable] = None
        self._readers: dict[int, TableReader] = {}
        self._closed = False
        self._log: Optional[LogWriter] = None
        self._log_file = None
        self._log_number = 0
        self.stall_events = 0
        self.stats = DbStats(self._m)
        #: Re-entrant so the synchronous mode's inline maintenance can
        #: nest public calls; the background workers never re-enter.
        #: Instrumented by the lock watchdog when REPRO_LOCK_WATCHDOG=1.
        self._mutex = lockwatch.make_rlock("lsm.mutex")
        self._cond = lockwatch.make_condition(self._mutex)
        #: Group-commit writer queue (``wal_sync="group"``): front is
        #: the leader, the rest wait on ``_writers_cond``.
        self._writers: deque[_Writer] = deque()  # guarded_by: _mutex
        self._writers_cond = lockwatch.make_condition(self._mutex)
        #: True while the leader runs WAL I/O outside the mutex; log
        #: rotation must wait for it (the segment being synced would
        #: otherwise be closed mid-fsync).
        self._wal_writing = False  # guarded_by: _mutex
        self._last_wal_sync = time.monotonic()
        #: Live snapshot sequences → refcount (satellite: snapshot
        #: registry; compaction consults ``min``).
        self._snapshots: dict[int, int] = {}  # guarded_by: _mutex
        #: First unrecoverable background failure; surfaced to writers.
        self._bg_error: Optional[BaseException] = None  # guarded_by: _mutex
        #: Per-write sleep applied once when L0 crosses the slowdown
        #: trigger (LevelDB uses 1ms; kept short for tests).
        self.slowdown_sleep_seconds = 0.001

        self.env.create_dir(dbname)
        #: The journal owned by this DB (per-directory flight recorder);
        #: None when events come from the caller or the installed sinks.
        self._own_journal: Optional[EventJournal] = None
        if events is None and self.options.event_journal:
            self._own_journal = EventJournal(
                sink=_EnvTextSink(self.env.new_appendable_file(
                    event_journal_file_name(dbname))))
            installed = current_events()
            # The per-directory journal records regardless; an installed
            # sink (--events-out) gets the same stream teed in.
            if isinstance(installed, NullJournal):
                events = self._own_journal
            else:
                events = TeeJournal(self._own_journal, installed)
        self.events = resolve_events(events)
        if lockwatch.enabled():
            # Route lock-cycle / long-hold reports into this DB's
            # journal (last opened DB wins; diagnostics, not state).
            lockwatch.get().attach_journal(self.events)

        #: SLO engine (None unless Options.slo_specs is non-empty);
        #: scores get/put/write latencies per tenant and emits
        #: slo_alert / exemplar events into this DB's journal.
        self._slo = build_engine(self.options.slo_specs,
                                 registry=self.metrics,
                                 events=self.events)
        if self._slo is not None and self._windows is not None:
            for op, window in self._windows.items():
                window.exemplar_threshold = self._slo.threshold_for(op)
        #: One flag gating every per-op observation (windows, tenants,
        #: SLO scoring) so the disabled hot path stays a single check.
        self._op_obs = (self._windows is not None
                        or self._slo is not None)
        #: (op, tenant) -> lazily-published per-tenant window / counter.
        self._tenant_windows: dict[tuple[str, str],
                                   WindowedHistogram] = {}
        self._tenant_op_counters: dict[tuple[str, str], object] = {}
        #: Trace id of the last write-stall episode: when a foreground
        #: op has no active span of its own, its tail exemplar is
        #: attributed to the stall that delayed it.
        self._last_stall_trace = None
        self._opened_monotonic = time.monotonic()

        with self._mutex:
            self._recover_locked()
            self._new_log_locked()

        self._driver = None
        if background_compaction:
            from repro.host.driver import CompactionDriver
            self._driver = CompactionDriver(self, num_units=num_units)

    # ------------------------------------------------------------------
    # Recovery & manifest
    # ------------------------------------------------------------------

    def _recover_locked(self) -> None:
        current = current_file_name(self.dbname)
        if self.env.file_exists(current):
            manifest_name = self.env.read_file(current).decode().strip()
            self._replay_manifest_locked(manifest_name)
        self._replay_logs_locked()

    def _replay_manifest_locked(self, manifest_name: str) -> None:
        data = self.env.read_file(manifest_name)
        snapshot: Optional[bytes] = None
        for record in LogReader(data):
            snapshot = record  # last full snapshot wins
        if snapshot is None:
            return
        last_sequence = decode_fixed64(snapshot, 0)
        next_file = decode_fixed64(snapshot, 8)
        pos = 16
        edit = VersionEdit()
        num_levels = decode_fixed32(snapshot, pos)
        pos += 4
        for level in range(num_levels):
            count = decode_fixed32(snapshot, pos)
            pos += 4
            for _ in range(count):
                number = decode_fixed64(snapshot, pos)
                size = decode_fixed64(snapshot, pos + 8)
                pos += 16
                smallest, pos = get_length_prefixed_slice(snapshot, pos)
                largest, pos = get_length_prefixed_slice(snapshot, pos)
                edit.add_file(level, FileMetaData(number, size, smallest, largest))
        self.versions.apply(edit)
        self.versions.last_sequence = last_sequence
        self.versions.reuse_file_number(next_file - 1)
        for level in range(NUM_LEVELS):
            for meta in self.versions.current.files[level]:
                self._open_reader_locked(meta)

    def _replay_logs_locked(self) -> None:
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
                self._flush_memtable_locked()
        if len(self._mem):
            # Like LevelDB's RecoverLogFile: recovered writes go straight
            # to a level-0 table so retiring the old WAL cannot lose them.
            self._flush_memtable_locked()
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
        snapshot = bytearray()
        snapshot += encode_fixed64(self.versions.last_sequence)
        snapshot += encode_fixed64(self.versions.next_file_number)
        snapshot += encode_fixed32(NUM_LEVELS)
        for level in range(NUM_LEVELS):
            files = self.versions.current.files[level]
            snapshot += encode_fixed32(len(files))
            for meta in files:
                snapshot += encode_fixed64(meta.number)
                snapshot += encode_fixed64(meta.file_size)
                put_length_prefixed_slice(snapshot, meta.smallest)
                put_length_prefixed_slice(snapshot, meta.largest)
        manifest_number = self.versions.new_file_number()
        manifest_name = manifest_file_name(self.dbname, manifest_number)
        dest = self.env.new_writable_file(manifest_name)
        writer = LogWriter(dest)
        writer.add_record(bytes(snapshot))
        self._durable_close(dest)
        current = self.env.new_writable_file(current_file_name(self.dbname))
        current.append(manifest_name.encode())
        self._durable_close(current)
        # Retire older manifests.
        for name in self.env.list_dir(self.dbname):
            number = parse_manifest_number(name)
            if number is not None and number != manifest_number:
                self.env.delete_file(f"{self.dbname}/{name}")

    def _new_log_locked(self) -> None:
        # Never retire a segment a group-commit leader is still syncing
        # (the leader runs WAL I/O outside the mutex).
        while self._wal_writing:
            self._writers_cond.wait()
        if self._log_file is not None:
            self._log_file.close()
        self._log_number = self.versions.new_file_number()
        self._log_file = self.env.new_writable_file(
            log_file_name(self.dbname, self._log_number))
        self._log = LogWriter(self._log_file)

    # ------------------------------------------------------------------
    # Write path
    # ------------------------------------------------------------------

    def _check_open(self) -> None:
        if self._closed:
            raise DBStateError("database is closed")

    def put(self, key: bytes, value: bytes,
            tenant: Optional[str] = None) -> None:
        batch = WriteBatch()
        batch.put(key, value)
        if not self._op_obs:
            self.write(batch)
            return
        start = time.perf_counter()
        ok = False
        try:
            self.write(batch, tenant=tenant)
            ok = True
        finally:
            self._observe_op("put", time.perf_counter() - start,
                             tenant, ok)

    def delete(self, key: bytes, tenant: Optional[str] = None) -> None:
        batch = WriteBatch()
        batch.delete(key)
        if not self._op_obs:
            self.write(batch)
            return
        start = time.perf_counter()
        ok = False
        try:
            self.write(batch, tenant=tenant)
            ok = True
        finally:
            self._observe_op("delete", time.perf_counter() - start,
                             tenant, ok)

    def _observe_op(self, op: str, seconds: float,
                    tenant: Optional[str], ok: bool = True) -> None:
        """Fold one foreground operation into the observability surface:
        the aggregate window, the per-tenant window and op counter, and
        the SLO engine.  Only called when ``_op_obs`` is set."""
        ctx = self.tracer.current_context()
        if ctx is not None:
            trace = str(ctx.trace_id)
        elif self._last_stall_trace is not None:
            trace = str(self._last_stall_trace)
        else:
            trace = None
        self._last_stall_trace = None
        if self._windows is not None:
            window = self._windows.get(op)
            if window is not None:
                window.observe(seconds, trace_id=trace)
            if tenant is not None:
                key = (op, tenant)
                tenant_window = self._tenant_windows.get(key)
                if tenant_window is None:
                    tenant_window = WindowedHistogram(
                        window_seconds=self.options
                        .latency_window_seconds)
                    if self._slo is not None:
                        tenant_window.exemplar_threshold = \
                            self._slo.threshold_for(op, tenant)
                    self._tenant_windows[key] = tenant_window
                    publish_window(
                        self.metrics, "lsm_op_latency_window_seconds",
                        "Sliding-window operation latency quantiles.",
                        tenant_window, op=op, tenant=tenant,
                        **self._m.labels)
                tenant_window.observe(seconds, trace_id=trace)
        if tenant is not None:
            key = (op, tenant)
            counter = self._tenant_op_counters.get(key)
            if counter is None:
                counter = self.metrics.counter(
                    "lsm_tenant_ops_total",
                    "Operations by tenant and op.",
                    tenant=tenant, op=op, **self._m.labels)
                self._tenant_op_counters[key] = counter
            counter.inc()
        if self._slo is not None:
            self._slo.record(op, seconds, ok=ok,
                             tenant=tenant if tenant is not None
                             else "default",
                             trace_id=trace)

    def tenant_op_counts(self) -> dict:
        """``{tenant: {op: count}}`` for every tenant-attributed op."""
        out: dict = {}
        for (op, tenant), counter in self._tenant_op_counters.items():
            out.setdefault(tenant, {})[op] = int(counter.value)
        return out

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

    @property
    def slo_engine(self):
        """The DB's :class:`repro.obs.slo.SloEngine`, or None."""
        return self._slo

    def _check_bg_error_locked(self) -> None:
        if self._bg_error is not None:
            raise DBStateError(
                f"background maintenance failed: {self._bg_error!r}"
            ) from self._bg_error

    def _set_background_error_locked(self, error: BaseException) -> None:
        """Record the first background failure (mutex held) and wake any
        throttled writers so they surface it instead of hanging."""
        if self._bg_error is None:
            self._bg_error = error
        self._cond.notify_all()

    def write(self, batch: WriteBatch,
              tenant: Optional[str] = None) -> None:
        """Commit a batch: WAL append + persist per ``Options.wal_sync``,
        then memtable insert.  The write is acknowledged (this method
        returns) only after the WAL bytes have reached the durability
        point the configured mode promises."""
        self._check_open()
        if not len(batch):
            return
        start = time.perf_counter() if self._op_obs else 0.0
        if self.options.wal_sync == "group":
            self._group_commit(batch)
        else:
            with self._mutex:
                self._write_locked(batch)
        if self._op_obs:
            self._observe_op("write", time.perf_counter() - start, tenant)

    def _write_locked(self, batch: WriteBatch) -> None:
        """The non-group commit path (mutex held)."""
        if self._driver is not None:
            self._check_bg_error_locked()
            self._make_room_for_write_locked()
        sequence = self.versions.last_sequence + 1
        self._c["writes"].inc(len(batch))
        self._c["write_bytes"].inc(batch.byte_size())
        self._log.add_record(batch.serialize(sequence))
        self._persist_wal_locked()
        next_seq = batch.apply_to_memtable(self._mem, sequence)
        self.versions.last_sequence = next_seq - 1
        self._maintain_after_write_locked()

    def _maintain_after_write_locked(self) -> None:
        if self._driver is not None:
            if self.versions.needs_compaction():
                # Mint a trace context here so the compaction this
                # write triggers stitches back to it across the
                # driver's queue and worker threads.
                self._driver.kick(ctx=self.tracer.mint_context())
        elif self.auto_compact:
            self._maybe_maintain_locked()

    def _persist_wal_locked(self) -> None:
        """Push the just-appended WAL record to this mode's durability
        point before the writer is acknowledged (mutex held)."""
        mode = self.options.wal_sync
        if mode == "none":
            return
        self._log.flush()
        if mode == "always":
            self._sync_wal(self._log_file)
        elif mode == "interval":
            if (time.monotonic() - self._last_wal_sync
                    >= self.options.wal_sync_interval_seconds):
                self._sync_wal(self._log_file)

    def _sync_wal(self, log_file) -> None:
        """fsync one WAL segment, timed into ``lsm_wal_sync_seconds``."""
        started = time.perf_counter()
        log_file.sync()
        self._last_wal_sync = time.monotonic()
        self._m.wal_syncs.inc()
        self._m.wal_sync_seconds.observe(time.perf_counter() - started)

    def _group_commit(self, batch: WriteBatch) -> None:
        """LevelDB-style group commit (``wal_sync="group"``).

        Every writer enqueues and waits; the queue front becomes the
        leader.  The leader splices the queued batches into one WAL
        record, releases the mutex for the flush+fsync (so new writers
        can line up into the *next* group meanwhile — that overlap is
        the whole throughput win), then reacquires it to apply the
        spliced batch to the memtable and wake the group."""
        writer = _Writer(batch)
        with self._mutex:
            self._writers.append(writer)
            while not writer.done and self._writers[0] is not writer:
                self._writers_cond.wait()
            if writer.done:
                if writer.error is not None:
                    raise writer.error
                return
            # This thread leads the commit.
            if self._driver is not None:
                try:
                    self._check_bg_error_locked()
                    self._make_room_for_write_locked()
                except BaseException as exc:
                    self._finish_group_locked([writer], exc)
                    raise
            group = self._build_group_locked()
            if len(group) == 1:
                spliced = group[0].batch
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
            log.flush()
            self._sync_wal(log_file)
        except BaseException as exc:
            error = exc
        with self._mutex:
            self._wal_writing = False
            if error is None:
                for member in group:
                    self._c["writes"].inc(len(member.batch))
                    self._c["write_bytes"].inc(member.batch.byte_size())
                next_seq = spliced.apply_to_memtable(self._mem, sequence)
                self.versions.last_sequence = next_seq - 1
                self._m.group_commit_batches.observe(len(group))
            self._finish_group_locked(group, error)
            if error is None:
                self._maintain_after_write_locked()
        if error is not None:
            raise error

    def _build_group_locked(self) -> list[_Writer]:
        """Collect the leader's group from the queue front (mutex held).

        LevelDB's rule: cap the spliced record at
        ``Options.group_commit_max_bytes``, and when the leader's own
        batch is small (≤128 KB) cap growth at +128 KB so a tiny write
        is never held hostage to a huge group."""
        front = self._writers[0]
        group = [front]
        total = front.batch.byte_size()
        max_size = self.options.group_commit_max_bytes
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
        self._writers_cond.notify_all()

    def _make_room_for_write_locked(self) -> None:
        """LevelDB's ``MakeRoomForWrite``: real throttling for the
        background mode (mutex held).

        * L0 at the slowdown trigger → sleep once per write (gentle
          backpressure that lets the compaction units gain ground);
        * memtable full but the previous one still flushing → wait;
        * memtable full and L0 at the stop trigger → block until an L0
          compaction lands (counted as a stall, duration → histogram);
        * otherwise swap the memtable and hand it to the flush worker.
        """
        allow_delay = True
        while True:
            self._check_bg_error_locked()
            mem_full = (self._mem.approximate_memory_usage
                        >= self.options.write_buffer_size)
            l0_files = self.versions.current.num_files(0)
            if not mem_full:
                if allow_delay and l0_files >= L0_SLOWDOWN_TRIGGER:
                    allow_delay = False
                    self._driver.kick()
                    self._cond.wait(timeout=self.slowdown_sleep_seconds)
                    continue
                return
            if self._imm is not None:
                self._stall_until_locked(
                    lambda: self._imm is None,
                    kick=self._driver.kick_flush, reason="imm_full")
                continue
            if l0_files >= L0_STOP_TRIGGER:
                self._stall_until_locked(
                    lambda: (self.versions.current.num_files(0)
                             < L0_STOP_TRIGGER),
                    kick=lambda ctx=None: self._driver.kick(level=0,
                                                            ctx=ctx),
                    reason="l0_stop")
                continue
            self._swap_memtable_locked()
            return

    def _stall_until_locked(self, predicate, kick, reason: str) -> None:
        """Block the writer until ``predicate`` holds (mutex held); the
        whole episode is one stall observation.

        The episode gets a trace context (the enclosing one if the
        caller is traced, a fresh one otherwise) carried by the stall
        span, the ``stall_*`` events, and the maintenance work the kicks
        trigger — so a tail-latency exemplar recorded right after the
        stall resolves back to this episode in the journal."""
        self.stall_events += 1
        self._c["stalls"].inc()
        ctx = self.tracer.current_context()
        if ctx is None:
            ctx = self.tracer.mint_context()
        trace_fields = {} if ctx is None else {"trace": str(ctx.trace_id)}
        self.events.emit("stall_start", db=self.dbname, reason=reason,
                         **trace_fields)
        start = time.perf_counter()
        with self.tracer.activate(ctx):
            with self.tracer.span("write.stall", db=self.dbname,
                                  reason=reason):
                while (not predicate() and self._bg_error is None
                       and not self._closed):
                    kick(ctx)
                    self._cond.wait(timeout=0.05)
        waited = time.perf_counter() - start
        self._m.stall_seconds.observe(waited)
        self.events.emit("stall_finish", db=self.dbname, reason=reason,
                         seconds=waited, **trace_fields)
        if ctx is not None:
            self._last_stall_trace = ctx.trace_id
        self._check_bg_error_locked()

    def _swap_memtable_locked(self) -> None:
        """Make the active memtable immutable, rotate the WAL, and queue
        the flush (mutex held, ``_imm`` must be empty)."""
        self._imm = self._mem
        self._mem = MemTable(self.icmp)
        # New writes land in a fresh log; the old segment is retired only
        # after the immutable memtable reaches level 0.
        self._new_log_locked()
        self._driver.kick_flush(ctx=self.tracer.mint_context())

    def _maybe_maintain_locked(self) -> None:
        """Inline maintenance for the synchronous mode.  Every episode
        that does work blocks the foreground write, so its duration feeds
        the same stall histogram the background mode's waits do — that is
        the sync-vs-background comparison the driver bench reports."""
        did_work = False
        start = time.perf_counter()
        if (self._mem.approximate_memory_usage
                >= self.options.write_buffer_size):
            if self.versions.current.num_files(0) >= L0_STOP_TRIGGER:
                # Real LevelDB blocks the writer here; inline we count the
                # event and clear level 0 specifically before proceeding
                # (a generic pick could choose a deeper level and leave
                # L0 over the trigger).
                self.stall_events += 1
                self._c["stalls"].inc()
                while self.versions.current.num_files(0) >= L0_STOP_TRIGGER:
                    spec = self.versions.pick_compaction(level=0)
                    if spec is None:
                        break
                    self.run_compaction(spec)
                did_work = True
            self._flush_memtable_locked()
            did_work = True
        while self.versions.needs_compaction():
            if not self.compact_once():
                break
            did_work = True
        if did_work:
            self._m.stall_seconds.observe(time.perf_counter() - start)

    def flush(self) -> None:
        """Force the active memtable to a level-0 SSTable.

        In background mode this blocks until the flush worker has
        installed the table (or surfaces the background error)."""
        self._check_open()
        with self._mutex:
            if self._driver is not None:
                if len(self._mem):
                    while self._imm is not None and self._bg_error is None:
                        self._driver.kick_flush()
                        self._cond.wait(timeout=0.05)
                    self._check_bg_error_locked()
                    if len(self._mem):
                        self._swap_memtable_locked()
                while self._imm is not None and self._bg_error is None:
                    self._driver.kick_flush()
                    self._cond.wait(timeout=0.05)
                self._check_bg_error_locked()
                return
            if len(self._mem):
                self._flush_memtable_locked()

    def _flush_memtable_locked(self) -> None:
        if not len(self._mem):
            return
        with self.tracer.span("flush", db=self.dbname) as span:
            self._imm = self._mem
            self._mem = MemTable(self.icmp)
            try:
                meta, start = self._build_flush_table(
                    self._imm, self.versions.new_file_number(), span)
                self._install_flush_table_locked(meta, start, span)
            except BaseException:
                self._restore_imm_after_failed_flush_locked()
                raise
            if self._log is not None:
                # No active WAL during recovery replay: rotating there
                # would retire segments that have not been replayed yet.
                self._new_log_locked()
                self._retire_old_logs()
            self._refresh_level_gauges_locked()

    def _build_flush_table(self, imm: MemTable, number: int,
                           span) -> tuple[FileMetaData, float]:
        """Flush step 1: dump ``imm`` to level-0 table file ``number``
        and close it durably; a partial file is removed on failure.
        Needs no mutex — ``imm`` is immutable by construction — so the
        flush worker runs it while foreground writes proceed.  Returns
        the table's metadata and the step's start time, both inputs of
        :meth:`_install_flush_table_locked`."""
        name = table_file_name(self.dbname, number)
        self.events.emit("flush_start", db=self.dbname, table=number,
                         **_trace_fields(span))
        start = time.perf_counter()
        try:
            dest = self.env.new_writable_file(name)
            builder = TableBuilder(self.options, dest, self.icmp)
            for internal_key, value in imm:
                builder.add(internal_key, value)
            stats = builder.finish()
            self._durable_close(dest)
        except BaseException:
            if self.env.file_exists(name):
                self.env.delete_file(name)
            raise
        return FileMetaData(number, stats.file_bytes, builder.smallest_key,
                            builder.largest_key), start

    def _install_flush_table_locked(self, meta: FileMetaData, start: float,
                                    span) -> None:
        """Flush step 2 (mutex held): add the built table to level 0,
        account for it, retire ``_imm`` and persist the new version."""
        edit = VersionEdit()
        edit.add_file(0, meta)
        self.versions.apply(edit)
        self._open_reader_locked(meta)
        self._c["flushes"].inc()
        self._c["flush_bytes"].inc(meta.file_size)
        self._m.add_level_write(0, meta.file_size)
        span.set(table=meta.number, bytes=meta.file_size)
        self.events.emit(
            "flush_finish", db=self.dbname, table=meta.number,
            bytes=meta.file_size,
            seconds=time.perf_counter() - start,
            write_bytes=int(self._c["write_bytes"].value),
            **_trace_fields(span))
        self._imm = None
        self._write_manifest()

    def _restore_imm_after_failed_flush_locked(self) -> None:
        """A failed flush must not strand writes: fold whatever reached
        the fresh active memtable back on top of the immutable one and
        reinstate it as ``_mem``, so every committed write stays readable
        and re-flushable (the WAL segment also still holds them)."""
        restored = self._imm
        if restored is None:
            return
        for internal_key, value in self._mem:
            parsed = parse_internal_key(internal_key)
            restored.add(parsed.sequence,
                         TYPE_DELETION if parsed.is_deletion else TYPE_VALUE,
                         extract_user_key(internal_key), value)
        self._mem = restored
        self._imm = None

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

    def _open_reader_locked(self, meta: FileMetaData) -> TableReader:
        if meta.number not in self._readers:
            data = self.env.read_file(table_file_name(self.dbname, meta.number))
            self._readers[meta.number] = TableReader(
                data, self.icmp, self.options, self.block_cache, meta.number)
        return self._readers[meta.number]

    def _cpu_executor(self, spec: CompactionSpec, input_tables: list,
                      parent_tables: list,
                      drop_deletions: bool) -> list[OutputTable]:
        return compact_tables(spec.level, input_tables, parent_tables,
                              self.options, self.icmp,
                              drop_deletions).outputs

    def _executor_backend(self) -> str:
        """Which backend ran the merge just executed on this thread.

        The scheduler records the executing backend's name
        (cpu|fpga-sim|batch, or "fallback" after a fault-forced CPU
        merge) in thread-local state precisely so this read is safe with
        multiple compaction units; executors without ``last_route`` are
        the plain CPU reference merge."""
        last_route = getattr(self._executor, "last_route", None)
        if callable(last_route):
            return last_route() or "cpu"
        return "cpu"

    def compact_once(self) -> bool:
        """Pick and execute one merge compaction; returns False when no
        compaction is due."""
        self._check_open()
        with self._mutex:
            with self.tracer.span("compaction.pick", db=self.dbname) as span:
                spec = self.versions.pick_compaction()
                span.set(picked=spec is not None)
        if spec is None:
            return False
        self.run_compaction(spec)
        return True

    def run_compaction(self, spec: CompactionSpec) -> list[FileMetaData]:
        """Execute ``spec`` through the configured executor and install
        the result.

        The merge itself runs outside the DB mutex (so ``num_units``
        background workers overlap with the write path and each other);
        reader capture before and version-edit install after both hold
        it.  Callers in background mode must guarantee the spec's files
        are not concurrently compacted (the driver's busy-set does)."""
        with self.tracer.span("compaction", db=self.dbname,
                              level=spec.level,
                              output_level=spec.output_level,
                              input_bytes=spec.total_input_bytes) as span:
            return self._run_compaction(spec, span)

    def _run_compaction(self, spec: CompactionSpec,
                        span) -> list[FileMetaData]:
        base_bytes = sum(m.file_size for m in spec.inputs)
        parent_bytes = sum(m.file_size for m in spec.parents)
        trace_fields = _trace_fields(span)
        self.events.emit(
            "compaction_start", db=self.dbname, level=spec.level,
            output_level=spec.output_level, reason=spec.reason,
            input_bytes=spec.total_input_bytes, **trace_fields)
        start = time.perf_counter()
        with self._mutex:
            input_tables = [self._open_reader_locked(m) for m in spec.inputs]
            parent_tables = [self._open_reader_locked(m) for m in spec.parents]
            if spec.level == 0:
                # Newest-first so the merge meets newer versions first
                # (the internal-key order already guarantees it; this
                # keeps the tie-break rule aligned anyway).
                pairs = sorted(zip(spec.inputs, input_tables),
                               key=lambda p: p[0].number, reverse=True)
                input_tables = [t for _, t in pairs]
            drop = self.versions.is_bottommost_level_for(spec)
            smallest_snapshot = self._smallest_live_snapshot_locked()

        if smallest_snapshot is not None:
            # Live snapshots: route to the snapshot-preserving CPU merge
            # (the FPGA engine keeps only the newest version per key, so
            # offloading here could drop versions a snapshot still needs).
            outputs = self._snapshot_merge(
                spec, input_tables, parent_tables, drop, smallest_snapshot)
            span.set(snapshot_merge=True,
                     smallest_snapshot=smallest_snapshot)
            backend = "cpu"
        else:
            outputs = self._executor(spec, input_tables, parent_tables, drop)
            backend = self._executor_backend()

        # Write and durably close the output tables *before* taking the
        # mutex: fsyncing N tables under the DB lock would stall every
        # writer for the whole disk flush (the exact bug class the
        # lock-discipline lint's LD003/LD004 rules exist to catch — the
        # analyzer found this running under the mutex).  Nothing
        # references the new file numbers until the version edit below
        # installs them, so only the number allocation needs the lock.
        new_metas: list[FileMetaData] = []
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
            self._m.add_level_write(spec.output_level, output_bytes)
            self._m.add_level_read(spec.level, base_bytes)
            if parent_bytes:
                self._m.add_level_read(spec.output_level, parent_bytes)
            span.set(output_bytes=output_bytes, output_tables=len(outputs),
                     backend=backend)
            self.events.emit(
                "compaction_finish", db=self.dbname, level=spec.level,
                output_level=spec.output_level, reason=spec.reason,
                backend=backend, input_bytes=spec.total_input_bytes,
                output_bytes=output_bytes, input_bytes_base=base_bytes,
                input_bytes_parent=parent_bytes,
                seconds=time.perf_counter() - start,
                write_bytes=int(self._c["write_bytes"].value),
                **trace_fields)
            with self.tracer.span("compaction.install"):
                edit = VersionEdit()
                for meta in spec.inputs:
                    edit.delete_file(spec.level, meta.number)
                for meta in spec.parents:
                    edit.delete_file(spec.output_level, meta.number)
                for meta in new_metas:
                    edit.add_file(spec.output_level, meta)
                self.versions.apply(edit)
                for meta in new_metas:
                    self._open_reader_locked(meta)
                for old in spec.inputs + spec.parents:
                    self._readers.pop(old.number, None)
                    self.env.delete_file(
                        table_file_name(self.dbname, old.number))
                self._write_manifest()
            self._refresh_level_gauges_locked()
            self._cond.notify_all()
        return new_metas

    def _snapshot_merge(self, spec: CompactionSpec, input_tables: list,
                        parent_tables: list, drop_deletions: bool,
                        smallest_snapshot: int) -> list[OutputTable]:
        """CPU merge that keeps, per user key, the newest version at or
        below every live snapshot (LevelDB's ``last_sequence_for_key``
        rule)."""
        self._m.snapshot_merges.inc()
        return compact_tables(spec.level, input_tables, parent_tables,
                              self.options, self.icmp, drop_deletions,
                              smallest_snapshot=smallest_snapshot).outputs

    def _background_flush(self) -> None:
        """Flush worker entry point: dump ``_imm`` to a level-0 table.

        The table build runs *without* the mutex, so foreground writes
        proceed into the fresh memtable meanwhile; only the install
        takes the lock.  On failure ``_imm`` stays set — its writes
        remain readable and its WAL segment is retained — and the driver
        records the error.
        """
        with self._mutex:
            imm = self._imm
            if imm is None or self._closed:
                return
            number = self.versions.new_file_number()
        with self.tracer.span("flush", db=self.dbname) as span:
            meta, start = self._build_flush_table(imm, number, span)
            with self._mutex:
                self._install_flush_table_locked(meta, start, span)
                self._retire_old_logs()
                self._refresh_level_gauges_locked()
                self._cond.notify_all()
        if self.versions.needs_compaction():
            # Still inside the flush's activated context: the compaction
            # this flush triggers joins the same trace.
            self._driver.kick(ctx=self.tracer.current_context())

    def compact_range(self) -> None:
        """Compact until no level is over budget (full maintenance).

        In background mode this drains the driver: it keeps kicking and
        waiting until no compaction is due and all workers are idle."""
        self.flush()
        if self._driver is not None:
            with self._mutex:
                while self._bg_error is None:
                    if (not self.versions.needs_compaction()
                            and self._driver.idle()):
                        break
                    self._driver.kick(ctx=self.tracer.mint_context())
                    self._cond.wait(timeout=0.05)
                self._check_bg_error_locked()
            return
        while self.versions.needs_compaction():
            if not self.compact_once():
                break

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

    def get(self, key: bytes, snapshot: "Snapshot | None" = None,
            tenant: Optional[str] = None) -> bytes:
        """Return the value of ``key`` (newest, or as of ``snapshot``).

        Raises :class:`NotFoundError` when absent or deleted.
        """
        self._check_open()
        if snapshot is not None:
            snapshot._check_owner(self)
        start = time.perf_counter() if self._op_obs else 0.0
        with self._mutex:
            sequence = (snapshot.sequence if snapshot is not None
                        else self.versions.last_sequence)
            try:
                return self._get_at_locked(key, sequence)
            finally:
                if self._op_obs:
                    # NotFoundError is a successful lookup of an absent
                    # key, not an availability failure.
                    self._observe_op("get",
                                     time.perf_counter() - start, tenant)

    def _get_at_locked(self, key: bytes, snapshot: int) -> bytes:
        self._c["reads"].inc()
        try:
            value = self._mem.get(key, snapshot)
        except NotFoundError:
            raise NotFoundError(key) from None
        if value is not None:
            self._c["read_hits"].inc()
            return value
        if self._imm is not None:
            try:
                value = self._imm.get(key, snapshot)
            except NotFoundError:
                raise NotFoundError(key) from None
            if value is not None:
                self._c["read_hits"].inc()
                return value
        lookup = encode_internal_key(key, snapshot, 0x1)
        for _level, meta in self.versions.current.files_for_key(key):
            reader = self._open_reader_locked(meta)
            if not reader.key_may_match(key):
                continue
            entry = reader.get(lookup)
            if entry is None:
                continue
            internal_key, value = entry
            if extract_user_key(internal_key) != key:
                continue
            parsed = parse_internal_key(internal_key)
            if parsed.is_deletion:
                raise NotFoundError(key)
            self._c["read_hits"].inc()
            return value
        raise NotFoundError(key)

    def scan(self, start: Optional[bytes] = None,
             end: Optional[bytes] = None,
             snapshot: "Snapshot | None" = None
             ) -> Iterator[tuple[bytes, bytes]]:
        """Range scan over live user keys in ``[start, end)``.

        With ``snapshot``, entries newer than the snapshot's sequence are
        invisible.
        """
        self._check_open()
        if snapshot is not None:
            snapshot._check_owner(self)
        lookup = (encode_internal_key(start, MAX_SEQUENCE, 0x1)
                  if start is not None else None)

        def mem_source(mem: MemTable):
            for internal_key, value in mem:
                if (lookup is not None
                        and self.icmp.compare(internal_key, lookup) < 0):
                    continue
                yield internal_key, value

        with self._mutex:
            visible_sequence = (snapshot.sequence if snapshot is not None
                                else self.versions.last_sequence)
            sources = []
            if self._driver is not None:
                # Background mode: the skiplist may be concurrently
                # mutated, so snapshot the memtable contents up front.
                # Table readers are immutable byte images, safe to keep.
                sources.append(iter(list(mem_source(self._mem))))
                if self._imm is not None:
                    sources.append(iter(list(mem_source(self._imm))))
            else:
                sources.append(mem_source(self._mem))
                if self._imm is not None:
                    sources.append(mem_source(self._imm))
            for level in range(NUM_LEVELS):
                files = self.versions.current.files[level]
                if level == 0:
                    ordered = sorted(files, key=lambda f: f.number,
                                     reverse=True)
                else:
                    ordered = files
                for meta in ordered:
                    reader = self._open_reader_locked(meta)
                    if lookup is not None:
                        sources.append(reader.iter_from(lookup))
                    else:
                        sources.append(iter(reader))
        user_cmp = self.options.comparator.compare
        last_user: Optional[bytes] = None
        for internal_key, value in merging_iterator(sources, self.icmp.compare):
            user_key = extract_user_key(internal_key)
            if end is not None and user_cmp(user_key, end) >= 0:
                return
            parsed = parse_internal_key(internal_key)
            if parsed.sequence > visible_sequence:
                continue  # newer than the snapshot: invisible
            if last_user is not None and user_cmp(user_key, last_user) == 0:
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

    def _refresh_level_gauges_locked(self) -> None:
        """Publish per-level file counts, sizes and amplification gauges
        after shape changes (mutex held)."""
        for level in range(NUM_LEVELS):
            self._m.set_level(level,
                              self.versions.current.num_files(level),
                              self.versions.current.level_bytes(level))
        for row in self._level_amplification_locked():
            self._m.set_level_amp(row["level"], row["write_amp"],
                                  row["space_amp"], row["read_amp"])

    def _level_amplification_locked(self) -> list[dict]:
        """Per-level amplification rows (mutex held).

        * write amp: bytes installed into the level (flush output for
          L0, compaction output below) over user write bytes — the
          per-level decomposition of :attr:`DbStats.write_amplification`;
        * space amp: level bytes over the bytes of the last non-empty
          level (the logical dataset size estimate);
        * read amp: sorted runs a point lookup may touch — the L0 file
          count, and 1 for any non-empty deeper level.
        """
        write_bytes = self._c["write_bytes"].value
        sizes = [self.versions.current.level_bytes(level)
                 for level in range(NUM_LEVELS)]
        last_bytes = next((size for size in reversed(sizes) if size), 0)
        rows = []
        for level in range(NUM_LEVELS):
            files = self.versions.current.num_files(level)
            level_writes = self._m.level_write_bytes(level)
            rows.append({
                "level": level,
                "files": files,
                "bytes": sizes[level],
                "write_bytes": level_writes,
                "read_bytes": self._m.level_read_bytes(level),
                "write_amp": (level_writes / write_bytes
                              if write_bytes else 0.0),
                "space_amp": (sizes[level] / last_bytes
                              if last_bytes else 0.0),
                "read_amp": (float(files) if level == 0
                             else (1.0 if sizes[level] else 0.0)),
            })
        return rows

    def level_amplification(self) -> list[dict]:
        """Per-level amplification accounting, one dict per level with
        ``level``, ``files``, ``bytes``, ``write_bytes``, ``read_bytes``,
        ``write_amp``, ``space_amp`` and ``read_amp`` keys."""
        self._check_open()
        with self._mutex:
            return self._level_amplification_locked()

    def property(self, name: str) -> str:
        """LevelDB-style ``GetProperty``.

        Supported names: ``repro.stats`` (the human-readable report),
        ``repro.levelstats`` (per-level amplification table),
        ``repro.num-files-at-level<N>``, and
        ``repro.approximate-memory-usage`` (live memtable bytes).
        Raises :class:`NotFoundError` for unknown properties.
        """
        self._check_open()
        with self._mutex:
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
                return str(self.versions.current.num_files(level))
            if name == "repro.approximate-memory-usage":
                usage = self._mem.approximate_memory_usage
                if self._imm is not None:
                    usage += self._imm.approximate_memory_usage
                return str(usage)
            raise NotFoundError(name)

    def approximate_size(self, start: bytes, end: bytes) -> int:
        """Approximate on-disk bytes occupied by user keys in
        ``[start, end)`` (LevelDB's ``GetApproximateSizes``).

        Counts the file-size share of every table whose range intersects
        the query, scaled by the overlap fraction assuming uniform keys
        within a table.
        """
        self._check_open()
        user_cmp = self.options.comparator.compare
        if user_cmp(start, end) >= 0:
            return 0
        total = 0
        with self._mutex:
            files_by_level = [list(self.versions.current.files[level])
                              for level in range(NUM_LEVELS)]
        for level in range(NUM_LEVELS):
            for meta in files_by_level[level]:
                file_small, file_large = meta.user_range()
                if (user_cmp(file_large, start) < 0
                        or user_cmp(file_small, end) >= 0):
                    continue
                contained = (user_cmp(start, file_small) <= 0
                             and user_cmp(file_large, end) < 0)
                if contained:
                    total += meta.file_size
                else:
                    # Partial overlap: charge half as a coarse estimate
                    # (LevelDB uses index-block offsets; half-file keeps
                    # the estimate monotone without opening the table).
                    total += meta.file_size // 2
        return total

    def table_reader(self, number: int) -> TableReader:
        """Open reader for file ``number`` (used by the FPGA host layer)."""
        with self._mutex:
            for level in range(NUM_LEVELS):
                for meta in self.versions.current.files[level]:
                    if meta.number == number:
                        return self._open_reader_locked(meta)
        raise NotFoundError(f"table {number}")

    def close(self) -> None:
        if self._closed:
            return
        if self._driver is not None:
            # Drain pending background work first (workers need the
            # mutex, so this must run without holding it), then stop.
            self._driver.close()
        with self._mutex:
            if self._closed:
                return
            # Let queued group commits drain: every writer in the queue
            # has been promised an acknowledgement or an error.
            while self._writers or self._wal_writing:
                self._writers_cond.wait(timeout=0.05)
            if self._log_file is not None:
                self._log_file.close()
            if self._own_journal is not None:
                self._own_journal.close()
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
