"""Canonical metric families and per-subsystem binders.

One table maps every family the repro emits to its kind, help text and
(for histograms) buckets, so the Prometheus exposition is stable and the
paper's figures have documented counterparts:

* ``lsm_*``        — the key-value store (Fig 14/15 write path, stalls,
  levels, block cache);
* ``scheduler_*``  — Fig 6 routing and the per-phase offload time that
  Table VIII decomposes;
* ``fpga_pcie_*``  — the DMA traffic behind Table VIII's PCIe share;
* ``fpga_pipeline_*`` — per-module busy/stall cycles and FIFO occupancy
  behind Table V / Figs 9-13.

The ``bind_*`` helpers hand instrumented components pre-created child
metrics, so hot paths increment objects instead of doing name lookups.
"""

from __future__ import annotations

from repro.obs.registry import (
    BYTES_BUCKETS,
    SECONDS_BUCKETS,
    MetricsRegistry,
)

#: Group-commit batch-count buckets (batches per spliced WAL record).
GROUP_BUCKETS = (1, 2, 4, 8, 16, 32, 64, 128)

#: (name, kind, help, buckets-or-None)
FAMILIES: tuple[tuple, ...] = (
    # -- LSM store ----------------------------------------------------
    ("lsm_writes_total", "counter",
     "Write operations committed (batch entries).", None),
    ("lsm_write_bytes_total", "counter",
     "User bytes accepted by the write path.", None),
    ("lsm_reads_total", "counter", "Point lookups issued.", None),
    ("lsm_read_hits_total", "counter",
     "Point lookups that found a live value.", None),
    ("lsm_flushes_total", "counter",
     "Memtable dumps to level-0 SSTables (compaction type 1).", None),
    ("lsm_flush_bytes_total", "counter",
     "Bytes written by memtable flushes.", None),
    ("lsm_compactions_total", "counter",
     "Merge compactions executed (compaction type 2).", None),
    ("lsm_compaction_input_bytes_total", "counter",
     "Bytes read by merge compactions.", None),
    ("lsm_compaction_output_bytes_total", "counter",
     "Bytes written by merge compactions.", None),
    ("lsm_write_stalls_total", "counter",
     "Episodes of a writer blocked making room (the paper's write "
     "pause); one lsm_write_stall_seconds observation each.", None),
    ("lsm_wal_syncs_total", "counter",
     "WAL fsyncs issued by the write path (one per commit under "
     "wal_sync=always, one per spliced group under group, clock-driven "
     "under interval).", None),
    ("lsm_wal_sync_seconds", "histogram",
     "Duration of each WAL flush+fsync on the acknowledgement path.",
     SECONDS_BUCKETS),
    ("lsm_group_commit_batches", "histogram",
     "Writer batches spliced into one WAL record per group commit "
     "(1 = no batching win).", GROUP_BUCKETS),
    ("lsm_write_stall_seconds", "histogram",
     "Foreground write-path time blocked on maintenance, per episode: "
     "the leader running due flushes/compactions, or waiting out one "
     "another thread runs (memtable handoff, L0 stop).",
     SECONDS_BUCKETS),
    ("lsm_snapshots_live", "gauge",
     "Snapshot handles currently registered (compaction preserves "
     "versions visible to them).", None),
    ("lsm_snapshot_merges_total", "counter",
     "Merge compactions routed to the snapshot-preserving software "
     "merge because live snapshots pinned old versions.", None),
    ("lsm_level_files", "gauge",
     "Live SSTable count per level.", None),
    ("lsm_level_bytes", "gauge",
     "Live SSTable bytes per level.", None),
    ("lsm_level_write_bytes_total", "counter",
     "Bytes installed into each level (flush output for level 0, "
     "compaction output for deeper levels).", None),
    ("lsm_level_read_bytes_total", "counter",
     "Bytes read from each level by merge compactions.", None),
    ("lsm_level_write_amp", "gauge",
     "Per-level write amplification: bytes written into the level / "
     "user write bytes.", None),
    ("lsm_level_space_amp", "gauge",
     "Per-level space amplification: level bytes / bytes of the last "
     "non-empty level.", None),
    ("lsm_level_read_amp", "gauge",
     "Estimated per-level read amplification: sorted runs a point "
     "lookup may touch (file count at L0, 1 for non-empty deeper "
     "levels).", None),
    ("lsm_op_latency_window_seconds", "gauge",
     "Sliding-window operation latency quantiles, by op "
     "(get|put|write) and quantile (p50|p95|p99|p999).", None),
    ("lsm_block_cache_hits_total", "counter",
     "Block cache hits.", None),
    ("lsm_block_cache_misses_total", "counter",
     "Block cache misses.", None),
    ("lsm_block_cache_usage_bytes", "gauge",
     "Bytes of payload currently cached.", None),
    # -- Compaction scheduler (Fig 6 / Table VIII) --------------------
    ("scheduler_phase_seconds_total", "counter",
     "Modeled seconds per offload phase "
     "(marshal|pcie_in|kernel|pcie_out|software).", None),
    ("scheduler_backend_tasks_total", "counter",
     "Merge compactions by executor backend (cpu|fpga-sim).", None),
    ("scheduler_backend_input_bytes_total", "counter",
     "Compaction input bytes by executor backend.", None),
    ("scheduler_backend_seconds_total", "counter",
     "Measured wall-clock seconds executing merges, by backend.", None),
    ("scheduler_task_input_bytes", "histogram",
     "Distribution of per-task compaction input sizes.", BYTES_BUCKETS),
    ("scheduler_faults_total", "counter",
     "Offload attempts that failed, by kind "
     "(protocol|timeout|dma).", None),
    ("scheduler_retries_total", "counter",
     "FPGA offload attempts retried after a fault.", None),
    ("scheduler_fallbacks_total", "counter",
     "Offloaded tasks degraded to the software merge after the device "
     "kept failing.", None),
    ("sim_stall_window_seconds", "gauge",
     "Sliding-window write-stall quantiles on *simulated* time, by sim "
     "mode and quantile (p50|p95|p99|p999).", None),
    ("sim_op_latency_window_seconds", "gauge",
     "Sliding-window open-loop arrival-to-completion latency quantiles "
     "on *simulated* time, by tenant/op/quantile — coordinated-omission "
     "free (includes queueing delay).", None),
    # -- SLO engine ---------------------------------------------------
    ("slo_events_total", "counter",
     "Operations classified against an SLO, by slo/tenant/outcome "
     "(good|bad).", None),
    ("slo_burn_rate", "gauge",
     "Error-budget burn rate by slo/tenant/policy/window (short|long); "
     "1.0 consumes the budget exactly over the SLO period.", None),
    ("slo_error_budget_remaining", "gauge",
     "Fraction of the error budget left over the longest policy "
     "window, by slo/tenant.", None),
    ("slo_alerts_total", "counter",
     "Burn-rate alert transitions by slo/tenant/policy/state "
     "(firing|resolved).", None),
    # -- Lock watchdog (repro.analysis.watchdog) ----------------------
    ("lockwatch_acquires", "gauge",
     "Instrumented lock acquisitions observed by the lock-order "
     "watchdog.", None),
    ("lockwatch_edges", "gauge",
     "Distinct held->acquired edges in the watchdog's lock-order "
     "graph.", None),
    ("lockwatch_cycles", "gauge",
     "Lock-order cycles detected (potential ABBA deadlocks); any "
     "non-zero value is a bug.", None),
    ("lockwatch_long_holds", "gauge",
     "Lock holds exceeding the watchdog's long-hold threshold.", None),
    # -- PCIe link (Table VIII) ---------------------------------------
    ("fpga_pcie_transfers_total", "counter",
     "DMA transfers by direction (in|out).", None),
    ("fpga_pcie_bytes_total", "counter",
     "DMA payload bytes by direction.", None),
    ("fpga_pcie_seconds_total", "counter",
     "Modeled DMA seconds by direction.", None),
    # -- FPGA pipeline (Table V / Figs 9-13) --------------------------
    ("fpga_pipeline_runs_total", "counter",
     "Kernel invocations timed by the pipeline simulator.", None),
    ("fpga_pipeline_cycles_total", "counter",
     "Total kernel cycles across runs.", None),
    ("fpga_pipeline_busy_cycles_total", "counter",
     "Busy cycles per module (decoder|comparer|value_bus|encoder|writer).",
     None),
    ("fpga_pipeline_stall_cycles_total", "counter",
     "Stall cycles by kind (decoder_wait = Comparer starved, "
     "backpressure = Decoder blocked on a full KV FIFO).", None),
    ("fpga_pipeline_comparer_rounds_total", "counter",
     "Selection rounds executed by the Comparer.", None),
    ("fpga_pipeline_pairs_total", "counter",
     "Pairs leaving the Comparer by outcome (transferred|dropped).", None),
    ("fpga_pipeline_input_bytes_total", "counter",
     "SSTable bytes consumed by the kernel.", None),
    ("fpga_pipeline_output_bytes_total", "counter",
     "SSTable bytes produced by the kernel.", None),
    ("fpga_pipeline_kernel_seconds_total", "counter",
     "Kernel cycles converted to seconds at the configured clock.", None),
    ("fpga_pipeline_fifo_high_water", "gauge",
     "High-water KV-FIFO occupancy per input (elements).", None),
    ("fpga_pipeline_kernel_seconds", "histogram",
     "Distribution of per-run kernel times.", SECONDS_BUCKETS),
    ("fpga_pipeline_bottleneck_runs_total", "counter",
     "Kernel runs by dominating module from the critical-path "
     "attribution pass (decoder|comparer|value_bus|encoder|writer|"
     "backpressure).", None),
    ("fpga_pipeline_bottleneck_cycles_total", "counter",
     "Kernel cycles attributed per module by the critical-path pass; "
     "per run the module cycles partition total_cycles exactly.", None),
)

_HELP = {name: (kind, help_text, buckets)
         for name, kind, help_text, buckets in FAMILIES}


def register_all(registry: MetricsRegistry) -> None:
    """Pre-register every canonical family so exposition always shows the
    complete metric surface, sampled or not."""
    for name, kind, help_text, buckets in FAMILIES:
        registry.describe(name, kind, help_text, buckets=buckets)


def _counter(registry: MetricsRegistry, name: str, **labels):
    kind, help_text, _ = _HELP[name]
    assert kind == "counter", name
    return registry.counter(name, help=help_text, **labels)


def _gauge(registry: MetricsRegistry, name: str, **labels):
    kind, help_text, _ = _HELP[name]
    assert kind == "gauge", name
    return registry.gauge(name, help=help_text, **labels)


def _histogram(registry: MetricsRegistry, name: str, **labels):
    kind, help_text, buckets = _HELP[name]
    assert kind == "histogram", name
    return registry.histogram(name, help=help_text, buckets=buckets,
                              **labels)


class LsmMetrics:
    """The store's bound children.  ``counters[field]`` is keyed by the
    short field names that :class:`DbStats` exposes."""

    def __init__(self, registry: MetricsRegistry, db: str, inst: str):
        self.registry = registry
        self.labels = {"db": db, "inst": inst}
        self.counters = {
            "writes": _counter(registry, "lsm_writes_total", **self.labels),
            "write_bytes": _counter(
                registry, "lsm_write_bytes_total", **self.labels),
            "reads": _counter(registry, "lsm_reads_total", **self.labels),
            "read_hits": _counter(
                registry, "lsm_read_hits_total", **self.labels),
            "flushes": _counter(
                registry, "lsm_flushes_total", **self.labels),
            "flush_bytes": _counter(
                registry, "lsm_flush_bytes_total", **self.labels),
            "compactions": _counter(
                registry, "lsm_compactions_total", **self.labels),
            "compaction_input_bytes": _counter(
                registry, "lsm_compaction_input_bytes_total", **self.labels),
            "compaction_output_bytes": _counter(
                registry, "lsm_compaction_output_bytes_total", **self.labels),
            "stalls": _counter(
                registry, "lsm_write_stalls_total", **self.labels),
            "block_cache_hits": _counter(
                registry, "lsm_block_cache_hits_total", **self.labels),
            "block_cache_misses": _counter(
                registry, "lsm_block_cache_misses_total", **self.labels),
        }
        self.cache_usage = _gauge(
            registry, "lsm_block_cache_usage_bytes", **self.labels)
        self.stall_seconds = _histogram(
            registry, "lsm_write_stall_seconds", **self.labels)
        self.wal_syncs = _counter(
            registry, "lsm_wal_syncs_total", **self.labels)
        self.wal_sync_seconds = _histogram(
            registry, "lsm_wal_sync_seconds", **self.labels)
        self.group_commit_batches = _histogram(
            registry, "lsm_group_commit_batches", **self.labels)
        self.snapshots_live = _gauge(
            registry, "lsm_snapshots_live", **self.labels)
        self.snapshot_merges = _counter(
            registry, "lsm_snapshot_merges_total", **self.labels)
        self._level_write_bytes: dict[int, object] = {}
        #: User write bytes the per-level W-Amp divides by: the largest
        #: figure a landed flush or merge fixed (and journaled), so a
        #: replay of the journal so far gives the same rows; at open,
        #: what a shared registry already counted.
        self.landed_write_bytes = int(self.counters["write_bytes"].value)
        self._level_read_bytes: dict[int, object] = {}
        self._level_gauges: dict[tuple[str, int], object] = {}

    def value(self, field: str) -> float:
        return self.counters[field].value

    def add_level_write(self, level: int, nbytes: int,
                        write_bytes: int) -> None:
        """Bytes installed into ``level`` (flush or compaction output),
        with the user write bytes its journal line carries."""
        self.landed_write_bytes = max(self.landed_write_bytes, write_bytes)
        counter = self._level_write_bytes.get(level)
        if counter is None:
            counter = self._level_write_bytes[level] = _counter(
                self.registry, "lsm_level_write_bytes_total",
                level=str(level), **self.labels)
        counter.inc(nbytes)

    def add_level_read(self, level: int, nbytes: int) -> None:
        """Bytes read from ``level`` by a merge compaction."""
        counter = self._level_read_bytes.get(level)
        if counter is None:
            counter = self._level_read_bytes[level] = _counter(
                self.registry, "lsm_level_read_bytes_total",
                level=str(level), **self.labels)
        counter.inc(nbytes)

    def level_write_bytes(self, level: int) -> float:
        counter = self._level_write_bytes.get(level)
        return counter.value if counter is not None else 0.0

    def level_read_bytes(self, level: int) -> float:
        counter = self._level_read_bytes.get(level)
        return counter.value if counter is not None else 0.0

    def level_amplification(self, version) -> list[dict]:
        """Per-level amplification rows of ``version`` (a
        :class:`repro.lsm.version.Version`), one dict per level:

        * write amp: bytes installed into the level (flush output for
          L0, compaction output below) over :attr:`landed_write_bytes`
          -- the user bytes the last landing fixed, which
          ``DbStats.write_amplification`` matches once the last write
          has landed;
        * space amp: level bytes over the bytes of the last non-empty
          level (the logical dataset size estimate);
        * read amp: sorted runs a point lookup may touch — the L0 file
          count, and 1 for any non-empty deeper level.
        """
        write_bytes = self.landed_write_bytes
        sizes = [version.level_bytes(level)
                 for level in range(len(version.files))]
        last_bytes = next((size for size in reversed(sizes) if size), 0)
        rows = []
        for level, size in enumerate(sizes):
            files = version.num_files(level)
            level_writes = self.level_write_bytes(level)
            rows.append({
                "level": level,
                "files": files,
                "bytes": size,
                "write_bytes": level_writes,
                "read_bytes": self.level_read_bytes(level),
                "write_amp": (level_writes / write_bytes
                              if write_bytes else 0.0),
                "space_amp": size / last_bytes if last_bytes else 0.0,
                "read_amp": (float(files) if level == 0
                             else (1.0 if size else 0.0)),
            })
        return rows

    def refresh_levels(self, version) -> None:
        """Publish ``version``'s per-level file counts, sizes and
        amplification gauges (called after every shape change)."""
        for row in self.level_amplification(version):
            level = row["level"]
            for name, field in (("lsm_level_files", "files"),
                                ("lsm_level_bytes", "bytes"),
                                ("lsm_level_write_amp", "write_amp"),
                                ("lsm_level_space_amp", "space_amp"),
                                ("lsm_level_read_amp", "read_amp")):
                gauge = self._level_gauges.get((name, level))
                if gauge is None:
                    gauge = self._level_gauges[(name, level)] = _gauge(
                        self.registry, name, level=str(level),
                        **self.labels)
                gauge.set(row[field])


def write_amplification(stats) -> float:
    """(flushed + compacted) bytes per user byte written, of
    :class:`DbStats` or a journal summary; 0.0 before any write."""
    if stats.write_bytes == 0:
        return 0.0
    return ((stats.flush_bytes + stats.compaction_output_bytes)
            / stats.write_bytes)


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
        return write_amplification(self)

    @property
    def block_cache_hit_ratio(self) -> float:
        """Hits over lookups (0.0 before any lookup)."""
        total = self.block_cache_hits + self.block_cache_misses
        return self.block_cache_hits / total if total else 0.0

    # Views of the write path's histograms.  Not in FIELDS: as_dict()
    # and the repro.stats text list counters only.

    @property
    def stall_seconds(self) -> float:
        """Foreground time lost to maintenance (the
        ``lsm_write_stall_seconds`` sum)."""
        return self._metrics.stall_seconds.sum

    @property
    def stall_episodes(self) -> int:
        """Observations behind :attr:`stall_seconds`."""
        return self._metrics.stall_seconds.count

    @property
    def wal_syncs(self) -> int:
        """WAL fsyncs issued by the commit path."""
        return int(self._metrics.wal_syncs.value)

    @property
    def group_commits(self) -> int:
        """Groups committed under ``wal_sync="group"``."""
        return self._metrics.group_commit_batches.count

    @property
    def mean_group_size(self) -> float:
        """Writer batches per group commit (1.0 before any)."""
        groups = self._metrics.group_commit_batches
        return groups.sum / groups.count if groups.count else 1.0

    def as_dict(self) -> dict[str, int]:
        """Counter fields as a plain dict, in :data:`FIELDS` order."""
        return {field: getattr(self, field) for field in DbStats.FIELDS}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"DbStats({inner})"


class SchedulerMetrics:
    """The compaction scheduler's bound children."""

    PHASES = ("marshal", "pcie_in", "kernel", "pcie_out", "software")
    BACKENDS = ("cpu", "fpga-sim")

    def __init__(self, registry: MetricsRegistry, inst: str):
        self.registry = registry
        self.labels = {"inst": inst}
        self.backend_tasks = {backend: _counter(
            registry, "scheduler_backend_tasks_total", backend=backend,
            **self.labels) for backend in self.BACKENDS}
        self.backend_input_bytes = {backend: _counter(
            registry, "scheduler_backend_input_bytes_total",
            backend=backend, **self.labels)
            for backend in self.BACKENDS}
        self.backend_seconds = {backend: _counter(
            registry, "scheduler_backend_seconds_total", backend=backend,
            **self.labels) for backend in self.BACKENDS}
        self.phase_seconds = {phase: _counter(
            registry, "scheduler_phase_seconds_total", phase=phase,
            **self.labels) for phase in self.PHASES}
        self.task_input_bytes = _histogram(
            registry, "scheduler_task_input_bytes", **self.labels)
        self.faults = {kind: _counter(
            registry, "scheduler_faults_total", kind=kind, **self.labels)
            for kind in ("protocol", "timeout", "dma")}
        self.retries = _counter(
            registry, "scheduler_retries_total", **self.labels)
        self.fallbacks = _counter(
            registry, "scheduler_fallbacks_total", **self.labels)


def stall_histogram(registry: MetricsRegistry, **labels):
    """Bind the write-stall duration histogram (shared by the functional
    store and the discrete-event system simulator)."""
    return _histogram(registry, "lsm_write_stall_seconds", **labels)


class PcieMetrics:
    """Per-device DMA counters."""

    def __init__(self, registry: MetricsRegistry):
        self.transfers = {d: _counter(
            registry, "fpga_pcie_transfers_total", direction=d)
            for d in ("in", "out")}
        self.bytes = {d: _counter(
            registry, "fpga_pcie_bytes_total", direction=d)
            for d in ("in", "out")}
        self.seconds = {d: _counter(
            registry, "fpga_pcie_seconds_total", direction=d)
            for d in ("in", "out")}

    def record(self, direction: str, nbytes: int, seconds: float) -> None:
        self.transfers[direction].inc()
        self.bytes[direction].inc(nbytes)
        self.seconds[direction].inc(seconds)


def publish_timing_report(registry: MetricsRegistry, report,
                          config) -> None:
    """Fold one :class:`repro.fpga.pipeline_sim.TimingReport` into the
    ``fpga_pipeline_*`` families."""
    _counter(registry, "fpga_pipeline_runs_total").inc()
    _counter(registry, "fpga_pipeline_cycles_total").inc(
        report.total_cycles)
    for module, cycles in (
            ("decoder", report.decoder_busy_cycles),
            ("comparer", report.comparer_busy_cycles),
            ("value_bus", report.value_bus_busy_cycles),
            ("encoder", report.encoder_busy_cycles),
            ("writer", report.writer_busy_cycles)):
        _counter(registry, "fpga_pipeline_busy_cycles_total",
                 module=module).inc(cycles)
    _counter(registry, "fpga_pipeline_stall_cycles_total",
             kind="decoder_wait").inc(report.decoder_stall_cycles)
    _counter(registry, "fpga_pipeline_stall_cycles_total",
             kind="backpressure").inc(report.decoder_backpressure_cycles)
    _counter(registry, "fpga_pipeline_comparer_rounds_total").inc(
        report.comparer_rounds)
    _counter(registry, "fpga_pipeline_pairs_total",
             outcome="transferred").inc(report.pairs_transferred)
    _counter(registry, "fpga_pipeline_pairs_total",
             outcome="dropped").inc(report.pairs_dropped)
    _counter(registry, "fpga_pipeline_input_bytes_total").inc(
        report.input_bytes)
    _counter(registry, "fpga_pipeline_output_bytes_total").inc(
        report.output_bytes)
    kernel_seconds = report.kernel_seconds(config)
    _counter(registry, "fpga_pipeline_kernel_seconds_total").inc(
        kernel_seconds)
    _histogram(registry, "fpga_pipeline_kernel_seconds").observe(
        kernel_seconds)
    for input_no, occupancy in enumerate(report.fifo_high_water):
        _gauge(registry, "fpga_pipeline_fifo_high_water",
               input=str(input_no)).set_max(occupancy)
