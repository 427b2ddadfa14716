"""End-to-end system simulator: LevelDB vs LevelDB-FCAE write throughput.

A discrete-event model of the paper's §VII-B2/C2/C3/D experiments at
memtable granularity:

* the **foreground writer** fills 4 MB memtables at the CPU write-path
  rate, sleeps 1 ms per write while level 0 is in *slowdown* (>= 8 files)
  and blocks entirely in *stop* (>= 12) — LevelDB v1.1's exact throttle;
* **flushes** (compaction type 1) encode the immutable memtable to an L0
  file: on the background core for baseline LevelDB, on the single host
  core for LevelDB-FCAE (whose background core budget went to the card);
* **merge compactions** (compaction type 2) are picked by the statistical
  :class:`~repro.sim.lsm_model.LsmShapeModel` and executed by the mode's
  backend — the CPU merge model for LevelDB; disk-read -> PCIe -> kernel
  -> PCIe -> disk-write for LevelDB-FCAE, with software fallback whenever
  a task's input-stream count exceeds the engine's ``N`` (Fig 6);
* a shared :class:`~repro.sim.disk.DiskModel` carries flush writes and
  compaction I/O.

The headline effects all emerge rather than being scripted: the baseline
is CPU-merge-bound (throughput ~ merge speed / write amplification), the
FCAE system is disk-bound at scale, L0 throttling compresses the gap as
data grows (Fig 14's convergence), and PCIe stays a low single-digit
percentage of wall time (Table VIII).
"""

from __future__ import annotations

import heapq
import random
from dataclasses import dataclass, field
from typing import Optional

from repro import obs
from repro.errors import InvalidArgumentError
from repro.fpga.config import CONFIG_9_INPUT, FpgaConfig
from repro.fpga.engine import simulate_synthetic
from repro.host.pcie import PcieModel
from repro.lsm.options import Options
from repro.obs.events import record
from repro.obs.window import nearest_rank
from repro.sim.cpu import CpuCostModel
from repro.sim.disk import DiskModel
from repro.sim.lsm_model import LsmShapeModel, ModelCompactionTask

#: LevelDB's write throttle: 1 ms sleep per write during slowdown.
SLOWDOWN_SLEEP_SECONDS = 1e-3

#: Per-entry storage overhead (varints, restarts, WAL record framing).
ENTRY_OVERHEAD_BYTES = 12

#: Block-cache bytes of the open-loop simulator: a tenant's reads hit
#: cache on this share of its keyspace.
OPEN_LOOP_CACHE_BYTES = 64e6
#: Width of the open-loop per-tenant latency windows, in simulated s.
OPEN_LOOP_WINDOW_SECONDS = 60.0


@dataclass(frozen=True)
class SystemConfig:
    """One simulated system."""

    mode: str = "leveldb"              # "leveldb" | "fcae"
    options: Options = field(default_factory=Options)
    fpga: FpgaConfig = CONFIG_9_INPUT
    cpu: CpuCostModel = field(default_factory=CpuCostModel)
    pcie: PcieModel = field(default_factory=PcieModel)
    disk_read_bandwidth: float = 500e6
    disk_write_bandwidth: float = 450e6
    data_size_bytes: int = 1 << 30
    #: Concurrent Compaction Units on the card (fcae mode): each offloaded
    #: task occupies the earliest-free unit, so tasks overlap up to this
    #: many ways (PCIe and disk stay shared).
    num_units: int = 1

    def __post_init__(self) -> None:
        if self.mode not in ("leveldb", "fcae"):
            raise InvalidArgumentError(f"unknown mode {self.mode!r}")
        if self.data_size_bytes <= 0:
            raise InvalidArgumentError("data_size_bytes must be positive")
        if self.num_units < 1:
            raise InvalidArgumentError("num_units must be >= 1")


@dataclass
class SystemResult:
    """Measurements of one run."""

    mode: str
    user_bytes: int
    elapsed_seconds: float
    stall_seconds: float = 0.0
    slowdown_seconds: float = 0.0
    flush_seconds: float = 0.0
    sw_compaction_seconds: float = 0.0
    kernel_seconds: float = 0.0
    pcie_seconds: float = 0.0
    fpga_tasks: int = 0
    software_tasks: int = 0
    write_amplification: float = 1.0
    memtables_flushed: int = 0
    total_writes: int = 0
    slowdown_writes: int = 0
    stall_waits: list = field(default_factory=list)

    @property
    def throughput_mbps(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.user_bytes / self.elapsed_seconds / 1e6

    @property
    def pcie_fraction(self) -> float:
        """Table VIII's metric: DMA time over whole-system time."""
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.pcie_seconds / self.elapsed_seconds

    def latency_percentile(self, percentile: float,
                           base_write_seconds: float) -> float:
        """Write-latency percentile from the simulated distribution.

        The distribution has three regimes: plain writes at the CPU
        write-path cost, *slowdown* writes carrying LevelDB's 1 ms sleep,
        and the writes that absorb a full stall (flush backlog or L0
        stop) — the paper's "write pause".
        """
        if not 0 <= percentile <= 100:
            raise InvalidArgumentError("percentile must be in [0, 100]")
        total = max(1, self.total_writes)
        rank = total * (1 - percentile / 100.0)
        stalls = sorted(self.stall_waits, reverse=True)
        if rank < len(stalls):
            index = int(rank)
            return base_write_seconds + stalls[min(index, len(stalls) - 1)]
        if rank < len(stalls) + self.slowdown_writes:
            return base_write_seconds + SLOWDOWN_SLEEP_SECONDS
        return base_write_seconds

    @property
    def max_write_pause(self) -> float:
        """Longest single stall a write absorbed."""
        return max(self.stall_waits, default=0.0)


_KERNEL_SPEED_CACHE: dict[tuple, float] = {}


def fpga_kernel_speed_mbps(config: FpgaConfig, user_key_length: int,
                           value_length: int, num_streams: int) -> float:
    """Kernel throughput from the shared pipeline timing model, cached
    per (config, key, value, streams) point."""
    num_streams = max(2, min(num_streams, config.num_inputs))
    cache_key = (config.num_inputs, config.value_width, config.w_in,
                 config.w_out, config.kv_fifo_depth,
                 config.output_buffer_width, config.variant,
                 user_key_length, value_length, num_streams)
    speed = _KERNEL_SPEED_CACHE.get(cache_key)
    if speed is None:
        pairs = max(200, 60_000 // max(1, value_length))
        report = simulate_synthetic(
            config, [pairs] * num_streams, user_key_length, value_length)
        speed = report.speed_mbps(config)
        _KERNEL_SPEED_CACHE[cache_key] = speed
    return speed


@dataclass
class _Inflight:
    finish: float
    task: ModelCompactionTask


class SystemSimulator:
    """Runs one configuration to completion."""

    def __init__(self, config: SystemConfig):
        self.config = config
        self.options = config.options
        self.cpu = config.cpu
        self.disk = DiskModel(read_bandwidth=config.disk_read_bandwidth,
                              write_bandwidth=config.disk_write_bandwidth)
        self.model = LsmShapeModel(self.options)
        self.result = SystemResult(mode=config.mode, user_bytes=0,
                                   elapsed_seconds=0.0)
        self._writer_clock = 0.0
        self._bg_clock = 0.0       # background core (baseline only)
        # One clock per Compaction Unit; offloads take the earliest-free.
        self._fpga_clocks = [0.0] * config.num_units
        self._flush_done = 0.0
        #: heap of ``(finish, scheduling order, job)``: the earliest
        #: finish first, and of jobs finishing together the first scheduled
        self._inflight: list[tuple[float, int, _Inflight]] = []
        self._scheduled = 0
        tracer = obs.current_tracer()
        #: None when spans would go to the no-op tracer
        self._tracer = None if isinstance(tracer, obs.NullTracer) else tracer
        #: This run's time 0 on the tracer's modeled clock: consecutive
        #: simulations follow each other instead of overlapping.
        self._trace_origin = tracer.sim_cursor
        registry = obs.current_registry()
        self._stall_hist = None
        self._stall_window = None
        if registry is not None:
            from repro.obs.names import stall_histogram
            from repro.obs.window import WindowedHistogram, publish_window
            self._stall_hist = stall_histogram(registry, sim=config.mode)
            # Slides on *modeled* time: the clock reader sees the writer
            # core's clock, so "p99 right now" means the last simulated
            # minute, not the wall time the simulation took to compute.
            self._stall_window = WindowedHistogram(
                window_seconds=60.0,
                clock=lambda: self._writer_clock)
            publish_window(
                registry, "sim_stall_window_seconds",
                "Sliding-window write-stall quantiles on simulated time.",
                self._stall_window, sim=config.mode)

        entry_bytes = self.options.key_length + self.options.value_length
        self._entry_bytes = entry_bytes
        self._entries_per_mem = max(
            1, self.options.write_buffer_size
            // (entry_bytes + ENTRY_OVERHEAD_BYTES))
        self._user_per_mem = self._entries_per_mem * entry_bytes
        self._l0_file_bytes = int(
            self._entries_per_mem * (entry_bytes + ENTRY_OVERHEAD_BYTES))

    # ------------------------------------------------------------------
    # Compaction completion bookkeeping
    # ------------------------------------------------------------------

    def _settle(self, until: float) -> None:
        """Apply every compaction that completes by ``until``."""
        inflight = self._inflight
        while inflight and inflight[0][0] <= until:
            job = heapq.heappop(inflight)[2]
            self.model.apply(job.task)
            self._on_compaction_applied(job)
            self._schedule_compactions(job.finish)

    # Hook points for subclasses that narrate the run (journal events,
    # traces); the closed-loop simulator itself needs none of them.

    def _on_compaction_applied(self, job: "_Inflight") -> None:
        """``job``'s outputs were just installed in the shape model."""

    def _on_flush(self, start: float, finish: float) -> None:
        """A memtable flush was scheduled over ``[start, finish]``."""

    def _earliest_inflight_finish(self) -> Optional[float]:
        return self._inflight[0][0] if self._inflight else None

    def _stall(self, reason: str, until: float) -> float:
        """The writer waits until ``until`` — one write-pause episode
        (``reason``: ``l0_stop`` or ``flush_backlog``).  Returns the
        seconds waited."""
        waited = max(0.0, until - self._writer_clock)
        self._record_stall(waited)
        self._writer_clock = max(self._writer_clock, until)
        return waited

    def _record_stall(self, waited: float) -> None:
        """Fold one episode into the result list + stall histogram."""
        self.result.stall_seconds += waited
        if waited > 0:
            self.result.stall_waits.append(waited)
            if self._stall_hist is not None:
                self._stall_hist.observe(waited)
            if self._stall_window is not None:
                self._stall_window.observe(waited)

    # ------------------------------------------------------------------
    # Compaction execution backends
    # ------------------------------------------------------------------

    def _schedule_compactions(self, now: float) -> None:
        pick = self.model.pick_compaction
        leveldb = self.config.mode == "leveldb"
        while (task := pick()) is not None:
            if leveldb:
                finish = self._run_software_task(task, now,
                                                 on_writer_core=False)
            elif task.fpga_input_count <= self.config.fpga.num_inputs:
                finish = self._run_fpga_task(task, now)
            else:
                # Fig 6: too many overlapping inputs — software path,
                # which in FCAE mode costs the single host core.
                finish = self._run_software_task(task, now,
                                                 on_writer_core=True)
            self._scheduled += 1
            heapq.heappush(self._inflight, (finish, self._scheduled,
                                            _Inflight(finish, task)))

    def _trace_span(self, name: str, start: float, end: float,
                    **attrs) -> None:
        self._tracer.record_sim_span(name, self._trace_origin + start,
                                     self._trace_origin + end, **attrs)

    def _run_software_task(self, task: ModelCompactionTask, now: float,
                           on_writer_core: bool) -> float:
        duration = self.cpu.system_compaction_seconds(
            task.input_bytes, self.options.key_length,
            self.options.value_length)
        if on_writer_core:
            start = max(now, self._writer_clock)
            self._writer_clock = start + duration
            core_end = self._writer_clock
        else:
            start = max(now, self._bg_clock)
            self._bg_clock = start + duration
            core_end = self._bg_clock
        self.result.software_tasks += 1
        self.result.sw_compaction_seconds += duration
        read_done = self.disk.reserve_read(start, task.input_bytes)
        write_done = self.disk.reserve_write(max(core_end, read_done),
                                             task.output_bytes)
        finish = max(core_end, write_done)
        if self._tracer is not None:
            self._trace_span("sim.compaction", start, finish,
                             route="software", level=task.level,
                             input_bytes=task.input_bytes,
                             on_writer_core=on_writer_core)
        return finish

    def _run_fpga_task(self, task: ModelCompactionTask, now: float) -> float:
        config = self.config
        speed = fpga_kernel_speed_mbps(
            config.fpga, self.options.key_length, self.options.value_length,
            task.fpga_input_count)
        kernel = task.input_bytes / (speed * 1e6)
        pcie_in = config.pcie.transfer_seconds(task.input_bytes)
        pcie_out = config.pcie.transfer_seconds(task.output_bytes)
        marshal = self.cpu.offload_seconds(task.input_bytes)

        unit = min(range(len(self._fpga_clocks)),
                   key=self._fpga_clocks.__getitem__)
        start = max(now, self._fpga_clocks[unit])
        read_done = self.disk.reserve_read(start, task.input_bytes)
        kernel_start = max(start + marshal, read_done) + pcie_in
        kernel_end = kernel_start + kernel
        out_ready = kernel_end + pcie_out
        self._fpga_clocks[unit] = out_ready
        write_done = self.disk.reserve_write(out_ready, task.output_bytes)

        self.result.fpga_tasks += 1
        self.result.kernel_seconds += kernel
        self.result.pcie_seconds += pcie_in + pcie_out
        finish = max(out_ready, write_done)
        if self._tracer is not None:
            self._trace_span("sim.compaction", start, finish, route="fpga",
                             unit=unit, level=task.level,
                             input_bytes=task.input_bytes,
                             kernel_seconds=kernel,
                             pcie_seconds=pcie_in + pcie_out,
                             marshal_seconds=marshal)
        return finish

    # ------------------------------------------------------------------
    # Foreground loop
    # ------------------------------------------------------------------

    def _wait_while_stopped(self) -> bool:
        """L0 stop: block the writer until a compaction completes, as
        LevelDB's MakeRoomForWrite does.  True if it had to wait."""
        stalled = False
        while self.model.stopped:
            finish = self._earliest_inflight_finish()
            if finish is None:
                # Nothing running that could relieve L0 — force one.
                self._schedule_compactions(self._writer_clock)
                finish = self._earliest_inflight_finish()
                if finish is None:
                    break
            self._stall("l0_stop", finish)
            stalled = True
            self._settle(self._writer_clock)
        return stalled

    def _swap_and_flush(self, flush_cpu: float) -> None:
        """The memtable is full: wait for the previous flush (there is
        one immutable memtable), then schedule this one's."""
        if self._flush_done > self._writer_clock:
            self._stall("flush_backlog", self._flush_done)
        self._settle(self._writer_clock)

        if self.config.mode == "leveldb":
            start = max(self._writer_clock, self._bg_clock)
            cpu_done = start + flush_cpu
            self._bg_clock = cpu_done
        else:
            # Single host core: the writer itself encodes the table,
            # overlapping the FPGA kernel (the paper's co-design win).
            start = self._writer_clock
            cpu_done = start + flush_cpu
            self._writer_clock = cpu_done
        flush_finish = self.disk.reserve_write(cpu_done,
                                               self._l0_file_bytes)
        self._flush_done = flush_finish
        self.result.flush_seconds += flush_cpu
        self.result.memtables_flushed += 1
        self._on_flush(start, flush_finish)
        if self._tracer is not None:
            self._trace_span("sim.flush", start, flush_finish,
                             bytes=self._l0_file_bytes)
        self.model.add_l0_file(self._l0_file_bytes)
        self._schedule_compactions(flush_finish)

    def run(self) -> SystemResult:
        target = self.config.data_size_bytes
        write_cost = self.cpu.write_seconds(self.options.key_length,
                                            self.options.value_length)
        flush_cpu = self.cpu.flush_seconds(self._l0_file_bytes)

        user_written = 0
        while user_written < target:
            self._settle(self._writer_clock)
            self._wait_while_stopped()

            # Fill one memtable.
            fill = self._entries_per_mem * write_cost
            self.result.total_writes += self._entries_per_mem
            if self.model.slowdown:
                penalty = self._entries_per_mem * SLOWDOWN_SLEEP_SECONDS
                fill += penalty
                self.result.slowdown_seconds += penalty
                self.result.slowdown_writes += self._entries_per_mem
            self._writer_clock += fill

            self._swap_and_flush(flush_cpu)
            user_written += self._user_per_mem

        self.result.user_bytes = user_written
        self._drain()
        return self.result

    def _drain(self) -> None:
        """Let outstanding flush and compaction work finish; the run
        ends when the last of it does."""
        end = max(self._writer_clock, self._flush_done)
        while self._inflight:
            finish = self._earliest_inflight_finish()
            end = max(end, finish)
            self._settle(finish)
        self.result.elapsed_seconds = end
        self.result.write_amplification = (
            self.model.stats.write_amplification())


def simulate_fillrandom(config: SystemConfig) -> SystemResult:
    """Run db_bench's fillrandom under ``config`` and return measurements."""
    return SystemSimulator(config).run()


# ----------------------------------------------------------------------
# YCSB mixed workloads (paper §VII-D / Fig 16)
# ----------------------------------------------------------------------

@dataclass
class YcsbSimResult:
    """Throughput of one YCSB workload under one system."""

    workload: str
    mode: str
    ops: int
    elapsed_seconds: float
    write_result: Optional[SystemResult]

    @property
    def ops_per_second(self) -> float:
        if self.elapsed_seconds <= 0:
            return 0.0
        return self.ops / self.elapsed_seconds


def _cache_hit_rate(distribution: str, record_count: int,
                    db_bytes: int, cache_bytes: float) -> float:
    """Fraction of reads served without disk, from the access skew and
    the effective cache (block cache + OS page cache) coverage."""
    from repro.workloads.distributions import estimate_hot_fraction

    cached_fraction = min(1.0, cache_bytes / max(1, db_bytes))
    if distribution == "uniform":
        return cached_fraction
    if distribution == "latest":
        # The hottest items are the newest — still memtable/cache resident.
        return min(0.98, 0.5 + estimate_hot_fraction(
            0.99, record_count, cached_fraction) / 2 + 0.25)
    return estimate_hot_fraction(0.99, record_count, cached_fraction)


def simulate_ycsb(config: SystemConfig, workload, record_count: int,
                  op_count: int, cache_bytes: float = 4e9) -> YcsbSimResult:
    """Simulate one YCSB workload phase over a pre-loaded store.

    Client reads run on the foreground core between writes; read misses
    touch the shared disk.  The write stream reuses the fillrandom
    machinery — a simulator instance whose foreground loop is charged the
    interleaved read time via an inflated per-write cost.
    """
    options = config.options
    entry_bytes = options.key_length + options.value_length
    db_bytes = record_count * entry_bytes
    hit_rate = _cache_hit_rate(workload.distribution, record_count,
                               db_bytes, cache_bytes)
    cpu = config.cpu

    reads = int(op_count * (workload.read_fraction + workload.rmw_fraction))
    scans = int(op_count * workload.scan_fraction)
    writes = int(op_count * workload.write_fraction)

    disk_read_per_miss = (options.block_size / config.disk_read_bandwidth
                          + 150e-6)  # block + seek/index amortization
    read_cost_hit = cpu.read_hit_seconds()
    read_cost_miss = read_cost_hit + disk_read_per_miss
    avg_read = hit_rate * read_cost_hit + (1 - hit_rate) * read_cost_miss
    scan_blocks = max(1, (workload.max_scan_length // 2 * entry_bytes)
                      // options.block_size)
    avg_scan = (cpu.scan_seconds(workload.max_scan_length // 2)
                + (1 - hit_rate) * scan_blocks * disk_read_per_miss)

    read_seconds = reads * avg_read + scans * avg_scan

    if writes == 0:
        # Pure-read workloads never touch the compaction machinery; both
        # systems behave identically (the paper's Workload C point).
        return YcsbSimResult(workload.name, config.mode, op_count,
                             read_seconds, None)

    write_bytes = writes * entry_bytes
    write_config = SystemConfig(
        mode=config.mode, options=options, fpga=config.fpga, cpu=cpu,
        pcie=config.pcie,
        disk_read_bandwidth=config.disk_read_bandwidth,
        disk_write_bandwidth=config.disk_write_bandwidth,
        data_size_bytes=max(options.write_buffer_size, write_bytes))
    simulator = SystemSimulator(write_config)
    # Interleave: each write is preceded, on average, by reads/writes
    # read operations whose time rides the foreground clock.
    reads_per_write = (reads * avg_read + scans * avg_scan) / writes
    base_write = cpu.write_seconds(options.key_length, options.value_length)

    # Inflate the writer cost by patching the cpu model's write path via a
    # wrapper (keeps SystemSimulator generic).
    class _InterleavedCpu(CpuCostModel):
        def write_seconds(inner, key_length: int, value_length: int) -> float:  # noqa: N805
            return base_write + reads_per_write

    simulator.cpu = _InterleavedCpu()
    write_result = simulator.run()
    elapsed = write_result.elapsed_seconds

    # Read-side contention: while the baseline's background core is
    # saturated by software merges, client reads lose LLC/memory
    # bandwidth; offloading the merge to the card removes this (one of
    # the paper's qualitative claims for the read-mixed workloads).
    if config.mode == "leveldb" and elapsed > 0:
        merge_utilization = min(1.0, write_result.sw_compaction_seconds
                                / elapsed)
        elapsed += (read_seconds * cpu.read_contention_factor
                    * merge_utilization)

    return YcsbSimResult(workload.name, config.mode, op_count,
                         elapsed, write_result)


# ----------------------------------------------------------------------
# Open-loop arrival mode (multi-tenant SLO observatory)
# ----------------------------------------------------------------------
#
# The fillrandom loop above is *closed-loop*: the writer issues the next
# operation the instant the previous one returns, so a stall slows the
# arrival stream down and the latency distribution only ever sees
# service time — the classic coordinated-omission blind spot.  The
# open-loop mode below draws Poisson arrivals per tenant at a fixed
# offered rate and measures arrival-to-completion, so an op that arrives
# *during* a write stall is charged the queueing delay it actually
# suffered.  Compactions, flushes and stalls are additionally emitted
# into the flight-recorder journal with synthetic trace ids, so an SLO
# exemplar captured on a tail latency walks back to the maintenance work
# that caused it.


@dataclass(frozen=True)
class TenantSpec:
    """One open-loop client stream.

    Attributes
    ----------
    name:
        Tenant label carried on metrics, SLO accounting and journal
        events.
    arrival_rate:
        Offered load in operations/second; inter-arrival gaps are
        exponential (Poisson process).
    workload:
        YCSB mix name (``load``/``a``..``f``) deciding the read/write
        split and the default key distribution.
    distribution:
        Optional override of the mix's key distribution
        (``uniform`` | ``zipfian`` | ``latest``).
    record_count:
        Keyspace size the distribution samples over (drives the cache
        hit rate together with :data:`OPEN_LOOP_CACHE_BYTES`).
    seed:
        Per-tenant RNG seed (arrivals, op mix and key choice).
    """

    name: str
    arrival_rate: float
    workload: str = "a"
    distribution: Optional[str] = None
    record_count: int = 100_000
    seed: int = 1

    def __post_init__(self) -> None:
        from repro.workloads import YCSB_WORKLOADS
        if not self.name:
            raise InvalidArgumentError("tenant needs a name")
        if self.arrival_rate <= 0:
            raise InvalidArgumentError("arrival_rate must be positive")
        if self.workload not in YCSB_WORKLOADS:
            raise InvalidArgumentError(
                f"unknown YCSB workload {self.workload!r}")
        if self.distribution not in (None, "uniform", "zipfian", "latest"):
            raise InvalidArgumentError(
                f"unknown distribution {self.distribution!r}")
        if self.record_count <= 0:
            raise InvalidArgumentError("record_count must be positive")


@dataclass
class OpenLoopTenantStats:
    """Per-tenant measurements of one open-loop run."""

    name: str
    ops: int = 0
    reads: int = 0
    writes: int = 0
    stalled_ops: int = 0
    stall_seconds: float = 0.0
    #: Arrival-to-completion times (queueing + service) — the
    #: coordinated-omission-free distribution.
    latencies: list = field(default_factory=list)
    #: Service times alone, for comparison against the closed-loop view.
    service_seconds: list = field(default_factory=list)

    def latency_percentile(self, percentile: float) -> float:
        return nearest_rank(self.latencies, percentile)

    def service_percentile(self, percentile: float) -> float:
        return nearest_rank(self.service_seconds, percentile)

    @property
    def mean_queue_delay(self) -> float:
        """Mean (latency − service): pure queueing/stall delay."""
        if not self.latencies:
            return 0.0
        total = sum(self.latencies) - sum(self.service_seconds)
        return max(0.0, total / len(self.latencies))


@dataclass
class OpenLoopResult:
    """Measurements of one multi-tenant open-loop run."""

    mode: str
    duration_seconds: float
    tenants: dict  # name -> OpenLoopTenantStats
    system: SystemResult
    #: ``(slo, tenant, policy)`` triples still firing at the end.
    slo_firing: list = field(default_factory=list)
    #: Every burn-rate alert transition, in order (mirrors the
    #: ``slo_alert`` journal events).
    alert_transitions: list = field(default_factory=list)

    @property
    def total_ops(self) -> int:
        return sum(t.ops for t in self.tenants.values())

    @property
    def ops_per_second(self) -> float:
        if self.duration_seconds <= 0:
            return 0.0
        return self.total_ops / self.duration_seconds


class _TenantState:
    """Runtime RNG + key-chooser + stats for one tenant."""

    def __init__(self, spec: TenantSpec, entry_bytes: int):
        from repro.workloads import (LatestGenerator, UniformGenerator,
                                     YCSB_WORKLOADS, ZipfianGenerator)
        self.spec = spec
        mix = YCSB_WORKLOADS[spec.workload]
        self.write_fraction = mix.write_fraction
        self.rng = random.Random(spec.seed)
        distribution = spec.distribution or mix.distribution
        self.distribution = distribution
        db_bytes = spec.record_count * entry_bytes
        cached_fraction = min(1.0, OPEN_LOOP_CACHE_BYTES / max(1, db_bytes))
        self.hot_count = max(1, int(cached_fraction * spec.record_count))
        if distribution == "zipfian":
            self.generator = ZipfianGenerator(spec.record_count,
                                              seed=spec.seed + 1)
        elif distribution == "latest":
            self.generator = LatestGenerator(spec.record_count,
                                             seed=spec.seed + 1)
        else:
            self.generator = UniformGenerator(spec.record_count,
                                              seed=spec.seed + 1)
        self.stats = OpenLoopTenantStats(spec.name)

    def next_is_write(self) -> bool:
        return self.rng.random() < self.write_fraction

    def next_read_hits(self) -> bool:
        """Sample one key; hit iff it falls in the cached hot set."""
        if self.distribution == "zipfian":
            # Popularity rank 0 is hottest — cache holds the top ranks.
            return self.generator.next_rank() < self.hot_count
        if self.distribution == "latest":
            # Hottest = newest; cache holds the most recent inserts.
            age = self.generator.insert_count - 1 - self.generator.next()
            return age < self.hot_count
        return self.generator.next() < self.hot_count


class OpenLoopSimulator(SystemSimulator):
    """Open-loop, multi-tenant variant of :class:`SystemSimulator`.

    Differences from the closed-loop ``run()``:

    * operations arrive per-tenant as Poisson processes and queue on the
      single foreground core; latency = completion − arrival;
    * the memtable fills one entry at a time, so stalls land on the
      exact ops that suffered them;
    * compactions/flushes/stalls are emitted as journal events carrying
      synthetic ``trace`` ids (``sim-N``) and simulated-time ``sim_ts``
      fields, and the op delayed by a stall hands that trace to the SLO
      engine as its exemplar — the journal then links a tail latency to
      the maintenance episode that caused it;
    * per-tenant arrival-to-completion quantiles slide on simulated time
      (``sim_op_latency_window_seconds``), and an optional
      :class:`~repro.obs.slo.SloEngine` on the simulated clock scores
      every op and raises burn-rate alerts mid-run.
    """

    def __init__(self, config: SystemConfig, tenants,
                 duration_seconds: float, slo_specs=()):
        super().__init__(config)
        self.tenants = tuple(tenants)
        if not self.tenants:
            raise InvalidArgumentError("open-loop run needs >= 1 tenant")
        names = [spec.name for spec in self.tenants]
        if len(set(names)) != len(names):
            raise InvalidArgumentError("tenant names must be unique")
        if duration_seconds <= 0:
            raise InvalidArgumentError("duration_seconds must be positive")
        self.duration_seconds = float(duration_seconds)
        self._registry = obs.current_registry()
        self.slo = None
        if slo_specs:
            from repro.obs.slo import build_engine
            self.slo = build_engine(slo_specs, registry=self._registry,
                                    journals=obs.journals(),
                                    clock=lambda: self._writer_clock)
        self._trace_seq = 0
        self._task_trace: dict[int, str] = {}   # id(task) -> trace
        self._task_start: dict[int, float] = {}
        self._flush_trace: Optional[str] = None
        #: Trace of the stall episode that delayed the op currently (or
        #: next) being recorded; consumed by ``_record_op``.
        self._pending_stall_trace: Optional[str] = None
        self._tenant_windows: dict = {}
        self._mem_entries = 0
        #: The tenant whose write is in progress (stalls land on it).
        self._writing: Optional[_TenantState] = None

    # -- journal plumbing ----------------------------------------------

    def _next_trace(self) -> str:
        self._trace_seq += 1
        return f"sim-{self._trace_seq:04d}"

    # -- compaction hooks (journal events around the base backends) ----

    def _note_compaction_start(self, task, start: float,
                               backend: str) -> None:
        trace = self._next_trace()
        self._task_trace[id(task)] = trace
        self._task_start[id(task)] = start
        record(obs.journals(), "compaction_start", trace=trace,
               backend=backend, level=task.level,
               output_level=task.output_level, input_bytes=task.input_bytes,
               sim_ts=round(start, 9))

    def _run_software_task(self, task, now, on_writer_core):
        finish = super()._run_software_task(task, now, on_writer_core)
        self._note_compaction_start(task, now, "software")
        return finish

    def _run_fpga_task(self, task, now):
        finish = super()._run_fpga_task(task, now)
        self._note_compaction_start(task, now, "fpga")
        return finish

    def _on_compaction_applied(self, job: _Inflight) -> None:
        task = job.task
        trace = self._task_trace.pop(id(task), None)
        start = self._task_start.pop(id(task), job.finish)
        if trace is not None:
            record(obs.journals(), "compaction_finish", trace=trace,
                   level=task.level, output_level=task.output_level,
                   input_bytes=task.input_bytes,
                   output_bytes=task.output_bytes,
                   seconds=round(job.finish - start, 9),
                   sim_ts=round(job.finish, 9))

    def _on_flush(self, start: float, finish: float) -> None:
        trace = self._flush_trace = self._next_trace()
        journals = obs.journals()
        record(journals, "flush_start", trace=trace,
               sim_ts=round(start, 9))
        record(journals, "flush_finish", trace=trace,
               bytes=self._l0_file_bytes, seconds=round(finish - start, 9),
               sim_ts=round(finish, 9))

    def _stall(self, reason: str, until: float) -> float:
        # The wait delays the tenant writing now (and, for a flush
        # backlog, the *next* op via the writer clock); hand the op the
        # trace of the work being waited on for exemplar attribution.
        start = self._writer_clock
        if reason == "l0_stop":  # waiting on the earliest compaction
            relief = self._inflight[0][2]
            trace = self._task_trace.get(id(relief.task))
        else:
            trace = self._flush_trace
        waited = super()._stall(reason, until)
        self._writing.stats.stall_seconds += waited
        fields = {"reason": reason}
        if trace is not None:
            fields["trace"] = self._pending_stall_trace = trace
        journals = obs.journals()
        record(journals, "stall_start", sim_ts=round(start, 9), **fields)
        record(journals, "stall_finish", sim_ts=round(start + waited, 9),
               seconds=round(waited, 9), **fields)
        return waited

    # -- per-tenant metric plumbing ------------------------------------

    def _tenant_window(self, tenant: str, op: str):
        if self._registry is None:
            return None
        key = (tenant, op)
        window = self._tenant_windows.get(key)
        if window is None:
            from repro.obs.window import open_op_window
            window = self._tenant_windows[key] = open_op_window(
                self._registry, "sim_op_latency_window_seconds",
                "Sliding-window open-loop arrival-to-completion latency "
                "quantiles on *simulated* time, by tenant/op/quantile — "
                "coordinated-omission free (includes queueing delay).",
                OPEN_LOOP_WINDOW_SECONDS, op, tenant=tenant,
                clock=lambda: self._writer_clock,
                sim=self.config.mode)
        return window

    def _record_op(self, state: _TenantState, op: str, arrival: float,
                   completion: float, service: float,
                   stalled: bool) -> None:
        stats = state.stats
        latency = completion - arrival
        stats.ops += 1
        if op == "get":
            stats.reads += 1
        else:
            stats.writes += 1
        if stalled:
            stats.stalled_ops += 1
        stats.latencies.append(latency)
        stats.service_seconds.append(service)
        trace = self._pending_stall_trace
        self._pending_stall_trace = None
        window = self._tenant_window(state.spec.name, op)
        if window is not None:
            window.observe(latency)
        if self.slo is not None:
            self.slo.record(op, latency, tenant=state.spec.name,
                            trace_id=trace)

    # -- the foreground loop -------------------------------------------

    def _do_read(self, state: _TenantState, arrival: float,
                 read_hit_cost: float, read_miss_extra: float) -> None:
        start = max(self._writer_clock, arrival)
        self._settle(start)
        service = read_hit_cost
        if not state.next_read_hits():
            service += read_miss_extra
        self._writer_clock = start + service
        self._record_op(state, "get", arrival, self._writer_clock,
                        service, stalled=False)

    def _do_write(self, state: _TenantState, arrival: float,
                  write_cost: float, flush_cpu: float) -> None:
        self._writing = state
        self._settle(max(self._writer_clock, arrival))
        stalled = self._wait_while_stopped()

        start = max(self._writer_clock, arrival)
        service = write_cost
        self.result.total_writes += 1
        if self.model.slowdown:
            service += SLOWDOWN_SLEEP_SECONDS
            self.result.slowdown_seconds += SLOWDOWN_SLEEP_SECONDS
            self.result.slowdown_writes += 1
        self._writer_clock = start + service
        self._record_op(state, "put", arrival, self._writer_clock,
                        service, stalled)

        self._mem_entries += 1
        if self._mem_entries >= self._entries_per_mem:
            self._mem_entries = 0
            self.result.user_bytes += self._user_per_mem
            self._swap_and_flush(flush_cpu)

    def run(self) -> OpenLoopResult:
        options = self.options
        write_cost = self.cpu.write_seconds(options.key_length,
                                            options.value_length)
        flush_cpu = self.cpu.flush_seconds(self._l0_file_bytes)
        read_hit_cost = self.cpu.read_hit_seconds()
        read_miss_extra = (options.block_size
                           / self.config.disk_read_bandwidth + 150e-6)

        entry_bytes = self._entry_bytes
        states = [_TenantState(spec, entry_bytes) for spec in self.tenants]

        # (arrival time, tiebreak, tenant index) min-heap of next
        # arrivals — one outstanding arrival per tenant stream.
        heap: list = []
        seq = 0
        for index, state in enumerate(states):
            gap = state.rng.expovariate(state.spec.arrival_rate)
            heapq.heappush(heap, (gap, seq, index))
            seq += 1
        while heap:
            arrival, _, index = heapq.heappop(heap)
            if arrival >= self.duration_seconds:
                continue  # stream done: no further arrivals scheduled
            state = states[index]
            gap = state.rng.expovariate(state.spec.arrival_rate)
            heapq.heappush(heap, (arrival + gap, seq, index))
            seq += 1
            if state.next_is_write():
                self._do_write(state, arrival, write_cost, flush_cpu)
            else:
                self._do_read(state, arrival, read_hit_cost,
                              read_miss_extra)

        self._drain()

        firing: list = []
        transitions: list = []
        if self.slo is not None:
            self.slo.evaluate()
            firing = self.slo.firing()
            transitions = list(self.slo.alert_log)
        return OpenLoopResult(
            mode=self.config.mode,
            duration_seconds=self.duration_seconds,
            tenants={state.spec.name: state.stats for state in states},
            system=self.result,
            slo_firing=firing,
            alert_transitions=transitions)


def simulate_open_loop(config: SystemConfig, tenants,
                       duration_seconds: float, slo_specs=()
                       ) -> OpenLoopResult:
    """Run the open-loop multi-tenant simulation and return measurements."""
    return OpenLoopSimulator(config, tenants, duration_seconds,
                             slo_specs=slo_specs).run()
