"""The benchmark's metric and workload catalogue.

``BENCHMARK.json`` at the repository root is this module's
:func:`benchmark_json` written to disk (``python3 benchmarks/e2e/metrics.py``
prints it); the smoke test fails when the two drift apart.

Every metric carries a *kind* that says what sort of number it is:

* ``wall``    — measured with a clock in this Python on this machine;
* ``modeled`` — output of the pipeline / system simulators, exact: it must
  repeat bit for bit between passes, runs and commits unless a change says
  it alters the model;
* ``count``   — a counter the program or the benchmark keeps; exact on the
  single-threaded workloads, may vary by a few on the threaded ones.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

WALL, MODELED, COUNT = "wall", "modeled", "count"

FILL_RANDOM = "fill_random"
READ_RANDOM = "read_random"
YCSB_A_SERVICE = "ycsb_a_service"
READ_WHILE_WRITING = "read_while_writing"
OFFLOAD_MODEL = "offload_model"

#: name -> why the workload exists (one line each; BENCHMARK.json ``why``).
WORKLOADS = {
    FILL_RANDOM: (
        "in-process random puts through scheduler-routed compaction: flush "
        "and merge are most of the wall, the read path none"),
    READ_RANDOM: (
        "in-process random gets, half absent, DB 13x the block cache: the "
        "read path alone, no writer, no compaction, no socket"),
    YCSB_A_SERVICE: (
        "YCSB-A from 2 clients over TCP to a 2-shard group-commit server: "
        "the only workload crossing repro.service; working set fits cache"),
    READ_WHILE_WRITING: (
        "open-loop 300 gets/s beside a closed-loop writer on one LsmDB: "
        "readers wait on the DB mutex that inline maintenance holds"),
    OFFLOAD_MODEL: (
        "no DB: SSTable images through the simulated FPGA device plus the "
        "system simulator; separates modeled results from simulator speed"),
}

#: Workload groups used in the ``on`` column below.
KV = (FILL_RANDOM, READ_RANDOM, YCSB_A_SERVICE, READ_WHILE_WRITING)
WRITERS = (FILL_RANDOM, YCSB_A_SERVICE, READ_WHILE_WRITING)
READERS = (READ_RANDOM, YCSB_A_SERVICE, READ_WHILE_WRITING)
IN_PROCESS = (FILL_RANDOM, READ_RANDOM, READ_WHILE_WRITING)
ALL = KV + (OFFLOAD_MODEL,)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str          # "higher" | "lower"
    kind: str            # WALL | MODELED | COUNT
    on: tuple            # workloads that report it (0 is printed elsewhere)
    note: str
    bound: float | None = None   # end-to-end only


#: Reported by every workload from the untraced pass.  Latency percentiles
#: per request type are per-layer ``e2e.*`` metrics: no request type exists
#: on all five workloads, and they move too much between runs of the same
#: code on this sandbox to carry a bound.
END_TO_END = [
    Metric("ops_per_ref_s", "1/s", "higher", WALL, ALL,
           "completed requests per timed wall second (offload_model: KV pairs "
           "through FcaeDevice.compact per host second of the whole model "
           "run), times the slowdown the run's calibration samples saw: "
           "throughput per second of a machine at reference speed",
           bound=0.25),
    Metric("peak_rss_mb", "MB", "lower", WALL, ALL,
           "ru_maxrss of the workload process (ycsb_a_service: of the server "
           "child)", bound=0.05),
    Metric("setup_s", "s", "lower", WALL, ALL,
           "process start to timed phase (imports, op generation, DB build, "
           "server start and load), over the slowdown its calibration "
           "samples saw: set-up time in seconds of a machine at reference "
           "speed", bound=0.25),
]

#: Reported from the traced pass.  ``e2e.*`` are client-visible numbers that
#: cannot be end-to-end metrics under the driver's contract (every
#: end-to-end metric is reported, non-zero, by every workload); they are
#: measured in the untraced pass that a ``--trace 1`` run makes first.
PER_LAYER = [
    Metric("e2e.ops_per_s", "1/s", "higher", WALL, ALL,
           "completed requests per timed wall second, as the clock saw it "
           "(offload_model: the issue's sim_pairs_per_s)"),
    Metric("e2e.setup_wall_s", "s", "lower", WALL, ALL,
           "set-up time as the clock saw it"),
    Metric("e2e.put_p50_us", "us", "lower", WALL, WRITERS,
           "client-side put latency, retries included"),
    Metric("e2e.put_p99_us", "us", "lower", WALL, WRITERS, "same samples"),
    Metric("e2e.get_p50_us", "us", "lower", WALL, READERS,
           "client-side get latency; read_while_writing: from due time"),
    Metric("e2e.get_p99_us", "us", "lower", WALL, READERS, "same samples"),
    Metric("e2e.failed_ops_share", "share", "lower", COUNT, ALL,
           "failed / attempted, verification included; must be 0"),
    Metric("e2e.write_amp", "ratio", "lower", COUNT, (FILL_RANDOM,),
           "(flush + compaction output bytes) / user bytes"),
    Metric("e2e.space_amp", "ratio", "lower", COUNT, (FILL_RANDOM,),
           "live SSTable bytes / live user bytes"),
    Metric("e2e.model_error_pct", "%", "lower", MODELED, (OFFLOAD_MODEL,),
           "mean abs error of modeled 2-input V=64 MB/s vs the paper's Table V "
           "at L_value 64/512/2048"),

    Metric("service.client_rtt_s", "s", "lower", WALL, (YCSB_A_SERVICE,),
           "sum of client call round trips"),
    Metric("service.dispatch_s", "s", "lower", WALL, (YCSB_A_SERVICE,),
           "sum of KVService.dispatch in the server"),
    Metric("service.wire_share", "share", "lower", WALL, (YCSB_A_SERVICE,),
           "1 - dispatch / rtt: frames, sockets, handler hand-off"),
    Metric("service.protocol_s", "s", "lower", WALL, (YCSB_A_SERVICE,),
           "protocol encode/decode, both sides"),
    Metric("service.busy_rejections", "count", "lower", COUNT,
           (YCSB_A_SERVICE,), "BUSY answers the server gave in the run phase"),
    Metric("service.busy_retry_share", "share", "lower", COUNT,
           (YCSB_A_SERVICE,), "puts that drew at least one BUSY / puts"),
    Metric("service.shard_imbalance", "ratio", "lower", COUNT,
           (YCSB_A_SERVICE,), "max / mean of per-shard writes"),

    Metric("lsm.write_s", "s", "lower", WALL, WRITERS, "LsmDB.write"),
    Metric("lsm.wal.append_s", "s", "lower", WALL, WRITERS,
           "LogWriter.add_record"),
    Metric("lsm.memtable.add_s", "s", "lower", WALL, WRITERS, "MemTable.add"),
    Metric("lsm.wal.sync_s", "s", "lower", WALL, (YCSB_A_SERVICE,),
           "lsm_wal_sync_seconds"),
    Metric("lsm.wal.syncs", "count", "lower", COUNT, (YCSB_A_SERVICE,),
           "lsm_wal_syncs_total"),
    Metric("lsm.group_commit.mean_batch", "count", "higher", COUNT,
           (YCSB_A_SERVICE,), "writes per group commit in the run phase"),
    Metric("lsm.stall_s", "s", "lower", WALL, WRITERS,
           "lsm_write_stall_seconds sum"),
    Metric("lsm.stalls", "count", "lower", COUNT, WRITERS,
           "lsm_write_stall_seconds count"),
    Metric("lsm.flush_s", "s", "lower", WALL, WRITERS, "flush spans"),
    Metric("lsm.flushes", "count", "lower", COUNT, WRITERS, "db.stats"),
    Metric("lsm.flush_bytes", "B", "lower", COUNT, WRITERS, "db.stats"),
    Metric("lsm.compaction_s", "s", "lower", WALL, WRITERS, "compaction spans"),
    Metric("lsm.compactions", "count", "lower", COUNT, WRITERS, "db.stats"),
    Metric("lsm.compaction_in_bytes", "B", "lower", COUNT, WRITERS, "db.stats"),
    Metric("lsm.compaction_out_bytes", "B", "lower", COUNT, WRITERS,
           "db.stats"),
    Metric("lsm.compaction.pick_s", "s", "lower", WALL, WRITERS,
           "compaction.pick spans"),
    Metric("lsm.compaction.install_s", "s", "lower", WALL, WRITERS,
           "compaction.install spans"),
    Metric("lsm.levels_used", "count", "lower", COUNT, WRITERS,
           "non-empty levels at the end"),
    Metric("lsm.maintenance_share", "share", "lower", WALL, WRITERS,
           "(flush_s + compaction_s) / timed wall"),
    Metric("lsm.sstable.build_s", "s", "lower", WALL, WRITERS,
           "TableBuilder.add + finish"),
    Metric("lsm.get_s", "s", "lower", WALL, READERS, "LsmDB.get"),
    Metric("lsm.memtable.get_s", "s", "lower", WALL, READERS, "MemTable.get"),
    Metric("lsm.table.get_s", "s", "lower", WALL, READERS, "TableReader.get"),
    Metric("lsm.table.probes_per_get", "count", "lower", COUNT, READERS,
           "TableReader.get calls / LsmDB.get calls"),
    Metric("lsm.bloom.checks", "count", "lower", COUNT, READERS,
           "TableReader.key_may_match calls"),
    Metric("lsm.bloom.reject_share", "share", "higher", COUNT, READERS,
           "bloom checks that answered no"),
    Metric("lsm.table.opens", "count", "lower", COUNT, KV,
           "TableReader constructions in the timed phase"),
    Metric("lsm.table.open_s", "s", "lower", WALL, KV, "TableReader.__init__"),
    Metric("lsm.table.resident_mb", "MB", "lower", WALL, IN_PROCESS,
           "RSS growth over the timed phase"),
    Metric("lsm.cache.hit_share", "share", "higher", COUNT, READERS,
           "block-cache hits / lookups"),
    Metric("lsm.get_blocked_s", "s", "lower", WALL,
           (READ_RANDOM, READ_WHILE_WRITING),
           "sum of get service times longer than 20 ms"),

    Metric("env.write_bytes", "B", "lower", COUNT, KV, "counting Env"),
    Metric("env.write_calls", "count", "lower", COUNT, KV, "counting Env"),
    Metric("env.syncs", "count", "lower", COUNT, KV, "counting Env"),
    Metric("env.read_file_calls", "count", "lower", COUNT, KV, "counting Env"),
    Metric("env.read_bytes", "B", "lower", COUNT, KV, "counting Env"),

    Metric("host.backend.cpu_tasks", "count", "lower", COUNT, (FILL_RANDOM,),
           "scheduler.stats.backend_tasks"),
    Metric("host.backend.batch_tasks", "count", "lower", COUNT, (FILL_RANDOM,),
           "scheduler.stats.backend_tasks"),
    Metric("host.backend.fpga-sim_tasks", "count", "lower", COUNT,
           (FILL_RANDOM,), "scheduler.stats.backend_tasks"),
    Metric("host.backend.cpu_s", "s", "lower", WALL, (FILL_RANDOM,),
           "scheduler.stats.backend_seconds"),
    Metric("host.backend.batch_s", "s", "lower", WALL, (FILL_RANDOM,),
           "scheduler.stats.backend_seconds"),
    Metric("host.backend.fpga-sim_s", "s", "lower", WALL, (FILL_RANDOM,),
           "scheduler.stats.backend_seconds"),
    Metric("host.backend.mb_per_s", "MB/s", "higher", WALL, (FILL_RANDOM,),
           "routed input bytes / backend seconds"),
    Metric("host.fallbacks", "count", "lower", COUNT, (FILL_RANDOM,),
           "scheduler.stats.fpga_fallbacks"),
    Metric("host.device_compact_s", "s", "lower", WALL, (OFFLOAD_MODEL,),
           "FcaeDevice.compact"),
    Metric("host.marshal_s", "s", "lower", WALL, (OFFLOAD_MODEL,),
           "marshal_inputs + write_outputs"),

    Metric("compress.snappy.compress_s", "s", "lower", WALL, WRITERS,
           "snappy.compress"),
    Metric("compress.snappy.decompress_s", "s", "lower", WALL, KV,
           "snappy.decompress"),
    Metric("compress.ratio", "ratio", "lower", COUNT, WRITERS,
           "snappy output bytes / input bytes"),
    Metric("util.crc32c_s", "s", "lower", WALL, KV, "crc32c + crc32c_many"),

    Metric("fpga.engine_run_s", "s", "lower", WALL, (OFFLOAD_MODEL,),
           "CompactionEngine.run"),
    Metric("fpga.modeled_mb_per_s.n2_L64", "MB/s", "higher", MODELED,
           (OFFLOAD_MODEL,), "2-input V=64, L_value 64"),
    Metric("fpga.modeled_mb_per_s.n2_L512", "MB/s", "higher", MODELED,
           (OFFLOAD_MODEL,), "2-input V=64, L_value 512"),
    Metric("fpga.modeled_mb_per_s.n2_L2048", "MB/s", "higher", MODELED,
           (OFFLOAD_MODEL,), "2-input V=64, L_value 2048"),
    Metric("fpga.modeled_mb_per_s.n9_L512", "MB/s", "higher", MODELED,
           (OFFLOAD_MODEL,), "9-input, L_value 512"),
    Metric("fpga.kernel_cycles", "cycles", "lower", MODELED, (OFFLOAD_MODEL,),
           "sum over device jobs"),
    Metric("fpga.pcie_share", "share", "lower", MODELED, (OFFLOAD_MODEL,),
           "modeled DMA seconds / modeled offload seconds, all jobs"),
    Metric("fpga.util.decoder", "share", "higher", MODELED, (OFFLOAD_MODEL,),
           "TimingReport.utilization(), n9_L512 job"),
    Metric("fpga.util.comparer", "share", "higher", MODELED, (OFFLOAD_MODEL,),
           "same job"),
    Metric("fpga.util.encoder", "share", "higher", MODELED, (OFFLOAD_MODEL,),
           "same job"),
    Metric("sim.system_s", "s", "lower", WALL, (OFFLOAD_MODEL,),
           "host time in simulate_fillrandom"),
    Metric("sim.modeled_write_speedup", "ratio", "higher", MODELED,
           (OFFLOAD_MODEL,), "FCAE / LevelDB write throughput at 8 GB"),
    Metric("sim.modeled_write_mb_per_s", "MB/s", "higher", MODELED,
           (OFFLOAD_MODEL,), "FCAE write throughput at 8 GB"),

    Metric("obs.trace_overhead_share", "share", "lower", WALL, ALL,
           "traced / untraced timed wall, each in reference seconds, - 1"),
    Metric("bench.layer_sum_share", "share", "higher", WALL, ALL,
           "span self time / (traced wall x driver threads)"),
    Metric("bench.calib_ms", "ms", "lower", WALL, ALL,
           "mean time of the calibration loop over the traced timed phase"),
    Metric("bench.calib_samples", "count", "higher", WALL, ALL,
           "calibration samples behind it (one burst of 3 per 0.1 s)"),
    Metric("bench.generator_lag_ms", "ms", "lower", WALL, (READ_WHILE_WRITING,),
           "median lateness of the open-loop reader when it was idle"),
    Metric("bench.get_samples", "count", "higher", COUNT, READERS,
           "gets behind the get percentiles"),
    Metric("bench.put_samples", "count", "higher", COUNT, WRITERS,
           "puts behind the put percentiles"),
]

RUN_SECONDS = 10


def benchmark_json() -> dict:
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": name, "why": why}
                      for name, why in WORKLOADS.items()],
        "end_to_end": [{"name": m.name, "unit": m.unit, "better": m.better,
                        "bound": m.bound} for m in END_TO_END],
        "per_layer": [{"name": m.name, "unit": m.unit, "better": m.better}
                      for m in PER_LAYER],
    }


if __name__ == "__main__":
    print(json.dumps(benchmark_json(), indent=2))
