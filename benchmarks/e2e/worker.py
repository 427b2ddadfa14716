"""One pass of one workload in this process; ``run.py`` starts it fresh for
every pass so that peak RSS, caches and the installed wrappers belong to
that pass alone.  Prints one JSON object as its last line."""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(HERE, "..", "..", "src"))

OUT = os.path.join(HERE, "out")

#: Per-layer seconds metric -> the span whose wall time it is.
SPAN_SECONDS = {
    "service.client_rtt_s": "service.client_rtt",
    "service.dispatch_s": "service.dispatch",
    "service.protocol_s": "service.protocol",
    "lsm.write_s": "lsm.write",
    "lsm.wal.append_s": "lsm.wal.append",
    "lsm.memtable.add_s": "lsm.memtable.add",
    "lsm.flush_s": "lsm.flush",
    "lsm.compaction_s": "lsm.compaction",
    "lsm.compaction.pick_s": "lsm.compaction.pick",
    "lsm.compaction.install_s": "lsm.compaction.install",
    "lsm.sstable.build_s": "lsm.sstable.build",
    "lsm.get_s": "lsm.get",
    "lsm.memtable.get_s": "lsm.memtable.get",
    "lsm.table.get_s": "lsm.table.get",
    "lsm.table.open_s": "lsm.table.open",
    "host.device_compact_s": "host.device_compact",
    "host.marshal_s": "host.marshal",
    "compress.snappy.compress_s": "compress.snappy.compress",
    "compress.snappy.decompress_s": "compress.snappy.decompress",
    "util.crc32c_s": "util.crc32c",
    "fpga.engine_run_s": "fpga.engine_run",
    "sim.system_s": "sim.system",
}


def _merge_totals(*tables: dict) -> dict:
    merged: dict = {}
    for table in tables:
        for name, (count, wall, self_s) in table.items():
            row = merged.setdefault(name, [0, 0.0, 0.0])
            row[0] += count
            row[1] += wall
            row[2] += self_s
    return merged


def _layer_values(outcome, totals: dict, counts: dict) -> dict:
    """Per-layer values the spans and tallies of a traced pass give;
    ``totals``/``counts`` cover every process of the workload."""
    def count(span: str) -> int:
        return totals.get(span, (0, 0.0, 0.0))[0]

    values = {metric: totals.get(span, (0, 0.0, 0.0))[1]
              for metric, span in SPAN_SECONDS.items()}
    rtt = values["service.client_rtt_s"]
    if rtt:
        values["service.wire_share"] = 1 - values["service.dispatch_s"] / rtt
    values["lsm.maintenance_share"] = (
        (values["lsm.flush_s"] + values["lsm.compaction_s"]) / outcome.wall)
    gets = count("lsm.get")
    if gets:
        values["lsm.table.probes_per_get"] = count("lsm.table.get") / gets
    checks = counts.get("lsm.bloom.checks", 0)
    values["lsm.bloom.checks"] = checks
    if checks:
        values["lsm.bloom.reject_share"] = (
            counts.get("lsm.bloom.rejects", 0) / checks)
    values["lsm.table.opens"] = count("lsm.table.open")
    if counts.get("compress.in_bytes"):
        values["compress.ratio"] = (counts["compress.out_bytes"]
                                    / counts["compress.in_bytes"])
    return values


def run_pass(name: str, seed: int, seconds: float, traced: bool) -> dict:
    # Set-up starts here, so that importing the program is part of it: work
    # a later change moves to import time must still show in setup_s.
    start = time.perf_counter()
    from harness import (
        CountingEnv,
        peak_rss_mb,
        percentiles,
    )
    from repro.lsm.env import OsEnv
    from workloads import WORKLOADS, Context

    recorder = None
    env = OsEnv()
    if traced:
        from layers import BridgeTracer, Recorder, install_wrappers
        from repro import obs
        recorder = Recorder()
        install_wrappers(recorder)
        obs.install(tracer=BridgeTracer(recorder))
        env = CountingEnv(recorder)

    workdir = os.path.join(OUT, "tmp", f"{name}-{os.getpid()}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    ctx = Context(seed=seed, seconds=seconds, workdir=workdir, env=env,
                  recorder=recorder)
    workload = WORKLOADS[name](ctx)
    result: dict = {"workload": name, "traced": traced}
    try:
        ctx.setup_calibrator.sample()
        workload.setup()
        setup_wall = time.perf_counter() - start

        layers: dict = {}
        if traced:
            recorder.reset()
            env_before = env.counters()
        outcome = workload.run()
        if traced:
            totals = recorder.totals()
            counts = dict(recorder.counts())
            spans = recorder.span_dicts()
            layers.update({key: after - env_before[key]
                           for key, after in env.counters().items()})
        workload.verify()
    finally:
        workload.close()
        shutil.rmtree(workdir, ignore_errors=True)

    tally = ctx.tally
    for text, held in outcome.invariants:
        tally.check(held, f"invariant violated: {text}")
    result.update(
        setup_s=setup_wall / ctx.setup_calibrator.slowdown(),
        wall_s=outcome.wall, lanes=outcome.lanes, ops=outcome.ops,
        slowdown=ctx.calibrator.slowdown(),
        ops_per_ref_s=(outcome.ops / outcome.wall
                       * ctx.calibrator.slowdown()),
        peak_rss_mb=(outcome.peak_rss_mb if outcome.peak_rss_mb is not None
                     else peak_rss_mb()),
        attempted=tally.attempted, failed=tally.failed,
        failures=tally.first_failures,
        invariants=[text for text, _held in outcome.invariants])
    for op in ("put", "get"):
        p50, p99, samples = percentiles(getattr(outcome, op))
        layers[f"e2e.{op}_p50_us"] = p50
        layers[f"e2e.{op}_p99_us"] = p99
        layers[f"bench.{op}_samples"] = samples
    layers["e2e.ops_per_s"] = outcome.ops / outcome.wall
    layers["e2e.setup_wall_s"] = setup_wall
    layers["e2e.failed_ops_share"] = tally.failed / tally.attempted
    layers["bench.calib_ms"] = ctx.calibrator.mean_seconds() * 1e3
    layers["bench.calib_samples"] = len(ctx.calibrator.samples)
    layers.update(outcome.facts)

    if traced:
        from layers import budget_rows
        server = outcome.server or {"totals": {}, "counts": {}, "spans": []}
        layers.update(_layer_values(
            outcome, _merge_totals(totals, server["totals"]),
            Counter(counts) + Counter(server["counts"])))
        rows = budget_rows(totals, outcome.wall, outcome.lanes)
        layers["bench.layer_sum_share"] = 1 - rows[-1][4]
        result["budget"] = rows
        if server["totals"]:
            result["server_budget"] = budget_rows(
                server["totals"], outcome.wall, outcome.lanes)
        # Each process numbered its spans from 1: shift the server's.
        shift = max((span["id"] for span in spans), default=0)
        for span in server["spans"]:
            span["id"] += shift
            if span["parent"] is not None:
                span["parent"] += shift
        result["trace_files"] = _write_traces(name, spans + server["spans"])
    result["layers"] = layers
    return result


def _write_traces(name: str, spans: list[dict]) -> list[str]:
    from repro.obs import spans_to_chrome_trace

    os.makedirs(OUT, exist_ok=True)
    jsonl = os.path.join(OUT, f"trace-{name}.jsonl")
    chrome = os.path.join(OUT, f"trace-{name}.chrome.json")
    with open(jsonl, "w") as handle:
        for span in spans:
            handle.write(json.dumps(span) + "\n")
    with open(chrome, "w") as handle:
        json.dump(spans_to_chrome_trace(spans), handle)
    return [os.path.relpath(path, os.path.join(HERE, "..", ".."))
            for path in (jsonl, chrome)]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--traced", type=int, required=True)
    args = parser.parse_args()
    result = run_pass(args.workload, args.seed, args.seconds,
                      bool(args.traced))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
