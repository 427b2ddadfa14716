"""``python -m repro.bench`` / ``fcae-bench`` — regenerate the paper's
evaluation.

Usage::

    fcae-bench table5            # one experiment
    fcae-bench fig15a            # one sub-figure
    fcae-bench all               # everything, prints every table
    fcae-bench all --markdown results.md
    fcae-bench fig14 --scale 0.1 # smaller workloads for a quick pass
    fcae-bench fig12 --metrics-out m.prom --trace-out t.jsonl
    fcae-bench fig12 --chrome-trace t.trace.json --profile p.json
    fcae-bench fig12 --bench-json BENCH_fig12.json

``--metrics-out`` installs a process-wide metrics registry for the run
and writes a Prometheus text-format dump; ``--trace-out`` streams every
flush/compaction span (with its modeled phases) as JSONL.

``--chrome-trace`` makes the tracer record the pipeline's per-module
intervals and per-input FIFO occupancy counters as well, and writes the
run's spans as Chrome trace-event JSON — wall spans on one track, the
modeled clock on one track per module or phase; open it in Perfetto or
``chrome://tracing``.  ``--profile`` writes the critical-path
bottleneck report from the metrics registry as JSON (it also prints a
summary).  ``--bench-json`` writes the regenerated tables as JSON for
``tools/check_regression.py``.

In ``all`` mode each experiment gets a **fresh** metrics registry and
modeled timeline, so one experiment's families cannot bleed into the
next; the ``--metrics-out`` / ``--chrome-trace`` / ``--profile`` paths
are then suffixed per experiment (``m.prom`` → ``m.fig12.prom``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

from repro.bench import (
    ablation,
    fsync,
    hotpath,
    slo,
    write_pause,
    fig9,
    fig10,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    table5,
    table6,
    table7,
    table8,
)
from repro.bench.common import ExperimentResult, wall_percentiles
from repro.obs import SinkError, add_sink_flags, flag_sinks
from repro.obs.profile import profile_from_registry, render_profile

EXPERIMENTS = {
    "table5": table5.run,
    "fig9": fig9.run,
    "fig10": fig10.run,
    "table6": table6.run,
    "fig11": fig11.run,
    "table7": table7.run,
    "fig12": fig12.run,
    "fig13": fig13.run,
    "fig14": fig14.run,
    "table8": table8.run,
    "fig15": fig15.run,
    "fig15a": fig15.run_a,
    "fig15b": fig15.run_b,
    "fig15c": fig15.run_c,
    "fig15d": fig15.run_d,
    "fig16": fig16.run,
    "ablation": ablation.run,
    "fsync": fsync.run,
    "hotpath": hotpath.run,
    "slo": slo.run,
    "write_pause": write_pause.run,
}

#: `all` skips the fig15 summary (its four parts run individually).
ALL_ORDER = ("table5", "fig9", "fig10", "table6", "fig11", "table7",
             "fig12", "fig13", "fig14", "table8", "fig15a", "fig15b",
             "fig15c", "fig15d", "fig16", "ablation", "write_pause", "slo",
             "fsync", "hotpath")

#: BENCH_*.json schema version understood by tools/check_regression.py.
BENCH_SCHEMA = 1


def suffixed_path(path: str, suffix: str | None) -> str:
    """``m.prom`` + ``fig12`` → ``m.fig12.prom`` (no-op without suffix)."""
    if not suffix:
        return path
    root, ext = os.path.splitext(path)
    return f"{root}.{suffix}{ext}" if ext else f"{path}.{suffix}"


def _write_sinks(args, sinks, suffix: str | None, registry) -> int:
    """Flush one experiment's metrics/trace/profile outputs; returns a
    non-zero status on I/O failure."""
    status = 0
    if args.metrics_out:
        status = sinks.write_metrics(
            registry, suffixed_path(args.metrics_out, suffix))
    if args.chrome_trace:
        path = suffixed_path(args.chrome_trace, suffix)
        try:
            sinks.tracer.write_chrome_trace(path)
            print(f"chrome trace written to {path} "
                  f"({len(sinks.tracer.spans)} events)")
        except OSError as error:
            print(f"error: cannot write {path}: {error}", file=sys.stderr)
            status = 2
    if registry is not None and args.profile:
        path = suffixed_path(args.profile, suffix)
        profile = profile_from_registry(registry)
        try:
            with open(path, "w") as handle:
                json.dump(profile, handle, indent=2)
                handle.write("\n")
            print(render_profile(profile))
            print(f"profile written to {path}")
        except OSError as error:
            print(f"error: cannot write {path}: {error}", file=sys.stderr)
            status = 2
    return status


def _regenerate(name: str, args, sinks, suffix: str | None,
                bench_doc: dict | None) -> tuple[ExperimentResult, int]:
    """Run one experiment ``--warmup`` + ``--repeat`` times, print it,
    record it in ``bench_doc`` and flush its sinks; returns the result
    and an exit status."""
    want_registry = bool(args.chrome_trace or args.profile or args.top)
    samples: list[float] = []
    result = registry = None
    for run_no in range(args.warmup + args.repeat):
        # A fresh registry and modeled timeline per run: in `all` mode
        # nothing bleeds between experiments, across repeats each timed
        # sample starts clean; sinks flush the final run only.
        if args.chrome_trace:
            sinks.tracer.clear()
        with sinks.installed(want_registry) as registry:
            started = time.perf_counter()
            result = EXPERIMENTS[name](scale=args.scale)
            if run_no >= args.warmup:
                samples.append(time.perf_counter() - started)
    p50, p95 = wall_percentiles(samples)
    print(result.format())
    if args.top and registry is not None:
        from repro.obs.dashboard import render_dashboard
        print(render_dashboard(registry))
    if len(samples) > 1:
        print(f"[{name} regenerated: wall p50 {p50:.2f}s / "
              f"p95 {p95:.2f}s over {len(samples)} runs"
              f" ({args.warmup} warmup)]")
    else:
        print(f"[{name} regenerated in {p50:.1f}s]")
    print()
    if bench_doc is not None:
        bench_doc["experiments"][name] = {
            "title": result.title,
            "columns": [str(c) for c in result.columns],
            "rows": result.rows,
            "wall_seconds": {"p50": round(p50, 6),
                             "p95": round(p95, 6),
                             "repeat": args.repeat,
                             "warmup": args.warmup},
        }
    return result, _write_sinks(args, sinks, suffix, registry)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="fcae-bench",
        description="Regenerate the paper's tables and figures.")
    parser.add_argument("experiment",
                        choices=sorted(EXPERIMENTS) + ["all"],
                        help="which table/figure to regenerate")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (default 1.0)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="timed runs per experiment; wall time is "
                             "reported as p50/p95 over them (default 1)")
    parser.add_argument("--warmup", type=int, default=0,
                        help="untimed runs before the timed ones "
                             "(default 0)")
    parser.add_argument("--markdown", metavar="PATH",
                        help="also write results as markdown")
    add_sink_flags(parser)
    parser.add_argument("--chrome-trace", metavar="PATH",
                        help="record per-module pipeline intervals and "
                             "write the trace as Chrome trace-event JSON "
                             "(Perfetto-loadable)")
    parser.add_argument("--profile", metavar="PATH",
                        help="write the critical-path bottleneck report "
                             "as JSON")
    parser.add_argument("--bench-json", metavar="PATH",
                        help="write regenerated tables as machine-readable "
                             "JSON for tools/check_regression.py")
    parser.add_argument("--top", action="store_true",
                        help="after each experiment, render one headless "
                             "dashboard frame from its metrics registry")
    args = parser.parse_args(argv)
    if args.repeat < 1 or args.warmup < 0:
        parser.error("--repeat must be >= 1 and --warmup >= 0")

    multi = args.experiment == "all"
    experiment_names = ALL_ORDER if multi else (args.experiment,)
    bench_doc = None
    if args.bench_json:
        bench_doc = {"schema": BENCH_SCHEMA, "tool": "fcae-bench",
                     "scale": args.scale, "experiments": {}}

    results: list[ExperimentResult] = []
    status = 0
    try:
        with flag_sinks(args, out=sys.stdout,
                        tracks=bool(args.chrome_trace)) as sinks:
            for name in experiment_names:
                result, wrote = _regenerate(
                    name, args, sinks, name if multi else None, bench_doc)
                results.append(result)
                status |= wrote
    except SinkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if bench_doc is not None:
        try:
            with open(args.bench_json, "w") as handle:
                json.dump(bench_doc, handle, indent=2)
                handle.write("\n")
            print(f"bench results written to {args.bench_json}")
        except OSError as error:
            print(f"error: cannot write {args.bench_json}: {error}",
                  file=sys.stderr)
            status = 2
    if status:
        return status
    if args.markdown:
        with open(args.markdown, "w") as handle:
            for result in results:
                handle.write(result.to_markdown())
                handle.write("\n\n")
        print(f"markdown written to {args.markdown}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
