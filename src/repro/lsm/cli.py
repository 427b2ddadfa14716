"""``python -m repro.lsm`` — a small command-line client for the store.

Operates on a real directory (``OsEnv``), so state persists between
invocations::

    python -m repro.lsm put   /tmp/db greeting "hello world"
    python -m repro.lsm get   /tmp/db greeting
    python -m repro.lsm scan  /tmp/db --limit 10
    python -m repro.lsm fill  /tmp/db --entries 10000 --value-size 128
    python -m repro.lsm compact /tmp/db --fpga 9
    python -m repro.lsm stats /tmp/db
    python -m repro.lsm delete /tmp/db greeting

``--fpga N`` routes merge compactions through an N-input FCAE device
instead of the CPU path — functionally identical files, offload
statistics printed.

Every command also takes ``--metrics-out PATH`` (Prometheus text-format
dump of the run's metrics; fails if PATH exists unless ``--overwrite``),
``--trace-out PATH`` (JSONL span trace of flushes/compactions and their
offload phases; appends) and ``--events-out PATH`` (flight-recorder
event journal as JSONL; appends).  ``fill --watch SECS`` prints windowed
put-latency percentiles while the fill runs, ``levelstats`` prints the
per-level amplification table, and ``top`` renders the live terminal
dashboard (``--once`` prints a single headless frame for CI).
"""

from __future__ import annotations

import argparse
import sys

from repro.errors import NotFoundError, ReproError
from repro.lsm.db import LsmDB
from repro.lsm.env import OsEnv
from repro.lsm.options import Options
from repro.obs import SinkError, add_sink_flags, flag_sinks


def _cli_options(args) -> Options:
    # The CLI operates on a persistent directory, so keep the flight
    # recorder on: EVENTS.jsonl in the DB dir is the LevelDB LOG analog,
    # appending one segment per invocation.
    return Options(
        event_journal=True,
        latency_window_seconds=float(getattr(args, "watch", 0) or 0))


def _open_db(args) -> LsmDB:
    scheduler = None
    options = _cli_options(args)
    if args.fpga:
        from repro.fpga.resources import best_feasible_config
        from repro.host.device import FcaeDevice
        from repro.host.scheduler import CompactionScheduler

        config = best_feasible_config(args.fpga)
        device = FcaeDevice(config, options)
        scheduler = CompactionScheduler(device, options)
    return LsmDB(args.db, options, env=OsEnv(),
                 compaction_executor=scheduler)


def cmd_put(args) -> int:
    with _open_db(args) as db:
        db.put(args.key.encode(), args.value.encode())
    print("OK")
    return 0


def cmd_get(args) -> int:
    with _open_db(args) as db:
        try:
            value = db.get(args.key.encode())
        except NotFoundError:
            print(f"(not found: {args.key})", file=sys.stderr)
            return 1
    sys.stdout.write(value.decode(errors="replace") + "\n")
    return 0


def cmd_delete(args) -> int:
    with _open_db(args) as db:
        db.delete(args.key.encode())
    print("OK")
    return 0


def cmd_scan(args) -> int:
    with _open_db(args) as db:
        start = args.start.encode() if args.start else None
        end = args.end.encode() if args.end else None
        count = 0
        for key, value in db.scan(start=start, end=end):
            print(f"{key.decode(errors='replace')}\t"
                  f"{value.decode(errors='replace')}")
            count += 1
            if args.limit and count >= args.limit:
                break
    print(f"({count} entries)", file=sys.stderr)
    return 0


def cmd_fill(args) -> int:
    import time as _time

    from repro.workloads.dbbench import DbBench, FillMode

    with _open_db(args) as db:
        bench = DbBench(args.entries, value_length=args.value_size)
        mode = FillMode.SEQUENTIAL if args.sequential else FillMode.RANDOM
        if args.watch:
            written = 0
            next_report = _time.monotonic() + args.watch
            for count, (key, value) in enumerate(bench.fill(mode), 1):
                db.put(key, value)
                written += len(key) + len(value)
                if _time.monotonic() >= next_report:
                    _print_watch_line(db, count)
                    next_report = _time.monotonic() + args.watch
        else:
            written = bench.run_fill(db, mode)
        db.flush()
        print(f"wrote {args.entries} entries ({written / 1e6:.1f} MB), "
              f"levels: {db.level_file_counts()}")
        _print_offload_stats(db)
    return 0


def _print_watch_line(db: LsmDB, count: int) -> None:
    """One ``--watch`` progress line: windowed put-latency percentiles."""
    window = db.latency_window("put")
    if window is None:
        return
    quantiles = " ".join(
        f"{label}={window.percentile(q) * 1e6:.0f}us"
        for q, label in ((0.5, "p50"), (0.99, "p99"), (0.999, "p999")))
    print(f"  {count} puts  {quantiles}  levels={db.level_file_counts()}",
          file=sys.stderr)


def cmd_compact(args) -> int:
    with _open_db(args) as db:
        db.compact_range()
        print(f"levels after compaction: {db.level_file_counts()}")
        _print_offload_stats(db)
    return 0


def cmd_stats(args) -> int:
    with _open_db(args) as db:
        print(f"path: {args.db}")
        print(db.property("repro.stats"))
    return 0


def cmd_levelstats(args) -> int:
    with _open_db(args) as db:
        print(f"path: {args.db}")
        print(db.property("repro.levelstats"))
    return 0


def cmd_top(args) -> int:
    from repro.obs.dashboard import run_dashboard

    with _open_db(args) as db:
        iterations = 1 if args.once else (args.iterations or None)
        try:
            run_dashboard(db.metrics, db=db, interval=args.interval,
                          iterations=iterations)
        except KeyboardInterrupt:
            pass
    return 0


def _print_offload_stats(db: LsmDB) -> None:
    # Only the --fpga scheduler keeps stats; the CPU executor has none.
    stats = getattr(db.compaction_executor, "stats", None)
    if stats is None:
        return
    print(f"offload: {stats.fpga_tasks} on FPGA "
          f"({stats.fpga_kernel_seconds * 1e3:.1f} ms kernel, "
          f"{stats.fpga_pcie_seconds * 1e3:.2f} ms PCIe), "
          f"{stats.software_tasks} in software")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.lsm",
        description="Command-line client for the FCAE LSM store.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, **arguments):
        cmd = sub.add_parser(name)
        cmd.add_argument("db", help="database directory")
        for arg_name, kwargs in arguments.items():
            cmd.add_argument(arg_name.replace("_", "-")
                             if arg_name.startswith("--") else arg_name,
                             **kwargs)
        cmd.add_argument("--fpga", type=int, default=0, metavar="N",
                         help="offload compactions to an N-input engine")
        add_sink_flags(cmd)
        cmd.set_defaults(func=func)
        return cmd

    add("put", cmd_put, key={}, value={})
    add("get", cmd_get, key={})
    add("delete", cmd_delete, key={})
    scan = add("scan", cmd_scan)
    scan.add_argument("--start")
    scan.add_argument("--end")
    scan.add_argument("--limit", type=int, default=0)
    fill = add("fill", cmd_fill)
    fill.add_argument("--entries", type=int, default=10_000)
    fill.add_argument("--value-size", type=int, default=128)
    fill.add_argument("--sequential", action="store_true")
    fill.add_argument("--watch", type=float, default=0.0, metavar="SECS",
                      help="report windowed put-latency percentiles "
                           "every SECS seconds during the fill")
    add("compact", cmd_compact)
    add("stats", cmd_stats)
    add("levelstats", cmd_levelstats)
    top = add("top", cmd_top)
    top.add_argument("--once", action="store_true",
                     help="render one frame and exit (headless, for CI)")
    top.add_argument("--interval", type=float, default=2.0, metavar="SECS",
                     help="refresh interval (default 2s)")
    top.add_argument("--iterations", type=int, default=0, metavar="N",
                     help="stop after N refreshes (0 = until ^C)")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        with flag_sinks(args, out=sys.stderr) as sinks:
            with sinks.installed() as registry:
                try:
                    status = args.func(args)
                except ReproError as error:
                    print(f"error: {error}", file=sys.stderr)
                    status = 2
            return sinks.write_metrics(registry) or status
    except SinkError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
