#!/usr/bin/env python3
"""cProfile one hot-path microbenchmark and print the hottest functions.

The hot-path suite (``repro.bench.hotpath``) tells you *that* a row got
slower; this tool tells you *where*::

    PYTHONPATH=src python tools/profile_hotpath.py cpu_merge_4way
    PYTHONPATH=src python tools/profile_hotpath.py block_decode \\
        --sort tottime --limit 40 --scale 0.5
    PYTHONPATH=src python tools/profile_hotpath.py --list

It builds the same workload the benchmark row measures (same sizes,
same seeds, honoring ``--scale``), runs the row's inner function once
under ``cProfile``, and prints ``pstats`` output.  ``--out`` addition-
ally dumps the raw stats for ``snakeviz``/``pstats`` post-processing.
"""

from __future__ import annotations

import argparse
import cProfile
import pstats
import sys


def build_rows(scale: float) -> dict:
    """Name -> zero-arg callable for every hot-path bench row.

    Reuses :func:`repro.bench.hotpath.run`'s own workload builders by
    monkey-patching the sampler: instead of timing each row, capture its
    callable.  This guarantees the profiled workload is exactly the
    benchmarked one.
    """
    from repro.bench import hotpath

    rows: dict[str, object] = {}
    original = hotpath.sample_wall

    def capture(fn, repeat, warmup):
        rows[_pending.pop()] = fn
        return 1e-6, 1e-6  # placeholder timing; result is discarded

    _pending: list[str] = []
    original_add = hotpath._add

    def add_capture(result, name, fn, nbytes, repeat, warmup):
        _pending.append(name)
        original_add(result, name, fn, nbytes, repeat, warmup)

    hotpath.sample_wall = capture
    hotpath._add = add_capture
    try:
        hotpath.run(scale=scale)
    finally:
        hotpath.sample_wall = original
        hotpath._add = original_add
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("bench", nargs="?",
                        help="hot-path row to profile (see --list)")
    parser.add_argument("--list", action="store_true",
                        help="print available bench names and exit")
    parser.add_argument("--sort", default="cumulative",
                        choices=["cumulative", "tottime", "ncalls"],
                        help="pstats sort key (default cumulative)")
    parser.add_argument("--limit", type=int, default=25,
                        help="rows of pstats output (default 25)")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="workload scale factor (default 1.0)")
    parser.add_argument("--out", help="also dump raw stats to this file")
    args = parser.parse_args(argv)

    rows = build_rows(args.scale)
    if args.list or not args.bench:
        print("hot-path benches:")
        for name in rows:
            print(f"  {name}")
        return 0 if args.list else 2
    fn = rows.get(args.bench)
    if fn is None:
        print(f"ERROR: unknown bench {args.bench!r}; "
              f"choose from {', '.join(rows)}", file=sys.stderr)
        return 2

    fn()  # warm caches/allocations outside the profile
    profiler = cProfile.Profile()
    profiler.enable()
    fn()
    profiler.disable()

    stats = pstats.Stats(profiler)
    stats.sort_stats(args.sort)
    print(f"== {args.bench} (scale={args.scale}, sort={args.sort}) ==")
    stats.print_stats(args.limit)
    if args.out:
        stats.dump_stats(args.out)
        print(f"raw stats written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
