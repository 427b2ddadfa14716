#!/usr/bin/env python3
"""Split ``fill_random``'s ``crc32c`` time by caller.

The benchmark's budget has one ``util.crc32c`` row; this tool says whose
checksums it holds (WAL records, block trailers, merge-input
verification, table opens) and how long the writer waited on the codec
helper meanwhile::

    python3 tools/crc_by_caller.py --seed 1

It runs the untraced ``fill_random`` pass of ``benchmarks/e2e`` in this
process, with every module's ``crc32c`` rebound (as ``layers.py`` does)
to a wrapper that charges calls and seconds to (caller, caller's
caller), and counts only the timed phase.  The wrapper's own cost is
inside the wall it reports.
"""

from __future__ import annotations

import argparse
import collections
import importlib
import os
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"),
                os.path.join(ROOT, "benchmarks", "e2e")]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    import worker
    import workloads
    from repro.compress.encoder import block_encoder
    from repro.lsm import db  # noqa: F401  (binds every crc32c caller)

    original = importlib.import_module("repro.util.crc32c").crc32c
    calls: dict = collections.defaultdict(lambda: [0, 0.0])

    def counted(data, value=0):
        start = time.perf_counter()
        result = original(data, value)
        elapsed = time.perf_counter() - start
        frame = sys._getframe(1)
        entry = calls[frame.f_code.co_name, frame.f_back.f_code.co_name]
        entry[0] += 1
        entry[1] += elapsed
        return result

    for module in list(sys.modules.values()):
        if module is not sys.modules[__name__]:
            for attr, value in list(getattr(module, "__dict__", {}).items()):
                if value is original:
                    setattr(module, attr, counted)

    timed = {}
    run = workloads.FillRandom.run

    def timed_run(self):
        calls.clear()
        waited = block_encoder.stats()["wait_s"]
        outcome = run(self)
        timed.update(calls, waited=block_encoder.stats()["wait_s"] - waited)
        return outcome

    workloads.FillRandom.run = timed_run
    result = worker.run_pass("fill_random", args.seed, args.seconds, False)
    wall = result["wall_s"]
    helper_wait = timed.pop("waited")
    print(f"fill_random seed {args.seed}: timed wall {wall:.2f} s, "
          f"{result['ops']} ops, {result['failed']} failed")
    for (caller, outer), (n, seconds) in sorted(
            timed.items(), key=lambda item: -item[1][1]):
        print(f"  {caller:<14} <- {outer:<16} {n:>7} calls {seconds:6.3f} s"
              f" {seconds / n * 1e6:6.1f} us {seconds / wall:6.1%}")
    print(f"  waiting on the codec helper {helper_wait:.3f} s "
          f"{helper_wait / wall:.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
