#!/usr/bin/env python3
"""Split a workload's codec work between the writer and the codec helper.

The benchmark reports one ``ops_per_ref_s``; this tool says how the
writer's table builds and block compression were shared with the helper
process, and what the writer still pays::

    python3 tools/helper_balance.py --workload fill_random --seed 1

It runs the untraced pass of one ``benchmarks/e2e`` workload in this
process and prints, for the timed phase: the seconds the writer waited
on the helper, the units (blocks or tables) and seconds of each request
kind on either side, and the milliseconds per flush the writer spent
sealing a memtable and landing its table; then the seconds of the
workload DB's ``close()``, which lands the last sealed memtable and the
merges it owes.  Timings are one untraced run's: use them to split a
gain, not as a baseline.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"),
                os.path.join(ROOT, "benchmarks", "e2e")]

#: Request kind -> (caller units, caller s, helper units, helper s).
KINDS = {
    "compress": ("host_blocks", "host_s", "helper_blocks", "helper_s"),
    "build": ("host_build_tables", "host_build_s", "helper_build_tables",
              "helper_build_s"),
}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="fill_random")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    import worker
    import workloads
    from repro.compress.encoder import block_encoder
    from repro.lsm.db import LsmDB

    seconds: dict = {}
    timed = {"on": False}

    def timing(owner, attr: str, label: str) -> None:
        """Rebind ``owner.attr`` to add each call's wall seconds, while
        the timed phase runs, to ``seconds[label]``."""
        original = getattr(owner, attr)

        def wrapped(*call_args, **kwargs):
            start = time.perf_counter()
            try:
                return original(*call_args, **kwargs)
            finally:
                if timed["on"]:
                    entry = seconds.setdefault(label, [0, 0.0])
                    entry[0] += 1
                    entry[1] += time.perf_counter() - start

        setattr(owner, attr, wrapped)

    timing(LsmDB, "_seal_locked", "seal")
    timing(LsmDB, "_flush_step", "land")

    workload = workloads.WORKLOADS[args.workload]
    run, close = workload.run, LsmDB.close
    phase: dict = {}

    def timed_run(self):
        before = block_encoder.stats()
        timed["on"] = True
        try:
            return run(self)
        finally:
            timed["on"] = False
            after = block_encoder.stats()
            phase.update({key: after[key] - before[key] for key in after})

    def timed_close(self):
        start = time.perf_counter()
        try:
            return close(self)
        finally:
            if phase and "close_s" not in phase:
                phase["close_s"] = time.perf_counter() - start

    workload.run = timed_run
    LsmDB.close = timed_close
    result = worker.run_pass(args.workload, args.seed, args.seconds, False)
    wall = result["wall_s"]
    print(f"{args.workload} seed {args.seed}: timed wall {wall:.2f} s, "
          f"{result['ops']} ops, {result['failed']} failed")
    print(f"  writer waits on the helper {phase['wait_s']:.3f} s "
          f"({phase['wait_s'] / wall:.1%}); helper failures "
          f"{phase['failures']}")
    print(f"  {'kind':<11} {'writer':>8} {'s':>7} {'helper':>8} {'s':>7}")
    for kind, (units, units_s, helper, helper_s) in KINDS.items():
        print(f"  {kind:<11} {phase[units]:>8} {phase[units_s]:7.3f} "
              f"{phase[helper]:>8} {phase[helper_s]:7.3f}")
    for label in ("seal", "land"):
        calls, total = seconds.get(label, (0, 0.0))
        per = f"{total / calls * 1e3:6.2f} ms each" if calls else ""
        print(f"  {label:<11} {calls:>5} calls {total:7.3f} s {per}")
    print(f"  close()     {phase.get('close_s', 0.0):7.3f} s")
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
