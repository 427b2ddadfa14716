#!/usr/bin/env python3
"""Split a benchmark pass's peak RSS and wall time by phase.

The benchmark reports one ``peak_rss_mb`` for the whole process; this
tool says which phase sets it::

    python3 tools/rss_by_phase.py --seed 1
    python3 tools/rss_by_phase.py --workload fill_random --seed 1

It runs the untraced pass of ``benchmarks/e2e`` in this process, with
the workload's phases wrapped, and prints the wall seconds each phase
took and the current and peak RSS after it:

* ``offload_model`` (the default): set-up, each ``FcaeDevice.compact``,
  the timed phase (whose tail is the ``repro.sim`` system sweep) and
  ``verify``;
* ``fill_random``: set-up, each ``LsmDB._merge_step`` that merged (in
  the timed phase, then in ``verify``'s close and reopen), the timed
  phase and ``verify``;
* ``read_while_writing``: set-up (a load through merges and a reopen),
  the timed phase (writer and reader) and ``verify``;
* ``read_random``: set-up (a load, then a reopen with a 128 KiB block
  cache, about 1/13 of the tables), the timed phase (the gets) and
  ``verify`` (the close).

The RSS figures use the benchmark's own readings (``harness.rss_mb``
and ``peak_rss_mb``, which divides ``ru_maxrss`` KiB by 1000), so the
current figure can read a little above the peak.  The wall seconds are
untraced and uncalibrated: they split one run's time between phases,
and are not comparable across machines.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
import time

START = time.perf_counter()

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"),
                os.path.join(ROOT, "benchmarks", "e2e")]

WORKLOADS = ("offload_model", "fill_random", "read_while_writing",
             "read_random")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS,
                        default="offload_model")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    args = parser.parse_args()

    import worker
    import workloads
    from harness import peak_rss_mb, rss_mb
    from repro.host.device import FcaeDevice
    from repro.lsm.db import LsmDB

    phases: list[tuple[str, float, float, float]] = []
    last = START

    def record(phase: str) -> None:
        nonlocal last
        now = time.perf_counter()
        phases.append((phase, now - last, rss_mb(), peak_rss_mb()))
        last = now

    def after(owner, attr: str, label) -> None:
        """Rebind ``owner.attr`` to record a phase after each call that
        ``label(self, result)`` names (None: not a phase)."""
        original = getattr(owner, attr)

        def wrapped(self, *call_args, **kwargs):
            result = original(self, *call_args, **kwargs)
            phase = label(self, result)
            if phase is not None:
                record(phase)
            return result

        setattr(owner, attr, wrapped)

    workload = workloads.WORKLOADS[args.workload]
    after(workload, "setup", lambda self, _: "set-up")
    if workload is workloads.OffloadModel:
        after(FcaeDevice, "compact", lambda self, _: (
            f"compact n{self.config.num_inputs} "
            f"L{self.options.value_length}"))
        after(workload, "_run", lambda self, _: "system sweep")
    else:
        if workload is workloads.FillRandom:
            merges = itertools.count(1)
            after(LsmDB, "_merge_step", lambda self, merged: (
                f"merge {next(merges)}" if merged else None))
        after(workload, "run", lambda self, _: "timed phase")
    after(workload, "verify", lambda self, _: "verify")

    record("imports")
    result = worker.run_pass(workload.name, args.seed, args.seconds, False)
    print(f"{workload.name} seed {args.seed}: {result['ops']} ops, "
          f"{result['failed']} failed")
    print(f"  {'phase':<18} {'wall s':>8} {'rss MB':>8} {'peak MB':>8}")
    for phase, wall, current, peak in phases:
        print(f"  {phase:<18} {wall:8.2f} {current:8.1f} {peak:8.1f}")
    return 1 if result["failed"] else 0


if __name__ == "__main__":
    sys.exit(main())
