#!/usr/bin/env python3
"""Split ``offload_model``'s peak RSS and wall time by phase.

The benchmark reports one ``peak_rss_mb`` for the whole process; this
tool says which phase sets it::

    python3 tools/rss_by_phase.py --seed 1

It runs the untraced ``offload_model`` pass of ``benchmarks/e2e`` in this
process, with the workload's set-up, each ``FcaeDevice.compact``, the
timed phase (whose tail is the ``repro.sim`` system sweep) and ``verify``
wrapped, and prints the wall seconds each phase took and the current
and peak RSS after it.  The RSS figures use the benchmark's own readings
(``harness.rss_mb`` and ``peak_rss_mb``, which divides ``ru_maxrss`` KiB
by 1000), so the current figure can read a little above the peak.  The
wall seconds are untraced and uncalibrated: they split one run's time
between the device phase and the system sweep, and are not comparable
across machines.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

START = time.perf_counter()

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
    from harness import peak_rss_mb, rss_mb
    from repro.host.device import FcaeDevice

    phases: list[tuple[str, float, float, float]] = []
    last = START

    def record(phase: str) -> None:
        nonlocal last
        now = time.perf_counter()
        phases.append((phase, now - last, rss_mb(), peak_rss_mb()))
        last = now

    def after(owner, attr: str, label) -> None:
        """Rebind ``owner.attr`` to record a phase after each call."""
        original = getattr(owner, attr)

        def wrapped(self, *call_args, **kwargs):
            result = original(self, *call_args, **kwargs)
            record(label(self))
            return result

        setattr(owner, attr, wrapped)

    workload = workloads.OffloadModel
    after(workload, "setup", lambda self: "set-up")
    after(FcaeDevice, "compact", lambda self: (
        f"compact n{self.config.num_inputs} "
        f"L{self.options.value_length}"))
    after(workload, "_run", lambda self: "system sweep")
    after(workload, "verify", lambda self: "verify")

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
