#!/usr/bin/env python3
"""Offload one compaction to the FPGA engine and race it against the CPU.

Builds two overlapping sorted runs (an upper level and a lower level),
compacts them with (a) the CPU reference merge and (b) the behavioral
FPGA engine, verifies the outputs are byte-identical, and prints the
paper's headline metric — compaction speed = input bytes / kernel time —
for both.

Run:  python examples/offload_compaction.py
"""

import random
import time

from repro.fpga.config import CONFIG_2_INPUT
from repro.fpga.engine import CompactionEngine
from repro.lsm.compaction import _BufferFile, compact
from repro.lsm.internal import (
    InternalKeyComparator,
    TYPE_DELETION,
    TYPE_VALUE,
    encode_internal_key,
)
from repro.lsm.options import Options
from repro.lsm.sstable import TableBuilder
from repro.sim.cpu import CpuCostModel
from repro.util.comparator import BytewiseComparator

KEY_LENGTH = 16
VALUE_LENGTH = 256
PAIRS_PER_RUN = 4000


def make_run(seed: int, seq_base: int):
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(10 ** 9), PAIRS_PER_RUN))
    run = []
    for i, raw in enumerate(keys):
        user = f"{raw:0{KEY_LENGTH}d}".encode()
        if rng.random() < 0.05:
            run.append((encode_internal_key(user, seq_base + i,
                                            TYPE_DELETION), b""))
        else:
            value = (f"v{raw}-".encode() * 40)[:VALUE_LENGTH]
            run.append((encode_internal_key(user, seq_base + i, TYPE_VALUE),
                        value))
    return run


def build_image(run, options, icmp) -> bytes:
    dest = _BufferFile()
    builder = TableBuilder(options, dest, icmp)
    for key, value in run:
        builder.add(key, value)
    builder.finish()
    return dest.getvalue()


def main() -> None:
    options = Options(compression="none", bloom_bits_per_key=0,
                      value_length=VALUE_LENGTH)
    icmp = InternalKeyComparator(BytewiseComparator())

    newer = make_run(seed=1, seq_base=1_000_000)
    older = make_run(seed=2, seq_base=1)
    images = [[build_image(newer, options, icmp)],
              [build_image(older, options, icmp)]]
    input_bytes = sum(len(img) for pair in images for img in pair)
    print(f"two inputs, {input_bytes / 1e6:.1f} MB total, "
          f"{2 * PAIRS_PER_RUN} pairs")

    # -- CPU reference ---------------------------------------------------
    wall_start = time.perf_counter()
    cpu_stats = compact([iter(newer), iter(older)], options, icmp,
                        drop_deletions=True)
    wall = time.perf_counter() - wall_start
    cpu_model = CpuCostModel()
    cpu_speed = cpu_model.compaction_speed_mbps(KEY_LENGTH, VALUE_LENGTH)
    print(f"\nCPU merge: {cpu_stats.output_pairs} survivors "
          f"({cpu_stats.dropped_shadowed} shadowed, "
          f"{cpu_stats.dropped_tombstones} tombstones dropped)")
    print(f"  modelled i7-8700K single-thread speed: {cpu_speed:.1f} MB/s "
          f"(python wall time {wall:.2f}s, not the metric)")

    # -- FPGA engine ------------------------------------------------------
    engine = CompactionEngine(CONFIG_2_INPUT, options)
    result = engine.run_on_images(images, drop_deletions=True)
    print(f"\nFCAE (N=2, V={CONFIG_2_INPUT.value_width}, "
          f"W_in={CONFIG_2_INPUT.w_in} @ {CONFIG_2_INPUT.clock_mhz:.0f} MHz)")
    print(f"  kernel: {result.timing.total_cycles:,.0f} cycles "
          f"= {result.kernel_seconds * 1e3:.2f} ms")
    print(f"  compaction speed: {result.compaction_speed_mbps:.1f} MB/s")
    print(f"  acceleration ratio vs CPU: "
          f"{result.compaction_speed_mbps / cpu_speed:.1f}x")

    # -- Equivalence ------------------------------------------------------
    assert len(result.outputs) == len(cpu_stats.outputs)
    for fpga_out, cpu_out in zip(result.outputs, cpu_stats.outputs):
        assert fpga_out.data == cpu_out.data
    print(f"\noutputs byte-identical across both engines "
          f"({len(result.outputs)} SSTables) — storage format unchanged")


if __name__ == "__main__":
    main()
