"""Accelerator-backend selection benchmark: measured wall time of the
three compaction executors across a value-size sweep, plus the cost
model's routing decision at each point.

Each sweep point builds the same 4-way overlapping merge workload
(shadowed versions + tombstones, ``compression="none"`` so the codec
does not mask the merge substrate) and times all three backends on it:

* ``cpu_v<N>`` — the streaming software merge
  (:func:`repro.lsm.compaction.compact`);
* ``fpga-sim_v<N>`` — the pipeline-sim device
  (:class:`repro.host.device.FcaeDevice`), which pays a functional
  marshal/DMA round-trip in this process;
* ``batch_v<N>`` — the LUDA-style vectorized batched merge
  (:class:`repro.host.batch_merge.BatchMergeEngine`).

A backend that declines the workload (``can_run`` false — ``batch``
without numpy) gets no rows.  ``route_v<N>`` rows record what
``Options.accelerator = "auto"`` picks for that point
(:meth:`CompactionScheduler.pick_backend`) against the backend that
actually measured fastest; the row's ``p50_us`` is the picked backend's
measured time, so mis-routing shows up directly as wall-clock
regression.  ``tools/check_backends.py`` gates the batch-vs-cpu speedup
floor and the routing hit rate from the same ``--bench-json`` document.

Environment knobs: ``REPRO_BACKENDS_REPEAT`` / ``REPRO_BACKENDS_WARMUP``
override the per-point sample counts (CI quick mode).
"""

from __future__ import annotations

import os
import random

from repro.bench.common import ExperimentResult, sample_wall, scaled
from repro.fpga.resources import best_feasible_config
from repro.host.device import FcaeDevice
from repro.host.scheduler import CompactionScheduler
from repro.lsm.compaction import _BufferFile, compact, table_sources
from repro.lsm.internal import (
    InternalKeyComparator,
    TYPE_DELETION,
    TYPE_VALUE,
    encode_internal_key,
)
from repro.lsm.options import Options
from repro.lsm.sstable import TableBuilder, TableReader
from repro.lsm.version import CompactionSpec, FileMetaData
from repro.util.comparator import BytewiseComparator

ICMP = InternalKeyComparator(BytewiseComparator())

#: (value_length, pairs per input table) — pairs shrink as values grow
#: so every point stays in the same wall-time budget while the byte
#: volume rises, which is exactly the regime that separates the
#: per-pair-bound streaming merge from the per-byte-bound batch path.
SWEEP = ((64, 1500), (256, 1200), (1024, 700), (2048, 450), (4096, 300))

DEFAULT_REPEAT = 5
DEFAULT_WARMUP = 1


def _options(value_len: int) -> Options:
    """Codec-neutral options with the sweep point's pair shape, so the
    routing cost models estimate with the workload's real geometry."""
    return Options(compression="none", bloom_bits_per_key=0,
                   sstable_size=4 << 20, key_length=16,
                   value_length=value_len, accelerator="auto")


def _merge_inputs(per_table: int, value_len: int, options: Options,
                  seed: int = 11) -> list[bytes]:
    """Four overlapping sorted runs with ~5% tombstones and shadowed
    versions (same shape as the hotpath merge workload)."""
    rng = random.Random(seed)
    universe = rng.sample(range(10 ** 9), per_table * 3)
    images = []
    sequence = 1
    for _ in range(4):
        picks = sorted(rng.sample(universe, per_table))
        dest = _BufferFile()
        builder = TableBuilder(options, dest, ICMP)
        for k in picks:
            kind = TYPE_DELETION if rng.random() < 0.05 else TYPE_VALUE
            value = (b"" if kind == TYPE_DELETION
                     else (f"val-{k:016d}-".encode()
                           * (value_len // 16 + 1))[:value_len])
            builder.add(encode_internal_key(f"{k:016d}".encode(),
                                            sequence, kind), value)
            sequence += 1
        builder.finish()
        images.append(dest.getvalue())
    return images


def _spec_for(images: list[bytes],
              readers: list[TableReader]) -> CompactionSpec:
    """A level-0 spec describing the workload, for the cost models."""
    files = []
    for number, (image, reader) in enumerate(zip(images, readers)):
        entries = list(reader)
        files.append(FileMetaData(number=number, file_size=len(image),
                                  smallest=entries[0][0],
                                  largest=entries[-1][0]))
    return CompactionSpec(level=0, inputs=files, parents=[],
                          reason="bench")


def run(scale: float = 1.0) -> ExperimentResult:
    repeat = int(os.environ.get("REPRO_BACKENDS_REPEAT", DEFAULT_REPEAT))
    warmup = int(os.environ.get("REPRO_BACKENDS_WARMUP", DEFAULT_WARMUP))

    result = ExperimentResult(
        name="backends",
        title="Accelerator backends: measured 4-way merge wall time and "
              f"cost-model routing (repeat={repeat}, warmup={warmup})",
        columns=["bench", "p50_us", "p95_us", "mb_per_s", "note"],
    )

    config = best_feasible_config(4)

    for value_len, base_pairs in SWEEP:
        (per_table,) = scaled([base_pairs], scale)
        options = _options(value_len)
        images = _merge_inputs(per_table, value_len, options)
        input_bytes = sum(len(img) for img in images)
        readers = [TableReader(img, ICMP, options) for img in images]
        streams = [[r] for r in readers]
        spec = _spec_for(images, readers)

        device = FcaeDevice(config, options)
        scheduler = CompactionScheduler(device, options)
        batch = scheduler.backends["batch"].engine

        runners = {
            "cpu": lambda: compact(table_sources(readers), options, ICMP,
                                   drop_deletions=True),
            "fpga-sim": lambda: device.compact(streams,
                                               drop_deletions=True),
            "batch": lambda: batch.compact(streams, drop_deletions=True),
        }
        measured = {}
        for backend, fn in runners.items():
            if not scheduler.backends[backend].can_run(spec):
                continue
            p50, p95 = sample_wall(fn, repeat, warmup)
            measured[backend] = p50
            result.add_row(f"{backend}_v{value_len}",
                           round(p50 * 1e6, 1), round(p95 * 1e6, 1),
                           round(input_bytes / p50 / 1e6, 2), "")

        picked = scheduler.pick_backend(spec)
        fastest = min(measured, key=measured.get)
        result.add_row(f"route_v{value_len}",
                       round(measured[picked] * 1e6, 1),
                       round(measured[picked] * 1e6, 1),
                       round(input_bytes / measured[picked] / 1e6, 2),
                       f"picked={picked};fastest={fastest}")

    result.notes.append(
        "gate with tools/check_regression.py --perf and "
        "tools/check_backends.py against "
        "benchmarks/baselines/BENCH_backends.json")
    return result
