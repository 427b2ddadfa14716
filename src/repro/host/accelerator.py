"""Pluggable compaction-accelerator backends.

The paper hard-wires one offload target (the FCAE pipeline); LUDA shows
a second accelerator shape with a different cost profile.  This module
extracts the executor behind :class:`repro.host.scheduler.CompactionScheduler`
into an :class:`AcceleratorBackend` interface with three registered
implementations:

``cpu``
    The streaming software merge (`repro.lsm.compaction.compact`) — the
    oracle the others are checked against, always capable, and the
    terminal fallback target for faulting accelerators.
``fpga-sim``
    The existing pipeline-sim device (`repro.host.device.FcaeDevice`),
    capability-limited by the engine's input-stream count.
``batch``
    The LUDA-style vectorized batched merge
    (`repro.host.batch_merge.BatchMergeEngine`), capable only when
    numpy imports and the comparator is bytewise.

Each backend carries a wall-clock cost model (:class:`WallCostModel`)
estimating how long *this process* would take to run a task, so
``Options.accelerator = "auto"`` can route each
:class:`~repro.lsm.version.CompactionSpec` to the argmin-cost backend.
All backends produce byte-identical output tables for the same inputs —
routing is purely a performance decision, never a correctness one.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.host.batch_merge import BatchMergeEngine
from repro.host.device import FcaeDevice
from repro.lsm.compaction import OutputTable, compact_tables, input_streams
from repro.lsm.internal import MARK_FIELDS_SIZE, InternalKeyComparator
from repro.lsm.options import Options
from repro.lsm.version import CompactionSpec
from repro.obs import resolve_tracer
from repro.sim.cpu import CpuCostModel


# All three backends fit the same affine wall-clock law
#
#     seconds = fixed + pairs * per_pair + bytes * per_byte
#
# because each is a fixed setup (iterator/array marshalling) plus
# per-entry work (heap pops or array rows) plus per-byte work (copies,
# CRCs, block encoding).  Constants are calibrated against the
# ``bench backends`` sweep on the reference container; they only need to
# rank backends correctly, not predict absolute times.


@dataclass(frozen=True)
class WallCostModel:
    """Affine wall-clock estimate for one merge-compaction executor."""

    fixed_seconds: float
    per_pair_seconds: float
    per_byte_seconds: float

    def merge_seconds(self, input_bytes: int, num_pairs: int) -> float:
        return (self.fixed_seconds
                + num_pairs * self.per_pair_seconds
                + input_bytes * self.per_byte_seconds)


#: Streaming CPU merge (`repro.lsm.compaction.compact`): heap pop, parse
#: and builder add per pair, plus per-byte block/CRC work.
CPU_WALL_MODEL = WallCostModel(fixed_seconds=0.3e-3,
                               per_pair_seconds=10.7e-6,
                               per_byte_seconds=19.0e-9)

#: Pipeline-sim device (`repro.host.device.FcaeDevice`): the functional
#: merge plus the behavioral timing pass and DMA/marshal bookkeeping.
FPGA_SIM_WALL_MODEL = WallCostModel(fixed_seconds=2.0e-3,
                                    per_pair_seconds=14.0e-6,
                                    per_byte_seconds=22.0e-9)

#: LUDA-style batched merge (`repro.host.batch_merge`): a fixed
#: marshalling cost (array allocation, lexsort setup), then a per-byte
#: vectorized rate with a small per-row term for the residual Python
#: block/builder loops.  Without numpy the backend declines the task, so
#: there is nothing else to price.
BATCH_WALL_MODEL = WallCostModel(fixed_seconds=2.5e-3,
                                 per_pair_seconds=3.6e-6,
                                 per_byte_seconds=12.0e-9)


def estimate_pairs(input_bytes: int, user_key_length: int,
                   value_length: int) -> int:
    """Entries a compaction of ``input_bytes`` holds, from the workload's
    configured key/value lengths (block headers ~3 bytes/entry)."""
    pair_bytes = user_key_length + MARK_FIELDS_SIZE + value_length + 3
    return max(1, input_bytes // pair_bytes)


@dataclass
class BackendResult:
    """What one backend execution hands back to the scheduler."""

    outputs: list[OutputTable]
    #: Input bytes actually consumed (marshalled bytes for devices,
    #: ``spec.total_input_bytes`` for in-process merges).
    input_bytes: int
    #: Wall-clock seconds the backend spent executing.
    wall_seconds: float
    #: Modeled per-phase attribution folded into
    #: ``scheduler_phase_seconds_total`` (marshal/pcie_in/kernel/
    #: pcie_out for the device, software for the CPU merge; the batch
    #: merge models nothing).  The backend records the same phases as
    #: spans on its tracer.
    phase_seconds: dict[str, float] = field(default_factory=dict)


class AcceleratorBackend(ABC):
    """One compaction executor the scheduler can route a task to."""

    #: Registry key and metric label.
    name: str
    #: The affine law :meth:`estimate_seconds` prices a task with.
    wall_model: WallCostModel
    #: Supplies the workload's key/value lengths to that estimate.
    options: Options

    def can_run(self, spec: CompactionSpec) -> bool:
        """Capability check — ``False`` excludes the backend from
        routing for this task (engine input-count limits, a missing
        numpy)."""
        return True

    def estimate_seconds(self, spec: CompactionSpec) -> float:
        """Predicted wall-clock seconds to execute ``spec`` here."""
        pairs = estimate_pairs(spec.total_input_bytes,
                               self.options.key_length,
                               self.options.value_length)
        return self.wall_model.merge_seconds(spec.total_input_bytes, pairs)

    @abstractmethod
    def run(self, spec: CompactionSpec, input_tables: list,
            parent_tables: list, drop_deletions: bool) -> BackendResult:
        """Execute the merge; raises device faults for the scheduler's
        retry/fallback machinery to absorb."""


class CpuBackend(AcceleratorBackend):
    """The streaming software merge — the reference executor."""

    name = "cpu"
    wall_model = CPU_WALL_MODEL

    def __init__(self, options: Options, comparator: InternalKeyComparator,
                 cpu_model: CpuCostModel, tracer=None):
        self.options = options
        self.comparator = comparator
        self.cpu_model = cpu_model
        self.tracer = resolve_tracer(tracer)

    def run(self, spec: CompactionSpec, input_tables: list,
            parent_tables: list, drop_deletions: bool) -> BackendResult:
        start = time.perf_counter()
        stats = compact_tables(spec.level, input_tables, parent_tables,
                               self.options, self.comparator,
                               drop_deletions)
        wall = time.perf_counter() - start
        # The "software" phase keeps its historical meaning: the *modeled*
        # harness-CPU merge time of the paper's evaluation machine.
        modeled = self.cpu_model.compaction_seconds(
            spec.total_input_bytes,
            self.options.key_length,
            self.options.value_length,
            num_inputs=max(2, spec.fpga_input_count()),
        )
        self.tracer.phase("phase:software", modeled,
                          bytes=spec.total_input_bytes, level=spec.level)
        return BackendResult(outputs=stats.outputs,
                             input_bytes=spec.total_input_bytes,
                             wall_seconds=wall,
                             phase_seconds={"software": modeled})


class FpgaSimBackend(AcceleratorBackend):
    """The paper's FCAE device behind the backend interface."""

    name = "fpga-sim"
    wall_model = FPGA_SIM_WALL_MODEL

    def __init__(self, device: FcaeDevice, tracer=None):
        self.device = device
        self.options = device.options
        self.tracer = resolve_tracer(tracer)

    def can_run(self, spec: CompactionSpec) -> bool:
        return spec.fpga_input_count() <= self.device.config.num_inputs

    def run(self, spec: CompactionSpec, input_tables: list,
            parent_tables: list, drop_deletions: bool) -> BackendResult:
        streams = input_streams(spec.level, input_tables, parent_tables)
        start = time.perf_counter()
        result = self.device.compact(streams, drop_deletions,
                                     tracer=self.tracer)
        wall = time.perf_counter() - start
        return BackendResult(
            outputs=result.outputs,
            input_bytes=result.input_bytes,
            wall_seconds=wall,
            phase_seconds={"marshal": result.host_marshal_seconds,
                           "pcie_in": result.pcie_in_seconds,
                           "kernel": result.kernel_seconds,
                           "pcie_out": result.pcie_out_seconds})


class BatchBackend(AcceleratorBackend):
    """The LUDA-style batched merge behind the backend interface."""

    name = "batch"
    wall_model = BATCH_WALL_MODEL

    def __init__(self, options: Options, comparator: InternalKeyComparator):
        self.options = options
        self.engine = BatchMergeEngine(options, comparator)

    def can_run(self, spec: CompactionSpec) -> bool:
        return self.engine.vectorized

    def run(self, spec: CompactionSpec, input_tables: list,
            parent_tables: list, drop_deletions: bool) -> BackendResult:
        streams = input_streams(spec.level, input_tables, parent_tables)
        start = time.perf_counter()
        stats = self.engine.compact(streams, drop_deletions)
        return BackendResult(outputs=stats.outputs,
                             input_bytes=spec.total_input_bytes,
                             wall_seconds=time.perf_counter() - start)


def make_backends(device: FcaeDevice, options: Options,
                  comparator: InternalKeyComparator,
                  cpu_model: CpuCostModel,
                  tracer=None) -> dict[str, AcceleratorBackend]:
    """The scheduler's standard backend registry; the cpu and fpga-sim
    backends record their modeled phases on ``tracer``."""
    return {backend.name: backend for backend in (
        CpuBackend(options, comparator, cpu_model, tracer=tracer),
        FpgaSimBackend(device, tracer=tracer),
        BatchBackend(options, comparator),
    )}
