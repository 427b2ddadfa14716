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

Each backend carries a wall-clock cost model
(:mod:`repro.fpga.cost_model`) estimating how long *this process* would
take to run a task, so ``Options.accelerator = "auto"`` can route each
:class:`~repro.lsm.version.CompactionSpec` to the argmin-cost backend.
All backends produce byte-identical output tables for the same inputs —
routing is purely a performance decision, never a correctness one.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.fpga.cost_model import (
    BATCH_WALL_MODEL,
    CPU_WALL_MODEL,
    FPGA_SIM_WALL_MODEL,
    WallCostModel,
    estimate_pairs,
)
from repro.host.batch_merge import BatchMergeEngine
from repro.host.device import FcaeDevice
from repro.lsm.compaction import OutputTable, compact_tables
from repro.lsm.internal import InternalKeyComparator
from repro.lsm.options import Options
from repro.lsm.version import CompactionSpec
from repro.sim.cpu import CpuCostModel


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
    #: pcie_out for the device, software/batch for host merges).
    phase_seconds: dict[str, float] = field(default_factory=dict)


class AcceleratorBackend(ABC):
    """One compaction executor the scheduler can route a task to."""

    #: Registry key, ``Options.accelerator`` value and metric label.
    name: str

    def can_run(self, spec: CompactionSpec) -> bool:
        """Capability check — ``False`` excludes the backend from
        routing for this task (engine input-count limits, a missing
        numpy)."""
        return True

    @abstractmethod
    def estimate_seconds(self, spec: CompactionSpec) -> float:
        """Predicted wall-clock seconds to execute ``spec`` here."""

    @abstractmethod
    def run(self, spec: CompactionSpec, input_tables: list,
            parent_tables: list, drop_deletions: bool) -> BackendResult:
        """Execute the merge; raises device faults for the scheduler's
        retry/fallback machinery to absorb."""


def _device_streams(spec: CompactionSpec, input_tables: list,
                    parent_tables: list) -> list[list]:
    """Paper §IV step 2: L0 files are separate streams (they overlap),
    sorted-level inputs and parents concatenate into one stream each."""
    if spec.level == 0:
        streams = [[t] for t in input_tables]
    else:
        streams = [input_tables] if input_tables else []
    if parent_tables:
        streams.append(parent_tables)
    return streams


class CpuBackend(AcceleratorBackend):
    """The streaming software merge — the reference executor."""

    name = "cpu"

    def __init__(self, options: Options, comparator: InternalKeyComparator,
                 cpu_model: CpuCostModel,
                 wall_model: WallCostModel = CPU_WALL_MODEL):
        self.options = options
        self.comparator = comparator
        self.cpu_model = cpu_model
        self.wall_model = wall_model

    def estimate_seconds(self, spec: CompactionSpec) -> float:
        pairs = estimate_pairs(spec.total_input_bytes,
                               self.options.key_length,
                               self.options.value_length)
        return self.wall_model.merge_seconds(spec.total_input_bytes, pairs)

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
        return BackendResult(outputs=stats.outputs,
                             input_bytes=spec.total_input_bytes,
                             wall_seconds=wall,
                             phase_seconds={"software": modeled})


class FpgaSimBackend(AcceleratorBackend):
    """The paper's FCAE device behind the backend interface."""

    name = "fpga-sim"

    def __init__(self, device: FcaeDevice,
                 wall_model: WallCostModel = FPGA_SIM_WALL_MODEL):
        self.device = device
        self.wall_model = wall_model

    def can_run(self, spec: CompactionSpec) -> bool:
        return spec.fpga_input_count() <= self.device.config.num_inputs

    def estimate_seconds(self, spec: CompactionSpec) -> float:
        options = self.device.options
        pairs = estimate_pairs(spec.total_input_bytes,
                               options.key_length, options.value_length)
        return self.wall_model.merge_seconds(spec.total_input_bytes, pairs)

    def run(self, spec: CompactionSpec, input_tables: list,
            parent_tables: list, drop_deletions: bool) -> BackendResult:
        streams = _device_streams(spec, input_tables, parent_tables)
        start = time.perf_counter()
        result = self.device.compact(streams, drop_deletions)
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

    def __init__(self, options: Options, comparator: InternalKeyComparator,
                 cost_model: WallCostModel = BATCH_WALL_MODEL,
                 fault_injector=None):
        self.options = options
        self.engine = BatchMergeEngine(options, comparator)
        self.cost_model = cost_model
        self.fault_injector = fault_injector

    def can_run(self, spec: CompactionSpec) -> bool:
        return self.engine.vectorized

    def estimate_seconds(self, spec: CompactionSpec) -> float:
        pairs = estimate_pairs(spec.total_input_bytes,
                               self.options.key_length,
                               self.options.value_length)
        return self.cost_model.merge_seconds(spec.total_input_bytes, pairs)

    def run(self, spec: CompactionSpec, input_tables: list,
            parent_tables: list, drop_deletions: bool) -> BackendResult:
        if self.fault_injector is not None:
            self.fault_injector.check(spec.total_input_bytes,
                                      backend=self.name)
        streams = _device_streams(spec, input_tables, parent_tables)
        start = time.perf_counter()
        stats = self.engine.compact(streams, drop_deletions)
        wall = time.perf_counter() - start
        return BackendResult(outputs=stats.outputs,
                             input_bytes=spec.total_input_bytes,
                             wall_seconds=wall,
                             phase_seconds={"batch": wall})


def make_backends(device: FcaeDevice, options: Options,
                  comparator: InternalKeyComparator,
                  cpu_model: CpuCostModel) -> dict[str, AcceleratorBackend]:
    """The scheduler's standard backend registry.

    The batch backend shares the device's fault injector (when one is
    attached) so a fault schedule exercises every accelerator path.
    """
    return {backend.name: backend for backend in (
        CpuBackend(options, comparator, cpu_model),
        FpgaSimBackend(device),
        BatchBackend(options, comparator,
                     fault_injector=device.fault_injector),
    )}
