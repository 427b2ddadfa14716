"""Pluggable compaction-accelerator backends.

The paper has one software merge and one offload target (Fig 6).  This
module defines the :class:`AcceleratorBackend` interface that
:class:`repro.host.scheduler.CompactionScheduler` routes merges to, with
two registered implementations:

``cpu``
    The streaming software merge (`repro.lsm.compaction.compact`) — the
    oracle the device is checked against, always capable, and the
    terminal fallback target for a faulting device.
``fpga-sim``
    The existing pipeline-sim device (`repro.host.device.FcaeDevice`),
    capability-limited by the engine's input-stream count.

Both produce byte-identical output tables for the same inputs — routing
is purely a performance decision, never a correctness one.  The registry
is also the seam through which tests hand the scheduler a faulting
backend.
"""

from __future__ import annotations

import time
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

from repro.host.device import FcaeDevice
from repro.lsm.compaction import OutputTable, compact_tables, input_streams
from repro.lsm.internal import InternalKeyComparator
from repro.lsm.options import Options
from repro.lsm.version import CompactionSpec
from repro.obs import resolve_tracer
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
    #: pcie_out for the device, software for the CPU merge).  The
    #: backend records the same phases as spans on its tracer.
    phase_seconds: dict[str, float] = field(default_factory=dict)


class AcceleratorBackend(ABC):
    """One compaction executor the scheduler can route a task to."""

    #: Registry key and metric label.
    name: str

    def can_run(self, spec: CompactionSpec) -> bool:
        """Capability check — ``False`` sends this task to ``cpu``
        instead (the engine's input-count limit)."""
        return True

    @abstractmethod
    def run(self, spec: CompactionSpec, input_tables: list,
            parent_tables: list, drop_deletions: bool) -> BackendResult:
        """Execute the merge; raises device faults for the scheduler's
        retry/fallback machinery to absorb."""


class CpuBackend(AcceleratorBackend):
    """The streaming software merge — the reference executor."""

    name = "cpu"

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

    def __init__(self, device: FcaeDevice, tracer=None):
        self.device = device
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


def make_backends(device: FcaeDevice, options: Options,
                  comparator: InternalKeyComparator,
                  cpu_model: CpuCostModel,
                  tracer=None) -> dict[str, AcceleratorBackend]:
    """The scheduler's standard backend registry; the cpu and fpga-sim
    backends record their modeled phases on ``tracer``."""
    return {backend.name: backend for backend in (
        CpuBackend(options, comparator, cpu_model, tracer=tracer),
        FpgaSimBackend(device, tracer=tracer),
    )}
