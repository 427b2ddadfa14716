"""Software integration with the hardware compaction engine (paper §VI).

* :mod:`repro.host.memory` — the unified Input/Output memory interface:
  MetaIn/MetaOut blocks, Index Block Memory and W_in/W_out-aligned Data
  Block Memory (Figs 7 and 8).
* :mod:`repro.host.pcie` — PCIe gen3 x16 DMA transfer model.
* :mod:`repro.host.device` — :class:`FcaeDevice`: marshal -> DMA ->
  kernel -> DMA -> install, with a per-phase timing breakdown.
* :mod:`repro.host.scheduler` — the compaction-thread workflow of Fig 6:
  route each task to the device (when it fits) or to the CPU merge,
  and fall back to the CPU merge on a device fault after one retry.
  The flush/kernel overlap the co-design enables is accounted in the
  system simulator (:mod:`repro.sim.system`), not here.
* :mod:`repro.host.accelerator` — the :class:`AcceleratorBackend`
  interface and the cpu / fpga-sim registry.
"""

from repro.host.accelerator import (
    AcceleratorBackend,
    BackendResult,
    CpuBackend,
    FpgaSimBackend,
    make_backends,
)
from repro.host.device import DeviceResult, FcaeDevice
from repro.host.pcie import PcieModel
from repro.host.scheduler import CompactionScheduler, SchedulerStats

__all__ = [
    "AcceleratorBackend",
    "BackendResult",
    "CompactionScheduler",
    "CpuBackend",
    "DeviceResult",
    "FcaeDevice",
    "FpgaSimBackend",
    "make_backends",
    "PcieModel",
    "SchedulerStats",
]
