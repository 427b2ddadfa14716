"""Software integration with the hardware compaction engine (paper §VI).

* :mod:`repro.host.memory` — the unified Input/Output memory interface:
  MetaIn/MetaOut blocks, Index Block Memory and W_in/W_out-aligned Data
  Block Memory (Figs 7 and 8).
* :mod:`repro.host.pcie` — PCIe gen3 x16 DMA transfer model.
* :mod:`repro.host.device` — :class:`FcaeDevice`: marshal -> DMA ->
  kernel -> DMA -> install, with a per-phase timing breakdown.
* :mod:`repro.host.scheduler` — the compaction-thread workflow of Fig 6,
  generalised to N accelerator backends: route each task to the device
  (when it fits) or to the argmin-cost backend, fall back to the CPU
  merge on a device fault after one retry, and account for the
  flush/kernel overlap the co-design enables.
* :mod:`repro.host.accelerator` — the :class:`AcceleratorBackend`
  interface and the cpu / fpga-sim / batch registry.
* :mod:`repro.host.batch_merge` — the LUDA-style vectorized batched
  merge engine (decode-all, numpy merge order, bulk re-encode).
"""

from repro.host.accelerator import (
    AcceleratorBackend,
    BackendResult,
    BatchBackend,
    CpuBackend,
    FpgaSimBackend,
    make_backends,
)
from repro.host.batch_merge import BatchMergeEngine
from repro.host.device import DeviceResult, FcaeDevice
from repro.host.pcie import PcieModel
from repro.host.scheduler import CompactionScheduler, SchedulerStats

__all__ = [
    "AcceleratorBackend",
    "BackendResult",
    "BatchBackend",
    "BatchMergeEngine",
    "CompactionScheduler",
    "CpuBackend",
    "DeviceResult",
    "FcaeDevice",
    "FpgaSimBackend",
    "make_backends",
    "PcieModel",
    "SchedulerStats",
]
