"""Virtual-time models for the end-to-end experiments.

Pure-Python byte shuffling cannot execute the paper's 20 GB-1 TB
workloads, so throughput experiments run on *models*: a CPU cost model
calibrated to the paper's measured single-thread compaction speeds
(Table V's CPU column), a disk bandwidth model, and a discrete-event
simulator of the whole LevelDB / LevelDB-FCAE system
(flush + compaction scheduling, write stalls, PCIe transfers).

Nothing here measures wall-clock Python time; all durations are derived
from the calibrated models, which keeps every benchmark deterministic.
"""

from repro.sim.cpu import CpuCostModel
from repro.sim.disk import DiskModel
from repro.sim.system import (
    OpenLoopResult,
    OpenLoopSimulator,
    OpenLoopTenantStats,
    SystemConfig,
    SystemResult,
    TenantSpec,
    simulate_fillrandom,
    simulate_open_loop,
)

__all__ = [
    "CpuCostModel",
    "DiskModel",
    "OpenLoopResult",
    "OpenLoopSimulator",
    "OpenLoopTenantStats",
    "SystemConfig",
    "SystemResult",
    "TenantSpec",
    "simulate_fillrandom",
    "simulate_open_loop",
]
