"""Behavioral model of the paper's FPGA compaction engine (FCAE).

The engine is both *functional* — it decodes real SSTable images, merges
them with validity checking, and encodes standard SSTables — and *timed* —
every module charges cycles per the paper's Tables II/III, composed by an
item-granularity pipeline simulator with bounded FIFOs, DRAM read latency
and AXI-width streaming.  Cycle counts convert to seconds at the
configured clock (the paper's KCU1500 runs at 200 MHz).

Module map (paper Figs 2-5):

* :mod:`repro.fpga.config` — ``FpgaConfig`` (N, V, W_in, W_out, clock).
* :mod:`repro.fpga.fifo` — bounded FIFO primitive.
* :mod:`repro.fpga.dram` — off-chip DRAM with request latency accounting.
* :mod:`repro.fpga.decoder` — Index Block Decoder + Data Block Decoder.
* :mod:`repro.fpga.comparer` — Key Compare + Validity Check.
* :mod:`repro.fpga.transfer` — Key-Value Transfer.
* :mod:`repro.fpga.encoder` — Data Block Encoder + Index Block Encoder.
* :mod:`repro.fpga.cost_model` — the analytic periods of Tables II/III.
* :mod:`repro.fpga.pipeline_sim` — item-granularity timing composition.
* :mod:`repro.fpga.resources` — BRAM/FF/LUT estimator (Table VII).
* :mod:`repro.fpga.engine` — the assembled compaction engine.
"""

from repro.fpga.config import FpgaConfig, PipelineVariant
from repro.fpga.engine import CompactionEngine, EngineResult
from repro.fpga.resources import ResourceReport, estimate_resources

__all__ = [
    "CompactionEngine",
    "EngineResult",
    "FpgaConfig",
    "PipelineVariant",
    "ResourceReport",
    "estimate_resources",
]
