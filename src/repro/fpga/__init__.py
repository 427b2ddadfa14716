"""Behavioral model of the paper's FPGA compaction engine (FCAE).

The engine is both *functional* — it decodes real SSTable images, merges
them with validity checking, and encodes standard SSTables — and *timed* —
one item-granularity pipeline simulator charges every module's cycles
per the paper's Tables II/III, with bounded KV FIFOs, DRAM read latency
and AXI-width streaming.  Cycle counts convert to seconds at the
configured clock (the paper's KCU1500 runs at 200 MHz).

Module map (paper Figs 2-5):

* :mod:`repro.fpga.config` — ``FpgaConfig`` (N, V, W_in, W_out, clock).
* :mod:`repro.fpga.dram` — off-chip DRAM with request latency accounting.
* :mod:`repro.fpga.decoder` — Index Block Decoder + Data Block Decoder.
* :mod:`repro.fpga.comparer` — Key Compare + Validity Check.
* :mod:`repro.fpga.encoder` — Data Block Encoder + Index Block Encoder.
* :mod:`repro.fpga.pipeline_sim` — the module periods of Tables II/III,
  the KV FIFOs and the Key-Value Transfer, composed per item.
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
