"""FcaeDevice — the host's handle on the FPGA card.

One ``compact`` call performs the paper's §IV workflow steps 3-7:

3. read input SSTables into host memory (the marshaller reads each
   :class:`TableReader`'s image once, from its file or its bytes),
4. DMA the input memory image (MetaIn + index + data regions) to card
   DRAM,
5-6. run the hardware engine, which streams results back to card DRAM,
7. DMA the Output Memory (tables + MetaOut) back to the host.

The result carries the functional outputs *and* a per-phase timing
breakdown, so callers (the scheduler, the system simulator, Table VIII)
can attribute time to marshalling, PCIe and kernel separately.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.fpga.config import FpgaConfig
from repro.fpga.dram import Dram
from repro.fpga.engine import CompactionEngine, EngineResult
from repro.host.memory import (
    MetaOutEntry,
    decode_meta_out,
    marshal_inputs,
    write_outputs,
)
from repro.host.pcie import PcieModel
from repro.lsm.compaction import OutputTable
from repro.lsm.options import Options
from repro.lsm.sstable import TableReader
from repro.sim.cpu import CpuCostModel


@dataclass
class DeviceResult:
    """Functional outputs plus the phase timing of one offload."""

    outputs: list[OutputTable]
    meta_out: list[MetaOutEntry]
    engine_result: EngineResult
    host_marshal_seconds: float
    pcie_in_seconds: float
    kernel_seconds: float
    pcie_out_seconds: float
    input_bytes: int
    output_bytes: int

    @property
    def total_seconds(self) -> float:
        return (self.host_marshal_seconds + self.pcie_in_seconds
                + self.kernel_seconds + self.pcie_out_seconds)

    @property
    def pcie_seconds(self) -> float:
        return self.pcie_in_seconds + self.pcie_out_seconds

    @property
    def pcie_fraction(self) -> float:
        """Share of offload time spent on DMA (Table VIII's numerator is
        this against whole-system time; the scheduler aggregates it)."""
        total = self.total_seconds
        return self.pcie_seconds / total if total > 0 else 0.0


class FcaeDevice:
    """One FPGA card: engine instance + DRAM + PCIe link.

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) receives the
    ``fpga_pcie_*`` DMA counters; the engine's pipeline timer publishes
    the ``fpga_pipeline_*`` families into the same registry."""

    def __init__(self, config: FpgaConfig, options: Options | None = None,
                 metrics=None):
        from repro import obs
        from repro.obs.names import PcieMetrics

        self.config = config
        self.options = options or Options()
        self.metrics = (metrics if metrics is not None
                        else obs.current_registry())
        self.engine = CompactionEngine(config, self.options,
                                       metrics=self.metrics)
        self.pcie = PcieModel()
        self.cpu_model = CpuCostModel()
        self._pcie_metrics = (PcieMetrics(self.metrics)
                              if self.metrics is not None else None)

    def compact(self, inputs: list[list[TableReader]],
                drop_deletions: bool = False, tracer=None) -> DeviceResult:
        """Offload one merge compaction.

        ``inputs[i]`` is input *i*'s SSTables in key order.

        Every modeled phase is recorded once on ``tracer`` (default: the
        installed one), in the order it happens on the modeled clock:
        ``phase:marshal``, ``phase:pcie_in``, the engine's ``kernel_run``
        (with its per-module intervals when the tracer records tracks)
        and ``phase:pcie_out`` — the sequence the scheduler's phase
        metrics aggregate.
        """
        from repro import obs

        tracer = obs.resolve_tracer(tracer)

        dram = Dram()
        image = marshal_inputs(dram, self.config, inputs)
        input_bytes = image.total_bytes
        marshal_seconds = self.cpu_model.offload_seconds(input_bytes)
        pcie_in = self.pcie.transfer_seconds(input_bytes)
        tracer.phase("phase:marshal", marshal_seconds, bytes=input_bytes)
        self._trace_dma(tracer, "phase:pcie_in", input_bytes, pcie_in)

        engine_result = self.engine.run(dram, image.layouts, drop_deletions,
                                        tracer=tracer)

        output_base = dram.size // 2
        meta_out_image, output_bytes = write_outputs(
            dram, self.config, engine_result.outputs, output_base)
        pcie_out = self.pcie.transfer_seconds(output_bytes)
        self._trace_dma(tracer, "phase:pcie_out", output_bytes, pcie_out)

        if self._pcie_metrics is not None:
            self._pcie_metrics.record("in", input_bytes, pcie_in)
            self._pcie_metrics.record("out", output_bytes, pcie_out)

        return DeviceResult(
            outputs=engine_result.outputs,
            meta_out=decode_meta_out(meta_out_image),
            engine_result=engine_result,
            host_marshal_seconds=marshal_seconds,
            pcie_in_seconds=pcie_in,
            kernel_seconds=engine_result.kernel_seconds,
            pcie_out_seconds=pcie_out,
            input_bytes=input_bytes,
            output_bytes=output_bytes,
        )

    def _trace_dma(self, tracer, name: str, size: int,
                   seconds: float) -> None:
        setup, wire = self.pcie.transfer_breakdown(size)
        tracer.phase(name, seconds, bytes=size, setup_us=setup * 1e6,
                     wire_us=wire * 1e6)
