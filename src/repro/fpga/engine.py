"""The assembled FPGA compaction engine (FCAE).

:class:`CompactionEngine` wires N Decoder chains, the Comparer and the
Encoders together; the Key-Value Transfer is the Keep path from the
winner's decoded block into the Encoder.  A run is simultaneously

* **functional** — it consumes real SSTable images from device DRAM a
  decoded block at a time and produces real SSTable images,
  byte-compatible with the CPU compaction path (tests assert equality
  against :mod:`repro.lsm.compaction`), and
* **timed** — every event advances the :class:`PipelineTimer`, yielding
  the kernel cycle count that the paper's "compaction speed" metric
  (input bytes / kernel time) is computed from.

For parameter sweeps where materializing gigabytes of real input would
waste time, :func:`simulate_synthetic` replays a synthetic merge schedule
through the same :class:`PipelineTimer`, guaranteeing the benchmarks and
the functional engine share one timing model.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import FpgaResourceError
from repro.fpga.comparer import Comparer
from repro.fpga.config import FpgaConfig
from repro.fpga.decoder import DecoderChain, SSTableLayout
from repro.fpga.dram import Dram
from repro.fpga.encoder import Encoder
from repro.fpga.pipeline_sim import PipelineTimer, TimingReport, replay_rounds
from repro.fpga.resources import estimate_resources
from repro.lsm.compaction import OutputTable
from repro.lsm.internal import InternalKeyComparator
from repro.lsm.options import Options
from repro.lsm.sstable import TableReader


@dataclass
class EngineResult:
    """Outcome of one kernel invocation."""

    outputs: list[OutputTable]
    timing: TimingReport
    config: FpgaConfig

    @property
    def kernel_seconds(self) -> float:
        return self.timing.kernel_seconds(self.config)

    @property
    def compaction_speed_mbps(self) -> float:
        return self.timing.speed_mbps(self.config)


class CompactionEngine:
    """One instantiation of the hardware engine.

    Raises :class:`FpgaResourceError` at construction when the
    configuration does not fit the device (paper Table VII), unless
    ``check_resources=False``.
    """

    def __init__(self, config: FpgaConfig, options: Options | None = None,
                 check_resources: bool = True, metrics=None):
        self.config = config
        self.options = options or Options()
        self.comparator = InternalKeyComparator(self.options.comparator)
        #: optional repro.obs.MetricsRegistry for pipeline telemetry;
        #: None defers to the process-wide registry at run time.
        self.metrics = metrics
        if check_resources:
            report = estimate_resources(config)
            if not report.fits:
                raise FpgaResourceError(
                    f"configuration N={config.num_inputs}, "
                    f"W_in={config.w_in}, V={config.value_width} needs "
                    f"{report.lut_pct}% LUT / {report.ff_pct}% FF / "
                    f"{report.bram_pct}% BRAM")

    def _check_input_count(self, count: int) -> None:
        if count > self.config.num_inputs:
            raise FpgaResourceError(
                f"{count} inputs exceed the engine's "
                f"N={self.config.num_inputs}")

    # ------------------------------------------------------------------
    # Functional + timed execution
    # ------------------------------------------------------------------

    def run(self, dram: Dram, inputs: list[list[SSTableLayout]],
            drop_deletions: bool = False, tracer=None) -> EngineResult:
        """Execute one compaction over device memory.

        ``inputs[i]`` lists input *i*'s SSTables in key order (a sorted
        level's files concatenate into one input, per §IV step 2).  The
        run's ``kernel_run`` span goes to ``tracer`` (default: the
        installed one).
        """
        self._check_input_count(len(inputs))
        timer = PipelineTimer(self.config, metrics=self.metrics,
                              tracer=tracer)
        comparer = Comparer(drop_deletions)
        encoder = Encoder(self.options, self.comparator)

        input_bytes = sum(t.index_size + t.data_size
                          for tables in inputs for t in tables)

        # Per input: its block stream, the current decoded block, the
        # cursor into it (the KV FIFO head) and the head's sort key.
        streams = [iter(DecoderChain(dram, tables, self.comparator))
                   for tables in inputs]
        blocks = [next(stream, None) for stream in streams]
        cursors = [0] * len(inputs)
        heads = [block.sort_keys[0] if block is not None else None
                 for block in blocks]
        live = [i for i, block in enumerate(blocks) if block is not None]
        for input_no in live:
            block = blocks[input_no]
            timer.decode_pair(input_no, len(block.keys[0]),
                              len(block.values[0]), True, block.fetched)

        select = comparer.round
        decode_pair = timer.decode_pair
        # Once one input is left every round has the same winner: its
        # rounds are recorded and replayed through the timer's
        # closed-form fast path (see PipelineTimer.uniform_rounds).
        tail = None
        while live:
            if tail is None and len(live) == 1:
                tail_input, tail = live[0], []
            winner, drop = select(live, heads)
            block = blocks[winner]
            at = cursors[winner]
            key = block.keys[at]
            value = block.values[at]
            flushed = 0 if drop else encoder.add(key, value)
            if tail is None:
                timer.comparer_round(live, winner, drop, len(key),
                                     len(value))
                if flushed:
                    timer.block_flush(flushed)
            # Refill the winner's FIFO from its block, or the next block.
            at += 1
            new_block = at == len(block.keys)
            if new_block:
                block = blocks[winner] = next(streams[winner], None)
                at = 0
            cursors[winner] = at
            if block is None:
                live.remove(winner)
                if tail is not None:
                    tail.append((len(key), len(value), drop, flushed, None))
                continue
            heads[winner] = block.sort_keys[at]
            if tail is None:
                decode_pair(winner, len(block.keys[at]),
                            len(block.values[at]), new_block, block.fetched)
            else:
                tail.append((len(key), len(value), drop, flushed,
                             (len(block.keys[at]), len(block.values[at]),
                              new_block, block.fetched)))
        if tail:
            replay_rounds(timer, tail_input, tail)

        outputs = encoder.finish()
        timing = timer.finalize(input_bytes)
        return EngineResult(outputs=outputs, timing=timing,
                            config=self.config)

    # ------------------------------------------------------------------
    # Convenience wrappers
    # ------------------------------------------------------------------

    def run_on_images(self, input_images: list[list[bytes]],
                      drop_deletions: bool = False) -> EngineResult:
        """Load raw SSTable images into a fresh DRAM and run.

        The images go through the host's Fig 7/8 marshaller, so tests
        can drive the engine without the rest of the host layer.
        """
        # repro.host imports this module, so import its marshaller late.
        from repro.host.memory import marshal_inputs

        self._check_input_count(len(input_images))
        readers = [[TableReader(image, self.comparator, self.options)
                    for image in images] for images in input_images]
        dram = Dram()
        image = marshal_inputs(dram, self.config, readers)
        return self.run(dram, image.layouts, drop_deletions)


def simulate_synthetic(config: FpgaConfig, pairs_per_input: list[int],
                       user_key_length: int, value_length: int,
                       block_size: int = 4096, drop_fraction: float = 0.0,
                       seed: int = 7) -> TimingReport:
    """Replay a synthetic merge through the shared timing model.

    Inputs are disjoint sorted runs of ``pairs_per_input[i]`` pairs with
    ``user_key_length``-byte keys (+8 mark bytes) and ``value_length``-
    byte values; winners interleave randomly (uniform key space) and a
    ``drop_fraction`` of selections are validity-Drop'd.  Used by the
    Table V / Figs 9, 12, 13 benchmarks for wide parameter sweeps.

    The run is traced as a synthetic ``compaction`` span with a modeled
    ``kernel_run`` child, so benchmark traces carry the same span shape
    as full-stack offloads.
    """
    import random

    from repro import obs

    rng = random.Random(seed)
    key_len = user_key_length + 8
    pair_file_bytes = key_len + value_length + 4  # varint/restart overhead
    pairs_per_block = max(1, block_size // pair_file_bytes)

    timer = PipelineTimer(config)
    remaining = list(pairs_per_input)
    decoded = [0] * len(remaining)

    def feed(input_no: int) -> None:
        if decoded[input_no] < pairs_per_input[input_no]:
            new_block = decoded[input_no] % pairs_per_block == 0
            timer.decode_pair(input_no, key_len, value_length,
                              new_block=new_block,
                              block_compressed_size=block_size)
            decoded[input_no] += 1

    tracer = obs.current_tracer()
    with tracer.span("compaction", synthetic=True,
                     num_inputs=len(pairs_per_input),
                     key_length=user_key_length,
                     value_length=value_length) as span:
        for input_no in range(len(remaining)):
            feed(input_no)

        live = [i for i, n in enumerate(remaining) if n > 0]
        while len(live) > 1:
            winner = rng.choice(live)
            drop = rng.random() < drop_fraction
            timer.comparer_round(live, winner, drop, key_len, value_length)
            remaining[winner] -= 1
            feed(winner)
            if remaining[winner] == 0:
                live.remove(winner)
        if live:
            # Single-input tail: record the remaining rounds (consuming
            # the RNG exactly as the loop above would) and batch them
            # through the timer's closed-form fast path.
            winner = live[0]
            tail = []
            while remaining[winner] > 0:
                rng.choice(live)
                drop = rng.random() < drop_fraction
                remaining[winner] -= 1
                if decoded[winner] < pairs_per_input[winner]:
                    new_block = decoded[winner] % pairs_per_block == 0
                    refill = (key_len, value_length, new_block, block_size)
                    decoded[winner] += 1
                else:
                    refill = None
                tail.append((key_len, value_length, drop, 0, refill))
            replay_rounds(timer, winner, tail)

        input_bytes = sum(pairs_per_input) * pair_file_bytes
        report = timer.finalize(input_bytes)
        span.set(input_bytes=input_bytes)
    return report
