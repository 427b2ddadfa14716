"""Item-granularity pipeline timing simulator.

The engine's modules run concurrently in hardware; this simulator holds
the repo's one copy of their per-pair service times, the paper's Tables
II/III (Decoder ``L_key + L_value / V``, Comparer ``(2 + ceil(log2 N))
* L_key``, Key-Value Transfer ``max(L_key, L_value / V)``, Encoder
``L_key``), and charges them event by event into a kernel cycle count,
honoring the synchronization the paper describes:

* each input's Decoder runs ahead of the Comparer only as far as its
  key/value FIFO depth allows (a FIFO element is usable once, §V-C);
* a Comparer round needs the head key of *every* non-exhausted input;
* the value path is single-buffered: the winner's value moves through
  the Key-Value Transfer at ``V`` bytes/cycle and drains into the output
  buffer at ``output_buffer_width`` bytes/cycle before the next value may
  follow;
* the Data Block Encoder's key work runs parallel to the value drain;
* block flushes occupy the AXI writer at ``W_out`` bytes/cycle.

With the default ``output_buffer_width = 8`` this model reproduces the
paper's measured Table V within roughly -25%..+5% (EXPERIMENTS.md keeps
the per-cell comparison).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import SimulationError
from repro.fpga.config import FpgaConfig, PipelineVariant


@dataclass
class TimingReport:
    """Cycle totals for one kernel run."""

    total_cycles: float = 0.0
    comparer_rounds: int = 0
    pairs_transferred: int = 0
    pairs_dropped: int = 0
    decoder_stall_cycles: float = 0.0   # comparer waiting on decoders
    value_bus_busy_cycles: float = 0.0
    writer_busy_cycles: float = 0.0
    input_bytes: int = 0
    output_bytes: int = 0
    #: decoder blocked because its KV FIFO had no free slot (§V-C
    #: backpressure; a FIFO element is usable once)
    decoder_backpressure_cycles: float = 0.0
    decoder_busy_cycles: float = 0.0
    comparer_busy_cycles: float = 0.0
    encoder_busy_cycles: float = 0.0
    #: per-input high-water KV-FIFO occupancy, in elements
    fifo_high_water: list[int] = field(default_factory=list)
    #: critical-path attribution of the run (a
    #: :class:`repro.obs.profile.Attribution`), populated by
    #: :meth:`PipelineTimer.finalize` when observability is enabled
    attribution: object = None

    def kernel_seconds(self, config: FpgaConfig) -> float:
        return config.cycles_to_seconds(self.total_cycles)

    #: ``utilization()`` keys, in reporting order.
    UTILIZATION_FIELDS = ("decoder", "comparer", "value_bus", "encoder",
                          "writer", "decoder_stall")

    def utilization(self) -> dict[str, float]:
        """Busy fraction of each module over the kernel run — a coarse
        occupancy profile of the pipeline.

        ``decoder`` sums the per-input Decoder chains, so with ``N``
        inputs it ranges up to ``N``; every other module is a single
        resource bounded by 1.  ``decoder_stall`` is the fraction the
        Comparer spent starved for a head key.
        """
        if self.total_cycles <= 0:
            return {name: 0.0 for name in self.UTILIZATION_FIELDS}
        return {
            "decoder": self.decoder_busy_cycles / self.total_cycles,
            "comparer": self.comparer_busy_cycles / self.total_cycles,
            "value_bus": self.value_bus_busy_cycles / self.total_cycles,
            "encoder": self.encoder_busy_cycles / self.total_cycles,
            "writer": self.writer_busy_cycles / self.total_cycles,
            "decoder_stall": self.decoder_stall_cycles / self.total_cycles,
        }

    def speed_mbps(self, config: FpgaConfig) -> float:
        """The paper's metric: input SSTable bytes / kernel time."""
        seconds = self.kernel_seconds(config)
        if seconds <= 0:
            return 0.0
        return self.input_bytes / seconds / 1e6


class _InputTimingState:
    """Decoder-side clock and FIFO occupancy for one input."""

    __slots__ = ("decoder_clock", "pending", "free_slots", "high_water")

    def __init__(self, fifo_depth: int) -> None:
        self.decoder_clock = 0.0
        #: ready times of decoded pairs sitting in the KV FIFO
        self.pending: deque[float] = deque()
        #: times at which FIFO slots became free; a decode consumes the
        #: earliest-freed slot, so a pair can never finish decoding into a
        #: slot before that slot was vacated.
        self.free_slots: deque[float] = deque([0.0] * fifo_depth)
        #: most elements ever resident in the KV FIFO
        self.high_water = 0


class PipelineTimer:
    """Drives the timing model; the engine (or a synthetic workload
    generator) feeds it decode and selection events in merge order.

    ``metrics`` (a :class:`repro.obs.MetricsRegistry`) defaults to the
    process-wide registry when one is installed; :meth:`finalize` then
    publishes the run into the ``fpga_pipeline_*`` families.

    ``tracer`` (defaulting to the process-wide one) receives the run as
    one ``kernel_run`` span on the modeled clock: it starts at the
    tracer's modeled cursor and :meth:`finalize` records it, so
    consecutive runs and the device's host phases share one contiguous
    timeline.  A tracer built with ``tracks=True`` also turns on
    **event-level recording**: every decode, Comparer round, value-path
    move, encoder key pass and block flush becomes a span on a
    per-module track, and KV-FIFO occupancy becomes per-input counter
    series.  Simulated cycles map to modeled seconds at the configured
    clock (``cycles / (clock_mhz * 1e6)``).  When neither such a tracer
    nor a registry is attached the per-event cost is a single attribute
    check, and :meth:`uniform_rounds` keeps its closed-form fast path.
    """

    def __init__(self, config: FpgaConfig, metrics=None, tracer=None):
        from repro import obs

        self.config = config
        self.metrics = (metrics if metrics is not None
                        else obs.current_registry())
        self.tracer = obs.resolve_tracer(tracer)
        self._tracks = self.tracer.tracks
        #: Modeled-clock seconds of cycle 0 and of one cycle.
        self._origin = self.tracer.sim_cursor
        self._seconds_per_cycle = 1.0 / (config.clock_mhz * 1e6)
        self._inputs = [_InputTimingState(config.kv_fifo_depth)
                        for _ in range(config.num_inputs)]
        # Per-config constants of the per-event methods.
        variant = config.variant
        self._full = variant is PipelineVariant.FULL
        self._basic = variant is PipelineVariant.BASIC
        self._value_width = config.value_width
        self._dram_latency = config.dram_read_latency
        self._basic_detour = 2 * config.dram_read_latency + 24
        self._stream_width = config.w_in if self._full else 1
        #: before key-value separation the Comparer reads the fused entry
        self._fused_compare = variant in (PipelineVariant.BASIC,
                                          PipelineVariant.SPLIT_BLOCKS)
        self._tree_term = 1 + config.comparer_fanin_depth()
        self._compare_term = 2 + config.comparer_fanin_depth()
        self._kv_separation = variant is PipelineVariant.KV_SEPARATION
        self._output_width = config.output_buffer_width
        self._flush_width = config.w_out if self._full else 8
        self._t_comparer = 0.0
        self._t_value_bus = 0.0
        self._t_encoder = 0.0
        self._t_writer = 0.0
        self.report = TimingReport()
        #: (module, start_cycles, end_cycles) intervals for the
        #: critical-path pass; collected whenever a registry or a
        #: track-recording tracer is attached.
        self._profile_intervals: list[tuple[str, float, float]] | None = (
            [] if (self.metrics is not None or self._tracks) else None)

    # ------------------------------------------------------------------
    # Event recording (no-ops unless a sink is attached)
    # ------------------------------------------------------------------

    def _mark(self, module: str, track: str, name: str, start: float,
              end: float, args: dict | None = None) -> None:
        self._profile_intervals.append((module, start, end))
        if self._tracks:
            self.tracer.record_sim_span(
                name, self._origin + start * self._seconds_per_cycle,
                self._origin + end * self._seconds_per_cycle, track=track,
                **(args or {}))

    def _mark_fifo(self, input_no: int, at: float, occupancy: int) -> None:
        if self._tracks:
            self.tracer.counter(
                f"fifo[{input_no}]",
                self._origin + at * self._seconds_per_cycle, occupancy)

    # ------------------------------------------------------------------
    # Decoder side
    # ------------------------------------------------------------------

    def decode_pair(self, input_no: int, key_len: int, value_len: int,
                    new_block: bool = False,
                    block_compressed_size: int = 4096) -> None:
        """The functional decoder produced one pair for ``input_no``.

        Callers decode at most ``kv_fifo_depth`` pairs ahead of the pops
        (the engine advances one pair per consumed head), so a free slot
        is always available here.
        """
        state = self._inputs[input_no]
        free_slots = state.free_slots
        if not free_slots:
            raise SimulationError(
                f"decoder for input {input_no} ran more than "
                f"{self.config.kv_fifo_depth} pairs ahead of the Comparer")
        slot_available = free_slots.popleft()
        clock = state.decoder_clock
        start = slot_available if slot_available > clock else clock
        # Time the decoder spent blocked on a full FIFO (backpressure).
        report = self.report
        blocked = slot_available - clock
        report.decoder_backpressure_cycles += blocked if blocked > 0.0 else 0.0
        if self._full:
            service = key_len + value_len / self._value_width
        else:
            service = float(key_len + value_len)
        if new_block:
            service += self._dram_latency
            if self._basic:
                # Single read pointer: detour through the index block.
                service += self._basic_detour
            service += min(block_compressed_size, 64) / self._stream_width
        report.decoder_busy_cycles += service
        end = start + service
        state.decoder_clock = end
        pending = state.pending
        pending.append(end)
        if len(pending) > state.high_water:
            state.high_water = len(pending)
        if self._profile_intervals is not None:
            self._mark("decoder", f"decoder[{input_no}]", "decode",
                       start, end,
                       {"key_len": key_len, "value_len": value_len,
                        "new_block": new_block})
            self._mark_fifo(input_no, end, len(pending))

    # ------------------------------------------------------------------
    # Comparer / transfer / encoder side
    # ------------------------------------------------------------------

    def head_ready_time(self, input_no: int) -> float:
        state = self._inputs[input_no]
        if not state.pending:
            raise SimulationError(
                f"input {input_no} has no decoded head pair")
        return state.pending[0]

    def comparer_round(self, live_inputs: list[int], winner: int,
                       drop: bool, key_len: int, value_len: int) -> float:
        """Run one selection round; returns the time the winner's pair
        left the pipeline (its FIFO slot free time)."""
        inputs = self._inputs
        heads_ready = -1.0  # every ready time is >= 0
        for input_no in live_inputs:
            pending = inputs[input_no].pending
            if not pending:
                raise SimulationError(
                    f"input {input_no} has no decoded head pair")
            if pending[0] > heads_ready:
                heads_ready = pending[0]
        t_comparer = self._t_comparer
        round_start = heads_ready if heads_ready > t_comparer else t_comparer
        report = self.report
        stall = heads_ready - t_comparer
        report.decoder_stall_cycles += stall if stall > 0.0 else 0.0
        if self._fused_compare:
            # Before key-value separation the Comparer reads the fused
            # entry — the value rides through the compare path (§V-C's
            # motivation); the tree and existence check still work on
            # keys alone.
            round_cycles = (key_len + value_len) + self._tree_term * key_len
        else:
            round_cycles = self._compare_term * key_len
        round_end = round_start + round_cycles
        self._t_comparer = round_end
        report.comparer_rounds += 1
        report.comparer_busy_cycles += round_cycles
        if self._profile_intervals is not None:
            self._mark("comparer", "comparer", "round", round_start,
                       round_end, {"winner": winner, "drop": drop})

        if drop:
            report.pairs_dropped += 1
            slot_free = round_end
        else:
            slot_free = self._run_value_path(round_end, key_len, value_len)
            report.pairs_transferred += 1
        # The winner's FIFO element is used once: pop it, free its slot.
        state = inputs[winner]
        if not state.pending:
            raise SimulationError(f"pop on empty FIFO for input {winner}")
        state.pending.popleft()
        state.free_slots.append(slot_free)
        if self._profile_intervals is not None:
            self._mark_fifo(winner, slot_free, len(state.pending))
        return slot_free

    def _run_value_path(self, ready: float, key_len: int,
                        value_len: int) -> float:
        t_value_bus = self._t_value_bus
        start = t_value_bus if t_value_bus > ready else ready
        if self._full:
            moved = value_len / self._value_width
            transfer = moved if moved > key_len else key_len
            staging = value_len / self._output_width
        elif self._kv_separation:
            transfer = float(value_len if value_len > key_len else key_len)
            staging = value_len / self._output_width
        else:
            # Fused key-value stream: one serial move, no separate staging.
            transfer = float(key_len + value_len)
            staging = 0.0
        end = start + transfer + staging
        report = self.report
        report.value_bus_busy_cycles += transfer + staging
        self._t_value_bus = end
        # Encoder key work overlaps the value drain on its own resource.
        t_encoder = self._t_encoder
        encoder_start = start if start > t_encoder else t_encoder
        self._t_encoder = encoder_start + key_len
        report.encoder_busy_cycles += key_len
        if self._profile_intervals is not None:
            self._mark("value_bus", "value_bus", "move", start, end,
                       {"value_len": value_len})
            self._mark("encoder", "encoder", "encode_key", encoder_start,
                       self._t_encoder)
        return end

    def block_flush(self, block_bytes: int) -> None:
        """A data block (plus its index entry) streams out over AXI."""
        busy = block_bytes / self._flush_width
        drained = max(self._t_value_bus, self._t_encoder)
        flush_start = max(self._t_writer, drained)
        self._t_writer = flush_start + busy
        self.report.writer_busy_cycles += busy
        self.report.output_bytes += block_bytes
        if self._profile_intervals is not None:
            self._mark("writer", "writer", "block_flush", flush_start,
                       self._t_writer, {"block_bytes": block_bytes})

    # ------------------------------------------------------------------
    # Closed-form fast path over uniform runs
    # ------------------------------------------------------------------

    #: Simulate at least this many rounds before trying to extrapolate —
    #: below it the settle bookkeeping costs more than it saves.
    _UNIFORM_MIN_ROUNDS = 8

    def uniform_rounds(self, live_inputs: list[int], winner: int,
                       rounds: int, key_len: int, value_len: int,
                       drop: bool = False) -> float:
        """Advance the model by ``rounds`` repetitions of
        ``comparer_round(live_inputs, winner, drop, key_len, value_len)``
        each followed by ``decode_pair(winner, key_len, value_len)`` —
        i.e. a run of identical KV pairs where the winner's decoder
        refills its FIFO after every selection.

        The model is a max-plus recurrence, so once the per-round state
        delta settles to a uniform shift (two consecutive rounds moving
        every evolving clock — comparer, value bus, encoder, the
        winner's decoder clock and its FIFO entries — by the same
        amount, with the other inputs' constant head times no longer
        binding) the remaining rounds are extrapolated in closed form,
        by shift-invariance producing exactly the cycle counts the
        per-pair event loop would.  Transients (FIFO filling, a FIFO
        near full changing which ``max()`` binds) are simulated
        per-pair, as is the whole run when a registry or a track-recording
        tracer is attached — event-level records stay exact.

        Returns the last round's slot-free time, like
        :meth:`comparer_round`.
        """
        slot_free = 0.0
        if (self._profile_intervals is not None
                or rounds < self._UNIFORM_MIN_ROUNDS):
            for _ in range(rounds):
                slot_free = self.comparer_round(live_inputs, winner, drop,
                                                key_len, value_len)
                self.decode_pair(winner, key_len, value_len)
            return slot_free

        state = self._inputs[winner]
        others_ready = max(
            (self.head_ready_time(i) for i in live_inputs if i != winner),
            default=None)
        prev_snap = None
        prev_delta = None
        done = 0
        while done < rounds:
            slot_free = self.comparer_round(live_inputs, winner, drop,
                                            key_len, value_len)
            self.decode_pair(winner, key_len, value_len)
            done += 1
            snap = self._uniform_snapshot(state, drop)
            if prev_snap is not None:
                delta = self._uniform_delta(prev_snap, snap)
                if (delta is not None and delta == prev_delta
                        and (others_ready is None
                             or others_ready <= max(self._t_comparer,
                                                    state.pending[0]))):
                    # Settled: every future round repeats this shift, and
                    # the other heads can never bind again (all clocks
                    # only grow).  Extrapolate the rest in closed form.
                    remaining = rounds - done
                    if remaining:
                        self._apply_uniform(state, drop, remaining, delta)
                        slot_free += remaining * delta[0]
                    return slot_free
                prev_delta = delta
            prev_snap = snap
        return slot_free

    def _uniform_snapshot(self, state: "_InputTimingState",
                          drop: bool) -> tuple:
        """Every evolving quantity of a uniform round, split into
        time-like clocks (must all shift by one scalar) and accumulating
        counters (must grow by a repeating increment)."""
        times = (self._t_comparer, state.decoder_clock,
                 *state.pending, *state.free_slots)
        if not drop:
            times += (self._t_value_bus, self._t_encoder)
        report = self.report
        counters = (report.decoder_stall_cycles,
                    report.decoder_backpressure_cycles,
                    report.comparer_busy_cycles,
                    report.decoder_busy_cycles,
                    report.value_bus_busy_cycles,
                    report.encoder_busy_cycles)
        return times, counters

    @staticmethod
    def _uniform_delta(prev: tuple, snap: tuple):
        """The (scalar shift, counter increments) between two snapshots,
        or ``None`` while the transient still moves clocks unevenly."""
        prev_times, prev_counters = prev
        times, counters = snap
        if len(prev_times) != len(times):
            return None
        shift = times[0] - prev_times[0]
        for before, after in zip(prev_times[1:], times[1:]):
            if after - before != shift:
                return None
        return shift, tuple(after - before for before, after
                            in zip(prev_counters, counters))

    def _apply_uniform(self, state: "_InputTimingState", drop: bool,
                       remaining: int, delta: tuple) -> None:
        shift_per_round, counter_incs = delta
        shift = remaining * shift_per_round
        self._t_comparer += shift
        if not drop:
            self._t_value_bus += shift
            self._t_encoder += shift
        state.decoder_clock += shift
        state.pending = deque(t + shift for t in state.pending)
        state.free_slots = deque(t + shift for t in state.free_slots)
        report = self.report
        (stall, backpressure, comparer_busy, decoder_busy,
         value_bus_busy, encoder_busy) = counter_incs
        report.decoder_stall_cycles += remaining * stall
        report.decoder_backpressure_cycles += remaining * backpressure
        report.comparer_busy_cycles += remaining * comparer_busy
        report.decoder_busy_cycles += remaining * decoder_busy
        report.value_bus_busy_cycles += remaining * value_bus_busy
        report.encoder_busy_cycles += remaining * encoder_busy
        report.comparer_rounds += remaining
        if drop:
            report.pairs_dropped += remaining
        else:
            report.pairs_transferred += remaining

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------

    def finalize(self, input_bytes: int) -> TimingReport:
        """Drain the pipeline, close the report, and publish: metrics to
        the attached registry (``fpga_pipeline_*`` including the
        bottleneck attribution), the run's enclosing ``kernel_run``
        span to the tracer."""
        self.report.input_bytes = input_bytes
        self.report.total_cycles = max(
            self._t_comparer, self._t_value_bus, self._t_encoder,
            self._t_writer)
        self.report.fifo_high_water = [state.high_water
                                       for state in self._inputs]
        if self._profile_intervals is not None:
            from repro.obs.profile import attribute_intervals
            self.report.attribution = attribute_intervals(
                self._profile_intervals, self.report.total_cycles)
        if self.metrics is not None:
            from repro.obs.names import publish_timing_report
            from repro.obs.profile import publish_attribution
            publish_timing_report(self.metrics, self.report, self.config)
            publish_attribution(self.metrics, self.report.attribution)
        attribution = self.report.attribution
        self.tracer.record_sim_span(
            "kernel_run", self._origin,
            self._origin + self.report.kernel_seconds(self.config),
            track="kernel", cycles=self.report.total_cycles,
            clock_mhz=self.config.clock_mhz,
            bottleneck=attribution.bottleneck if attribution else None)
        return self.report


#: One replayed selection round: the pair's sizes, whether the Comparer
#: dropped it, the bytes of a data block flushed right after it (0 for
#: none), and the refill decode issued after it — ``None`` when the
#: input is exhausted, else ``(key_len, value_len, new_block,
#: block_compressed_size)``.
RoundSpec = tuple[int, int, bool, int, "tuple[int, int, bool, int] | None"]


def replay_rounds(timer: PipelineTimer, input_no: int,
                  rounds: list[RoundSpec]) -> None:
    """Replay a single-input tail through the timer, batching runs of
    identical rounds through :meth:`PipelineTimer.uniform_rounds`.

    The event sequence is exactly the per-pair loop's — round, optional
    block flush, refill decode, repeated — so cycle counts are identical;
    runs are split wherever uniformity breaks (pair sizes or the drop
    flag change, a block flushes, a refill crosses an input-block
    boundary, or the input runs out).
    """
    live = [input_no]
    n = len(rounds)
    p = 0
    while p < n:
        key_len, value_len, drop, _, _ = rounds[p]
        # Rounds p..q-1 can refill inside one uniform run; round q needs
        # individual treatment (its flush, boundary refill, or the end).
        q = p
        while True:
            _, _, _, flush, refill = rounds[q]
            if (flush or refill is None or refill[2]
                    or refill[0] != key_len or refill[1] != value_len):
                break
            if q + 1 >= n or rounds[q + 1][:3] != (key_len, value_len, drop):
                break
            q += 1
        if q > p:
            timer.uniform_rounds(live, input_no, q - p, key_len, value_len,
                                 drop)
        timer.comparer_round(live, input_no, drop, key_len, value_len)
        _, _, _, flush, refill = rounds[q]
        if flush:
            timer.block_flush(flush)
        if refill is not None:
            timer.decode_pair(input_no, refill[0], refill[1], refill[2],
                              refill[3])
        p = q + 1
