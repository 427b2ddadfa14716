"""Analytic pipeline-period model — the paper's Tables II and III.

All periods are in cycles per key-value pair.  ``key_length`` here is the
*internal* key length: user key plus the 8-byte mark fields (the paper's
footnote: "L_key = 16 (real key length) + 8 (mark fields)").

Two families are provided:

* the *unoptimized* periods of Table II (values travel byte-serially), and
* the *optimized* periods of Table III (V-wide value paths),

plus the bottleneck predicate of §V-D1: the Data Block Decoder dominates
iff ``L_key < L_value / ((1 + ceil(log2 N)) * V)``; otherwise the Comparer
does.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.fpga.config import FpgaConfig
from repro.lsm.internal import MARK_FIELDS_SIZE


def internal_key_length(user_key_length: int) -> int:
    """``L_key`` as the hardware sees it: user key + mark fields."""
    return user_key_length + MARK_FIELDS_SIZE


def comparer_fanin_term(num_inputs: int) -> int:
    """``2 + ceil(log2 N)`` — read, compare-tree and existence check."""
    return 2 + math.ceil(math.log2(num_inputs))


# ----------------------------------------------------------------------
# Table II — before value-path widening (V = 1 effectively)
# ----------------------------------------------------------------------

def basic_decoder_period(key_length: int, value_length: int) -> float:
    """Data Block Decoder: decode key + read value byte-serially."""
    return key_length + value_length


def basic_transfer_period(key_length: int, value_length: int) -> float:
    """Key-Value Transfer: longer of the two serial streams."""
    return max(key_length, value_length)


# ----------------------------------------------------------------------
# Table III — optimized, V-wide value path
# ----------------------------------------------------------------------

def decoder_period(key_length: int, value_length: int,
                   value_width: int) -> float:
    """Data Block Decoder: ``L_key + L_value / V``."""
    return key_length + value_length / value_width


def comparer_period(key_length: int, num_inputs: int) -> float:
    """Comparer: ``(2 + ceil(log2 N)) * L_key``."""
    return comparer_fanin_term(num_inputs) * key_length


def transfer_period(key_length: int, value_length: int,
                    value_width: int) -> float:
    """Key-Value Transfer: ``max(L_key, L_value / V)``."""
    return max(key_length, value_length / value_width)


def encoder_period(key_length: int) -> float:
    """Data Block Encoder: ``L_key`` (values bypass re-encoding)."""
    return key_length


@dataclass(frozen=True)
class PeriodBreakdown:
    """Per-module periods for one (config, key, value) point."""

    decoder: float
    comparer: float
    transfer: float
    encoder: float

    @property
    def bottleneck_cycles(self) -> float:
        return max(self.decoder, self.comparer, self.transfer, self.encoder)

    @property
    def bottleneck_module(self) -> str:
        periods = {
            "decoder": self.decoder,
            "comparer": self.comparer,
            "transfer": self.transfer,
            "encoder": self.encoder,
        }
        return max(periods, key=periods.get)


def periods(config: FpgaConfig, key_length: int,
            value_length: int) -> PeriodBreakdown:
    """Table III for a configuration.  ``key_length`` is internal."""
    return PeriodBreakdown(
        decoder=decoder_period(key_length, value_length, config.value_width),
        comparer=comparer_period(key_length, config.num_inputs),
        transfer=transfer_period(key_length, value_length,
                                 config.value_width),
        encoder=encoder_period(key_length),
    )


def decoder_is_bottleneck(config: FpgaConfig, key_length: int,
                          value_length: int) -> bool:
    """§V-D1's simplified predicate:
    ``L_key < L_value / ((1 + ceil(log2 N)) * V)``."""
    fanin = math.ceil(math.log2(config.num_inputs))
    return key_length < value_length / ((1 + fanin) * config.value_width)


def steady_state_speed_mbps(config: FpgaConfig, user_key_length: int,
                            value_length: int,
                            pair_overhead_bytes: int = 4) -> float:
    """Idealized analytic throughput: pair bytes / bottleneck period.

    This is the upper bound the paper's analysis implies; the behavioral
    simulator's serialized value path (see :mod:`repro.fpga.pipeline_sim`)
    yields the lower, measurement-matching figure.
    """
    key_length = internal_key_length(user_key_length)
    breakdown = periods(config, key_length, value_length)
    pair_bytes = user_key_length + value_length + pair_overhead_bytes
    seconds = config.cycles_to_seconds(breakdown.bottleneck_cycles)
    return pair_bytes / seconds / 1e6


def serialized_pair_cycles(config: FpgaConfig, key_length: int,
                           value_length: int) -> float:
    """Calibrated per-pair service law of the behavioral model.

    Per pair, the engine (a) waits for the winning input's decode
    (overlapped with previous pairs, so it binds only when the decoder
    period exceeds the comparer's), (b) runs a Comparer round, then —
    because the value path is single-buffered — (c) serially moves the
    value through the Key-Value Transfer at ``V`` bytes/cycle and
    (d) drains it into the output buffer at ``output_buffer_width``
    bytes/cycle:

        max(decoder, comparer) + L_value/V + L_value/W_buf

    Fitted against the paper's Table V this reproduces all 24 measured
    cells within ~15% (see EXPERIMENTS.md).
    """
    breakdown = periods(config, key_length, value_length)
    serial_head = max(breakdown.decoder, breakdown.comparer)
    value_move = (value_length / config.value_width
                  + value_length / config.output_buffer_width)
    return serial_head + value_move


def serialized_speed_mbps(config: FpgaConfig, user_key_length: int,
                          value_length: int,
                          pair_overhead_bytes: int = 4) -> float:
    """Analytic closed form of the behavioral model's steady state."""
    key_length = internal_key_length(user_key_length)
    cycles = serialized_pair_cycles(config, key_length, value_length)
    pair_bytes = user_key_length + value_length + pair_overhead_bytes
    return pair_bytes / config.cycles_to_seconds(cycles) / 1e6


# ---------------------------------------------------------------------
# Backend wall-clock models (host-side routing)
# ---------------------------------------------------------------------
#
# The analytic models above price the *modeled hardware*; routing between
# host executors instead needs the wall time each backend will spend in
# this process.  All three backends fit the same affine law
#
#     seconds = fixed + pairs * per_pair + bytes * per_byte
#
# because each is a fixed setup (iterator/array marshalling) plus
# per-entry work (heap pops or array rows) plus per-byte work (copies,
# CRCs, block encoding).  Constants are calibrated against the
# ``bench backends`` sweep on the reference container; they only need to
# rank backends correctly, not predict absolute times.


@dataclass(frozen=True)
class WallCostModel:
    """Affine wall-clock estimate for one merge-compaction executor."""

    fixed_seconds: float
    per_pair_seconds: float
    per_byte_seconds: float

    def merge_seconds(self, input_bytes: int, num_pairs: int) -> float:
        return (self.fixed_seconds
                + num_pairs * self.per_pair_seconds
                + input_bytes * self.per_byte_seconds)


#: Streaming CPU merge (`repro.lsm.compaction.compact`): heap pop, parse
#: and builder add per pair, plus per-byte block/CRC work.
CPU_WALL_MODEL = WallCostModel(fixed_seconds=0.3e-3,
                               per_pair_seconds=10.7e-6,
                               per_byte_seconds=19.0e-9)

#: Pipeline-sim device (`repro.host.device.FcaeDevice`): the functional
#: merge plus the behavioral timing pass and DMA/marshal bookkeeping.
FPGA_SIM_WALL_MODEL = WallCostModel(fixed_seconds=2.0e-3,
                                    per_pair_seconds=14.0e-6,
                                    per_byte_seconds=22.0e-9)

#: LUDA-style batched merge (`repro.host.batch_merge`): a fixed
#: marshalling cost (array allocation, lexsort setup), then a per-byte
#: vectorized rate with a small per-row term for the residual Python
#: block/builder loops.  Without numpy the backend declines the task, so
#: there is nothing else to price.
BATCH_WALL_MODEL = WallCostModel(fixed_seconds=2.5e-3,
                                 per_pair_seconds=3.6e-6,
                                 per_byte_seconds=12.0e-9)


def estimate_pairs(input_bytes: int, user_key_length: int,
                   value_length: int,
                   pair_overhead_bytes: int = 3) -> int:
    """Entries a compaction of ``input_bytes`` holds, from the workload's
    configured key/value lengths (block headers ~3 bytes/entry)."""
    pair_bytes = (internal_key_length(user_key_length) + value_length
                  + pair_overhead_bytes)
    return max(1, input_bytes // pair_bytes)
