"""The pipeline fast path must be cycle-identical to the event loop.

``PipelineTimer.uniform_rounds`` extrapolates backpressure-steady runs in
closed form; attaching instrumentation forces the pure per-pair event
loop.  Every test here runs both and asserts the full TimingReport
matches exactly — on Table II/III-shaped configurations (N, V, variant,
FIFO depth sweeps) and on the real engine.
"""

import dataclasses

import pytest

from repro import obs
from repro.fpga.config import FpgaConfig, PipelineVariant
from repro.fpga.engine import CompactionEngine, simulate_synthetic
from repro.fpga.pipeline_sim import PipelineTimer, replay_rounds
from repro.lsm.compaction import _BufferFile
from repro.lsm.internal import (
    InternalKeyComparator,
    TYPE_VALUE,
    encode_internal_key,
)
from repro.lsm.options import Options
from repro.lsm.sstable import TableBuilder
from repro.obs.registry import MetricsRegistry
from repro.util.comparator import BytewiseComparator

REPORT_FIELDS = (
    "total_cycles", "comparer_rounds", "pairs_transferred", "pairs_dropped",
    "decoder_stall_cycles", "value_bus_busy_cycles", "writer_busy_cycles",
    "input_bytes", "output_bytes", "decoder_backpressure_cycles",
    "decoder_busy_cycles", "comparer_busy_cycles", "encoder_busy_cycles",
    "fifo_high_water",
)


def assert_reports_identical(fast, slow):
    for name in REPORT_FIELDS:
        assert getattr(fast, name) == getattr(slow, name), name


def make_rounds(n, key_len, value_len, drop_every=0, flush_every=0,
                block_every=0):
    """A single-input tail: per-round (sizes, drop, flush, refill) specs."""
    rounds = []
    for i in range(n):
        drop = bool(drop_every) and i % drop_every == 0
        flush = 4096 if flush_every and i % flush_every == flush_every - 1 else 0
        if i + 1 < n:
            new_block = bool(block_every) and (i + 1) % block_every == 0
            refill = (key_len, value_len, new_block, 4096)
        else:
            refill = None
        rounds.append((key_len, value_len, drop, flush, refill))
    return rounds


def run_replay(config, rounds, instrumented):
    metrics = MetricsRegistry() if instrumented else None
    timer = PipelineTimer(config, metrics=metrics)
    timer.decode_pair(0, rounds[0][0], rounds[0][1], new_block=True,
                      block_compressed_size=4096)
    if instrumented:
        assert timer._profile_intervals is not None
        for key_len, value_len, drop, flush, refill in rounds:
            timer.comparer_round([0], 0, drop, key_len, value_len)
            if flush:
                timer.block_flush(flush)
            if refill is not None:
                timer.decode_pair(0, *refill)
    else:
        assert timer._profile_intervals is None
        replay_rounds(timer, 0, rounds)
    return timer.finalize(12345)


CONFIGS = [
    FpgaConfig(num_inputs=2, value_width=16),
    FpgaConfig(num_inputs=2, value_width=64),
    FpgaConfig(num_inputs=9, value_width=32),
    dataclasses.replace(FpgaConfig(num_inputs=2, value_width=16),
                        variant=PipelineVariant.BASIC),
    dataclasses.replace(FpgaConfig(num_inputs=2, value_width=16),
                        variant=PipelineVariant.KV_SEPARATION),
    dataclasses.replace(FpgaConfig(num_inputs=4, value_width=16),
                        kv_fifo_depth=1),
    dataclasses.replace(FpgaConfig(num_inputs=4, value_width=16),
                        kv_fifo_depth=8),
]

PATTERNS = [
    ("plain", dict()),
    ("drops", dict(drop_every=7)),
    ("flushes", dict(flush_every=40)),
    ("block_boundaries", dict(block_every=45)),
    ("everything", dict(drop_every=11, flush_every=37, block_every=29)),
]


class TestReplayIdentity:
    @pytest.mark.parametrize("config", CONFIGS,
                             ids=lambda c: f"N{c.num_inputs}-V{c.value_width}-"
                                           f"{c.variant.name}-D{c.kv_fifo_depth}")
    @pytest.mark.parametrize("pattern", PATTERNS, ids=lambda p: p[0])
    def test_batched_replay_matches_event_loop(self, config, pattern):
        rounds = make_rounds(400, 24, 512, **pattern[1])
        fast = run_replay(config, rounds, instrumented=False)
        slow = run_replay(config, rounds, instrumented=True)
        assert_reports_identical(fast, slow)

    def test_short_runs_fall_back_exactly(self):
        """Runs below the settle threshold take the per-pair loop."""
        config = FpgaConfig(num_inputs=2, value_width=16)
        rounds = make_rounds(5, 24, 512)
        fast = run_replay(config, rounds, instrumented=False)
        slow = run_replay(config, rounds, instrumented=True)
        assert_reports_identical(fast, slow)

    def test_extrapolated_counters_are_exact_integers(self):
        config = FpgaConfig(num_inputs=2, value_width=16)
        report = run_replay(config, make_rounds(1000, 24, 512),
                            instrumented=False)
        assert report.comparer_rounds == 1000
        assert report.pairs_transferred == 1000


class TestSimulateSyntheticIdentity:
    @pytest.mark.parametrize("pairs_per_input,drop_fraction", [
        ([1500, 1500], 0.0),
        ([200, 2400], 0.0),
        ([1000, 3000], 0.2),
        ([300] * 9, 0.1),
    ])
    def test_matches_instrumented_run(self, pairs_per_input, drop_fraction):
        num_inputs = len(pairs_per_input)
        config = FpgaConfig(num_inputs=num_inputs, value_width=16)
        fast = simulate_synthetic(config, pairs_per_input, 16, 512,
                                  drop_fraction=drop_fraction)
        with obs.scoped(MetricsRegistry()):
            slow = simulate_synthetic(config, pairs_per_input, 16, 512,
                                      drop_fraction=drop_fraction)
        assert_reports_identical(fast, slow)


def build_image(keys, seq0=1, value_len=100):
    options = Options(compression="none", bloom_bits_per_key=0)
    comparator = InternalKeyComparator(BytewiseComparator())
    dest = _BufferFile()
    builder = TableBuilder(options, dest, comparator)
    for i, key in enumerate(keys):
        builder.add(encode_internal_key(key, seq0 + i, TYPE_VALUE),
                    bytes(value_len))
    builder.finish()
    return dest.getvalue()


class TestEngineIdentity:
    def test_long_tail_merge_matches_instrumented_run(self):
        """A 2-input merge with a long single-input tail — the case the
        engine batches — must match the event loop cycle-for-cycle and
        produce the same output images."""
        head = build_image([b"h%012d" % i for i in range(150)], seq0=10000)
        tail = build_image([b"t%012d" % i for i in range(2000)])
        config = FpgaConfig(num_inputs=2, value_width=16)
        fast = CompactionEngine(config, check_resources=False).run_on_images(
            [[head], [tail]])
        with obs.scoped(MetricsRegistry()):
            slow = CompactionEngine(config,
                                    check_resources=False).run_on_images(
                [[head], [tail]])
        assert_reports_identical(fast.timing, slow.timing)
        assert [o.data for o in fast.outputs] == [o.data for o in slow.outputs]

    def test_shadowed_tail_with_drops_matches(self):
        """Duplicate user keys in the tail make the Comparer drop pairs
        mid-run; the batching must split and still match."""
        keys = []
        for i in range(600):
            keys.append(b"k%012d" % i)
        newer = build_image(keys[:50], seq0=50000)
        older = build_image(keys, seq0=1)
        config = FpgaConfig(num_inputs=2, value_width=16)
        fast = CompactionEngine(config, check_resources=False).run_on_images(
            [[newer], [older]], drop_deletions=True)
        with obs.scoped(MetricsRegistry()):
            slow = CompactionEngine(config,
                                    check_resources=False).run_on_images(
                [[newer], [older]], drop_deletions=True)
        assert_reports_identical(fast.timing, slow.timing)
        assert [o.data for o in fast.outputs] == [o.data for o in slow.outputs]
