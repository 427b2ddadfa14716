"""Pipeline timing simulator: synchronization and cycle accounting."""

import math

import pytest

from repro.errors import SimulationError
from repro.fpga.config import FpgaConfig, PipelineVariant
from repro.fpga.engine import simulate_synthetic
from repro.fpga.pipeline_sim import PipelineTimer


def config(**kwargs):
    defaults = dict(num_inputs=2, value_width=16, w_in=64, w_out=64)
    defaults.update(kwargs)
    return FpgaConfig(**defaults)


class TestTimerMechanics:
    def test_single_pair_latency(self):
        cfg = config()
        timer = PipelineTimer(cfg)
        timer.decode_pair(0, key_len=24, value_len=160)
        timer.comparer_round([0], winner=0, drop=False, key_len=24,
                             value_len=160)
        report = timer.finalize(input_bytes=200)
        decode = 24 + 160 / 16
        compare = (2 + math.ceil(math.log2(2))) * 24
        transfer = max(24, 160 / 16)
        staging = 160 / 8
        assert report.total_cycles == pytest.approx(
            decode + compare + transfer + staging)

    def test_dropped_pair_skips_value_path(self):
        cfg = config()
        timer = PipelineTimer(cfg)
        timer.decode_pair(0, 24, 160)
        timer.comparer_round([0], 0, drop=True, key_len=24, value_len=160)
        report = timer.finalize(100)
        assert report.pairs_dropped == 1
        assert report.pairs_transferred == 0
        assert report.total_cycles == pytest.approx(
            24 + 10 + (2 + math.ceil(math.log2(2))) * 24)

    def test_comparer_waits_for_all_heads(self):
        cfg = config()
        timer = PipelineTimer(cfg)
        timer.decode_pair(0, 24, 16)
        timer.decode_pair(1, 24, 1600)  # slow decode
        timer.comparer_round([0, 1], winner=0, drop=False, key_len=24,
                             value_len=16)
        # Round start had to wait for input 1's long decode.
        assert timer.report.decoder_stall_cycles > 0

    def test_fifo_overrun_detected(self):
        cfg = config(kv_fifo_depth=1)
        timer = PipelineTimer(cfg)
        timer.decode_pair(0, 24, 16)
        with pytest.raises(SimulationError):
            timer.decode_pair(0, 24, 16)

    def test_pop_without_head_detected(self):
        cfg = config()
        timer = PipelineTimer(cfg)
        with pytest.raises(SimulationError):
            timer.comparer_round([0], 0, False, 24, 16)

    def test_block_flush_counts_writer_time(self):
        cfg = config()
        timer = PipelineTimer(cfg)
        timer.decode_pair(0, 24, 16)
        timer.comparer_round([0], 0, False, 24, 16)
        timer.block_flush(4096)
        report = timer.finalize(100)
        assert report.writer_busy_cycles == pytest.approx(4096 / 64)
        assert report.output_bytes == 4096


class TestFifoBackpressure:
    """§V-C accounting: with ``kv_fifo_depth=1`` the decoder is in
    lockstep with consumption, so a slow value path shows up as decoder
    backpressure, and the FIFO can never hold more than ``depth``."""

    def test_depth_one_accumulates_backpressure(self):
        cfg = config(kv_fifo_depth=1)
        report = simulate_synthetic(cfg, [300, 300], 16, 2048)
        assert report.decoder_backpressure_cycles > 0
        # Backpressure grows with the workload.
        longer = simulate_synthetic(cfg, [600, 600], 16, 2048)
        assert (longer.decoder_backpressure_cycles
                > report.decoder_backpressure_cycles)

    def test_high_water_never_exceeds_depth(self):
        for depth in (1, 2, 4):
            cfg = config(kv_fifo_depth=depth)
            report = simulate_synthetic(cfg, [200, 200], 16, 512)
            assert report.fifo_high_water
            assert all(0 < hw <= depth for hw in report.fifo_high_water)

    def test_exceeding_lookahead_raises(self):
        cfg = config(kv_fifo_depth=2)
        timer = PipelineTimer(cfg)
        timer.decode_pair(0, 24, 64)
        timer.decode_pair(0, 24, 64)
        with pytest.raises(SimulationError):
            timer.decode_pair(0, 24, 64)

    def test_deeper_fifo_reduces_backpressure(self):
        shallow_cfg = config(kv_fifo_depth=1)
        deep_cfg = config(kv_fifo_depth=8)
        shallow = simulate_synthetic(shallow_cfg, [300, 300], 16, 1024)
        deep = simulate_synthetic(deep_cfg, [300, 300], 16, 1024)
        assert (deep.decoder_backpressure_cycles
                <= shallow.decoder_backpressure_cycles)


class TestSyntheticDriver:
    def test_speed_positive(self):
        cfg = config()
        report = simulate_synthetic(cfg, [500, 500], 16, 128)
        assert report.speed_mbps(cfg) > 0
        assert report.comparer_rounds == 1000

    def test_speed_monotone_in_v(self):
        speeds = []
        for v in (8, 16, 32, 64):
            cfg = config(value_width=v)
            speeds.append(simulate_synthetic(
                cfg, [800, 800], 16, 1024).speed_mbps(cfg))
        assert speeds == sorted(speeds)

    def test_speed_increases_with_value_length(self):
        cfg = config()
        speeds = [simulate_synthetic(cfg, [500, 500], 16, L).speed_mbps(cfg)
                  for L in (64, 512, 2048)]
        assert speeds == sorted(speeds)

    def test_drop_fraction_reduces_output(self):
        cfg = config()
        report = simulate_synthetic(cfg, [500, 500], 16, 128,
                                    drop_fraction=0.5, seed=3)
        assert report.pairs_dropped > 300
        assert (report.pairs_dropped + report.pairs_transferred
                == report.comparer_rounds)

    def test_basic_variant_slower_than_full(self):
        full = config()
        basic = config(variant=PipelineVariant.BASIC)
        fast = simulate_synthetic(full, [500, 500], 16, 512).speed_mbps(full)
        slow = simulate_synthetic(basic, [500, 500], 16,
                                  512).speed_mbps(basic)
        assert slow < fast

    def test_deterministic_given_seed(self):
        cfg = config()
        a = simulate_synthetic(cfg, [300, 300], 16, 256, seed=9)
        b = simulate_synthetic(cfg, [300, 300], 16, 256, seed=9)
        assert a.total_cycles == b.total_cycles


class TestTableVShape:
    """The calibrated model must land in the paper's Table V ballpark."""

    @pytest.mark.parametrize("value_length,paper_v16", [
        (64, 164.5), (512, 627.9), (2048, 709.0)])
    def test_within_factor_of_paper(self, value_length, paper_v16):
        cfg = config(value_width=16)
        speed = simulate_synthetic(cfg, [2000, 2000], 16,
                                   value_length).speed_mbps(cfg)
        assert paper_v16 * 0.5 < speed < paper_v16 * 1.5
