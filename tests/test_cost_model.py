"""Device cost model: the paper's Tables II/III periods and the speed
trends they imply, checked on the pipeline simulator that charges them."""

import pytest

from repro.fpga.config import FpgaConfig
from repro.fpga.engine import simulate_synthetic
from repro.fpga.pipeline_sim import PipelineTimer


def config(n=2, v=16):
    return FpgaConfig(num_inputs=n, value_width=v,
                      w_in=max(v, 8), w_out=64)


def one_round(cfg, key_len, value_len):
    """Decode one pair on input 0 and pass it through the Keep path."""
    timer = PipelineTimer(cfg)
    timer.decode_pair(0, key_len, value_len)
    timer.comparer_round([0], winner=0, drop=False, key_len=key_len,
                         value_len=value_len)
    return timer.finalize(input_bytes=key_len + value_len)


def speed(cfg, value_length, pairs_per_input=300):
    report = simulate_synthetic(cfg, [pairs_per_input] * cfg.num_inputs,
                                16, value_length)
    return report.speed_mbps(cfg)


class TestPeriods:
    def test_comparer_fanin_term(self):
        # 2 + ceil(log2 N) Comparer cycles per key byte.
        assert one_round(config(n=2), 1, 16).comparer_busy_cycles == 3
        assert one_round(config(n=9), 1, 16).comparer_busy_cycles == 6

    def test_table3_decoder(self):
        # L_key + L_value / V
        report = one_round(config(v=16), 24, 1024)
        assert report.decoder_busy_cycles == pytest.approx(24 + 64)

    def test_table3_comparer(self):
        # (2 + ceil(log2 N)) * L_key
        assert one_round(config(n=2), 24, 64).comparer_busy_cycles == 72
        assert one_round(config(n=9), 24, 64).comparer_busy_cycles == 144

    def test_table3_transfer(self):
        # max(L_key, L_value / V); the value bus then drains the value
        # into the output buffer at output_buffer_width bytes/cycle.
        def transfer(v, value_len):
            cfg = config(v=v)
            report = one_round(cfg, 24, value_len)
            return (report.value_bus_busy_cycles
                    - value_len / cfg.output_buffer_width)
        assert transfer(64, 1024) == pytest.approx(24)   # max(24, 16)
        assert transfer(8, 2048) == pytest.approx(256)


class TestSpeeds:
    def test_steady_state_positive_and_monotone_in_v(self):
        speeds = [speed(config(v=v), 1024) for v in (8, 16, 32, 64)]
        assert all(s > 0 for s in speeds)
        assert speeds == sorted(speeds)

    def test_serialized_speed_increases_with_value_length(self):
        cfg = config(v=16)
        speeds = [speed(cfg, L) for L in (64, 256, 1024)]
        assert speeds == sorted(speeds)

    def test_nine_input_slower_at_small_values(self):
        two = speed(config(n=2, v=8), 64)
        nine = speed(FpgaConfig(num_inputs=9, value_width=8, w_in=8), 64)
        assert nine < two

    def test_gap_narrows_at_long_values(self):
        def ratio(L):
            two = speed(config(n=2, v=8), L)
            nine = speed(FpgaConfig(num_inputs=9, value_width=8, w_in=8), L)
            return nine / two
        assert ratio(2048) > ratio(64)
