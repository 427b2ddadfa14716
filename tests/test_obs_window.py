"""WindowedHistogram: percentile math, slice expiry on the injected
clock, quantile monotonicity, and gauge publication."""

import random

import pytest

from repro.errors import InvalidArgumentError
from repro.obs.exposition import to_prometheus_text
from repro.obs.registry import MetricsRegistry
from repro.obs.window import (
    SLICES,
    WindowedHistogram,
    nearest_rank,
    publish_window,
    quantile_label,
)


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestPercentiles:
    def test_empty_window_reads_zero(self):
        window = WindowedHistogram()
        assert window.percentile(0.99) == 0.0
        assert window.count == 0
        assert window.sum == 0.0

    def test_interpolation_inside_bucket(self):
        window = WindowedHistogram(buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 0.5, 1.5, 1.5):
            window.observe(value)
        # p50 lands exactly at the boundary of the first bucket.
        assert window.percentile(0.5) == pytest.approx(1.0)
        # p100 exhausts the second bucket (counts 2 of 2 -> upper bound).
        assert window.percentile(1.0) == pytest.approx(2.0)
        assert 0.0 < window.percentile(0.25) <= 1.0

    def test_overflow_bucket_reports_top_bound(self):
        window = WindowedHistogram(buckets=(1.0, 2.0))
        window.observe(50.0)
        assert window.percentile(0.5) == 2.0

    def test_monotone_in_q(self):
        window = WindowedHistogram()
        rng = random.Random(7)
        for _ in range(500):
            window.observe(rng.expovariate(100.0))
        quantiles = [window.percentile(q / 100) for q in range(0, 101, 5)]
        assert quantiles == sorted(quantiles)

    def test_count_and_sum(self):
        window = WindowedHistogram()
        for value in (0.001, 0.002, 0.003):
            window.observe(value)
        assert window.count == 3
        assert window.sum == pytest.approx(0.006)


class TestNearestRank:
    def test_rank_is_floor_of_p_times_n(self):
        values = list(range(10, 0, -1))
        assert nearest_rank(values, 0) == 1
        assert nearest_rank(values, 50) == 6
        assert nearest_rank(values, 95) == 10
        assert nearest_rank(values, 100) == 10

    def test_empty_sample_reads_zero(self):
        assert nearest_rank([], 99) == 0.0

    @pytest.mark.parametrize("percentile", [-1, 100.5])
    def test_out_of_range_rejected(self, percentile):
        with pytest.raises(InvalidArgumentError):
            nearest_rank([1.0], percentile)


class TestExpiry:
    def test_observations_age_out_of_the_window(self):
        clock = FakeClock()
        window = WindowedHistogram(window_seconds=60.0, clock=clock)
        window.observe(0.5)
        assert window.count == 1
        clock.now = 120.0  # two windows later: slice is stale
        assert window.count == 0
        assert window.percentile(0.99) == 0.0

    def test_window_reflects_only_recent_slices(self):
        clock = FakeClock()
        window = WindowedHistogram(window_seconds=60.0,
                                   buckets=(0.01, 0.1, 1.0, 10.0),
                                   clock=clock)
        for _ in range(100):
            window.observe(0.005)   # fast ops, early
        clock.now = 90.0            # early slice expired
        for _ in range(10):
            window.observe(5.0)     # slow ops, now
        assert window.count == 10
        assert window.percentile(0.5) > 1.0

    def test_stale_slot_recycled_in_place(self):
        clock = FakeClock()
        window = WindowedHistogram(window_seconds=3.0, clock=clock)
        for step in range(24):
            clock.now = step / 2
            window.observe(0.01)
        # Ring holds SLICES slots regardless of elapsed time.
        assert len(window._ring) == SLICES
        assert window.count <= 6


class TestValidation:
    def test_bad_construction_rejected(self):
        with pytest.raises(InvalidArgumentError):
            WindowedHistogram(window_seconds=0)
        with pytest.raises(InvalidArgumentError):
            WindowedHistogram(slice_seconds=0)
        with pytest.raises(InvalidArgumentError):
            WindowedHistogram(buckets=(2.0, 1.0))

    def test_quantile_range_checked(self):
        window = WindowedHistogram()
        with pytest.raises(InvalidArgumentError):
            window.percentile(1.5)

    def test_quantile_labels(self):
        assert quantile_label(0.99) == "p99"
        assert quantile_label(0.999) == "p999"
        assert quantile_label(0.75) == "p75"


class TestPublication:
    def test_quantile_gauges_in_exposition(self):
        registry = MetricsRegistry()
        window = WindowedHistogram()
        publish_window(registry, "op_window_seconds",
                       "windowed op latency", window, op="get")
        for _ in range(100):
            window.observe(0.004)
        text = to_prometheus_text(registry)
        lines = [line for line in text.splitlines()
                 if line.startswith("op_window_seconds{")]
        assert len(lines) == 4
        p99_line = next(line for line in lines if 'quantile="p99"' in line)
        assert 'op="get"' in p99_line
        assert 0.0 < float(p99_line.split()[-1]) < 0.1

    def test_republishing_rebinds_the_callback(self):
        registry = MetricsRegistry()
        first = WindowedHistogram()
        publish_window(registry, "w_seconds", "w", first, op="get")
        second = WindowedHistogram()
        second.observe(1.0)
        publish_window(registry, "w_seconds", "w", second, op="get")
        text = to_prometheus_text(registry)
        p999 = next(line for line in text.splitlines()
                    if 'quantile="p999"' in line)
        assert float(p999.split()[-1]) > 0.0

    def test_empty_window_omits_quantile_samples(self):
        # An idle window must disappear from the exposition rather than
        # report a misleading hard zero; samples reappear with traffic.
        clock = FakeClock()
        registry = MetricsRegistry()
        window = WindowedHistogram(window_seconds=60.0, clock=clock)
        publish_window(registry, "idle_window_seconds", "w", window,
                       op="put")
        assert "idle_window_seconds{" not in to_prometheus_text(registry)
        window.observe(0.002)
        assert "idle_window_seconds{" in to_prometheus_text(registry)
        clock.now = 600.0  # every slice expired: samples vanish again
        assert "idle_window_seconds{" not in to_prometheus_text(registry)

