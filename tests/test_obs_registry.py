"""Metrics registry: counters, gauges, histograms, families."""

import math
import threading

import pytest

from repro.errors import InvalidArgumentError
from repro.obs.registry import (
    BYTES_BUCKETS,
    MetricsRegistry,
    SECONDS_BUCKETS,
)


@pytest.fixture
def registry():
    return MetricsRegistry()


class TestCounter:
    def test_starts_at_zero_and_accumulates(self, registry):
        counter = registry.counter("c_total")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_rejects_negative_increment(self, registry):
        with pytest.raises(InvalidArgumentError):
            registry.counter("c_total").inc(-1)

    def test_get_or_create_returns_same_child(self, registry):
        a = registry.counter("c_total", route="fpga")
        b = registry.counter("c_total", route="fpga")
        assert a is b
        other = registry.counter("c_total", route="software")
        assert other is not a

    def test_label_order_does_not_matter(self, registry):
        a = registry.counter("c_total", a="1", b="2")
        b = registry.counter("c_total", b="2", a="1")
        assert a is b


class TestGauge:
    def test_set_inc_dec(self, registry):
        gauge = registry.gauge("g")
        gauge.set(5)
        gauge.inc(2)
        gauge.dec(3)
        assert gauge.value == 4.0

    def test_set_max_is_high_water(self, registry):
        gauge = registry.gauge("g")
        gauge.set_max(3)
        gauge.set_max(1)
        assert gauge.value == 3.0


class TestHistogram:
    def test_cumulative_counts_end_with_inf(self, registry):
        hist = registry.histogram("h", buckets=(1.0, 10.0))
        for value in (0.5, 5.0, 50.0, 0.1):
            hist.observe(value)
        counts = dict(hist.cumulative_counts())
        assert counts[1.0] == 2
        assert counts[10.0] == 3
        assert counts[math.inf] == 4
        assert hist.count == 4
        assert hist.sum == pytest.approx(55.6)

    def test_boundary_value_lands_in_le_bucket(self, registry):
        hist = registry.histogram("h", buckets=(1.0, 10.0))
        hist.observe(1.0)
        assert dict(hist.cumulative_counts())[1.0] == 1

    def test_default_buckets(self, registry):
        hist = registry.histogram("h")
        assert hist.buckets == SECONDS_BUCKETS
        assert BYTES_BUCKETS[0] == 4096


class TestFamilies:
    def test_kind_mismatch_raises(self, registry):
        registry.counter("m_total")
        with pytest.raises(InvalidArgumentError):
            registry.gauge("m_total")

    def test_invalid_names_rejected(self, registry):
        with pytest.raises(InvalidArgumentError):
            registry.counter("bad name")
        with pytest.raises(InvalidArgumentError):
            registry.counter("ok_total", **{"0bad": "x"})

    def test_describe_preregisters_family(self, registry):
        registry.describe("later_total", "counter", "Announced early.")
        families = {f.name: f for f in registry.collect()}
        assert families["later_total"].kind == "counter"
        assert families["later_total"].children == {}
        with pytest.raises(InvalidArgumentError):
            registry.describe("x", "summary")

    def test_collect_sorted_by_name(self, registry):
        registry.counter("z_total")
        registry.counter("a_total")
        assert [f.name for f in registry.collect()] == ["a_total", "z_total"]

    def test_get_value_and_sum_family(self, registry):
        registry.counter("c_total", route="fpga").inc(3)
        registry.counter("c_total", route="software").inc(4)
        assert registry.get_value("c_total", route="fpga") == 3.0
        assert registry.get_value("c_total", route="none") == 0.0
        assert registry.get_value("absent_total") == 0.0
        assert registry.sum_family("c_total") == 7.0

    def test_snapshot(self, registry):
        registry.counter("c_total").inc(2)
        registry.histogram("h", buckets=(1.0,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["c_total"][()] == 2.0
        assert snap["h"][()] == (0.5, 1)

    def test_instance_labels_are_unique(self, registry):
        assert registry.instance_label() != registry.instance_label()


class TestThreadSafety:
    def test_concurrent_increments_lose_nothing(self, registry):
        counter = registry.counter("c_total")

        def work():
            for _ in range(10_000):
                counter.inc()

        threads = [threading.Thread(target=work) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert counter.value == 40_000
