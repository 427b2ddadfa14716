"""Prometheus text exposition: golden output, parser round trip."""

import math
import os

import pytest

from repro.obs import names
from repro.obs.exposition import (
    format_value,
    parse_prometheus_text,
    to_prometheus_text,
    write_prometheus,
)
from repro.obs.registry import MetricsRegistry

GOLDEN = os.path.join(os.path.dirname(__file__), "golden", "exposition.prom")


def build_demo_registry() -> MetricsRegistry:
    reg = MetricsRegistry()
    reg.counter("demo_requests_total", "Requests served.",
                route="fpga").inc(3)
    reg.counter("demo_requests_total", route="software").inc(1.5)
    reg.gauge("demo_queue_depth", "Current queue depth.").set(7)
    hist = reg.histogram("demo_latency_seconds", "Request latency.",
                         buckets=(0.1, 1.0))
    for value in (0.05, 0.5, 5.0):
        hist.observe(value)
    reg.describe("demo_unused_total", "counter", "Registered, never sampled.")
    reg.gauge("demo_labeled", help='Tricky "label" values.',
              path='a\\b"c').set(2.5)
    return reg


class TestGolden:
    def test_matches_golden_file(self):
        with open(GOLDEN) as handle:
            expected = handle.read()
        assert to_prometheus_text(build_demo_registry()) == expected

    def test_write_prometheus(self, tmp_path):
        path = str(tmp_path / "m.prom")
        write_prometheus(path, build_demo_registry())
        with open(GOLDEN) as handle:
            assert open(path).read() == handle.read()


class TestFormatValue:
    def test_integers_render_bare(self):
        assert format_value(7.0) == "7"
        assert format_value(1.5) == "1.5"
        assert format_value(math.inf) == "+Inf"
        assert format_value(-math.inf) == "-Inf"


class TestParser:
    def test_round_trip(self):
        parsed = parse_prometheus_text(
            to_prometheus_text(build_demo_registry()))
        assert parsed["families"]["demo_requests_total"] == "counter"
        assert parsed["families"]["demo_latency_seconds"] == "histogram"
        assert parsed["families"]["demo_unused_total"] == "counter"
        samples = parsed["samples"]
        assert samples["demo_requests_total"][(("route", "fpga"),)] == 3.0
        assert samples["demo_queue_depth"][()] == 7.0
        buckets = samples["demo_latency_seconds_bucket"]
        assert buckets[(("le", "+Inf"),)] == 3.0
        assert samples["demo_latency_seconds_count"][()] == 3.0
        # Escaped label value survives the round trip.
        assert samples["demo_labeled"][(("path", 'a\\b"c'),)] == 2.5

    def test_malformed_sample_raises(self):
        with pytest.raises(ValueError):
            parse_prometheus_text("this is not prometheus\n")
        with pytest.raises(ValueError):
            parse_prometheus_text("# TYPE broken\n")

    def test_empty_registry_renders_empty(self):
        assert to_prometheus_text(MetricsRegistry()) == ""

    def test_duplicate_registry_rendered_once(self):
        reg = build_demo_registry()
        assert to_prometheus_text(reg, reg) == to_prometheus_text(reg)


class TestRegisterAll:
    def test_full_surface_advertised_without_samples(self):
        reg = MetricsRegistry()
        names.register_all(reg)
        parsed = parse_prometheus_text(to_prometheus_text(reg))
        families = parsed["families"]
        for prefix in ("lsm_", "scheduler_", "fpga_pcie_", "fpga_pipeline_"):
            assert any(name.startswith(prefix) for name in families), prefix
        assert families["lsm_writes_total"] == "counter"
        assert families["lsm_level_files"] == "gauge"
        assert families["scheduler_task_input_bytes"] == "histogram"
        assert families["fpga_pipeline_kernel_seconds"] == "histogram"
        # Headers only — no samples yet.
        assert parsed["samples"] == {}
