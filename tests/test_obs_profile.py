"""Critical-path attribution: interval sweep semantics, metric
publication, and contrasting-workload classification."""

import pytest

from repro import obs
from repro.bench.common import N9_CONFIG, VALUE_LENGTHS, two_input_config
from repro.fpga.config import FpgaConfig
from repro.fpga.engine import simulate_synthetic
from repro.obs.profile import (
    CLASSES,
    attribute_intervals,
    profile_from_registry,
    publish_attribution,
    render_profile,
)


def config(**kwargs):
    defaults = dict(num_inputs=2, value_width=16, w_in=64, w_out=64)
    defaults.update(kwargs)
    return FpgaConfig(**defaults)


class TestAttributeIntervals:
    def test_partition_is_exact(self):
        attribution = attribute_intervals(
            [("decoder", 0.0, 4.0), ("comparer", 2.0, 6.0),
             ("value_bus", 5.0, 7.0)], 10.0)
        assert sum(attribution.cycles.values()) == pytest.approx(10.0)
        assert sum(attribution.fractions.values()) == pytest.approx(
            1.0, abs=1e-9)

    def test_downstream_module_wins_overlap(self):
        attribution = attribute_intervals(
            [("decoder", 0.0, 10.0), ("value_bus", 0.0, 10.0)], 10.0)
        assert attribution.cycles["value_bus"] == pytest.approx(10.0)
        assert attribution.cycles["decoder"] == 0.0
        assert attribution.bottleneck == "value_bus"

    def test_idle_time_is_backpressure(self):
        attribution = attribute_intervals([("comparer", 4.0, 6.0)], 10.0)
        assert attribution.cycles["backpressure"] == pytest.approx(8.0)
        assert attribution.bottleneck == "backpressure"

    def test_intervals_clamped_to_run(self):
        attribution = attribute_intervals(
            [("writer", -5.0, 5.0), ("decoder", 8.0, 99.0)], 10.0)
        assert attribution.cycles["writer"] == pytest.approx(5.0)
        assert attribution.cycles["decoder"] == pytest.approx(2.0)
        assert sum(attribution.cycles.values()) == pytest.approx(10.0)

    def test_empty_run(self):
        attribution = attribute_intervals([], 0.0)
        assert attribution.bottleneck == "idle"
        assert all(f == 0.0 for f in attribution.fractions.values())

    def test_as_dict_shape(self):
        attribution = attribute_intervals([("comparer", 0.0, 1.0)], 1.0)
        doc = attribution.as_dict()
        assert set(doc["cycles"]) == set(CLASSES)
        assert doc["bottleneck"] == "comparer"


class TestRunAttribution:
    def run(self, value_length, **cfg_kwargs):
        registry = obs.MetricsRegistry()
        with obs.scoped(registry=registry):
            report = simulate_synthetic(config(**cfg_kwargs), [400, 400],
                                        16, value_length)
        return report, registry

    def test_fractions_sum_to_one(self):
        for value_length in (64, 2048):
            report, _ = self.run(value_length)
            total = sum(report.attribution.fractions.values())
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_contrasting_workloads_name_different_modules(self):
        """The ISSUE's acceptance check: small-value pairs are
        Comparer-bound, large-value pairs are bound by the value path."""
        small, _ = self.run(64)
        large, _ = self.run(2048)
        assert small.attribution.bottleneck == "comparer"
        assert large.attribution.bottleneck == "value_bus"
        assert (small.attribution.bottleneck
                != large.attribution.bottleneck)

    def test_comparer_share_falls_as_values_grow(self):
        """Both Fig 12 engines are Comparer-bound at small values, and the
        Comparer's share of the critical path falls strictly as values
        grow (the trend §V-D1 derives from Tables II/III)."""
        for cfg in (two_input_config(8), N9_CONFIG):
            shares = []
            for value_length in VALUE_LENGTHS:
                with obs.scoped(registry=obs.MetricsRegistry()):
                    report = simulate_synthetic(
                        cfg, [400] * cfg.num_inputs, 16, value_length)
                if value_length == 64:
                    assert report.attribution.bottleneck == "comparer"
                shares.append(report.attribution.fractions["comparer"])
            assert all(a > b for a, b in zip(shares, shares[1:])), shares

    def test_attributed_cycles_partition_total(self):
        report, _ = self.run(512)
        assert sum(report.attribution.cycles.values()) == pytest.approx(
            report.total_cycles)

    def test_bottleneck_metrics_published(self):
        report, registry = self.run(2048)
        assert registry.get_value("fpga_pipeline_bottleneck_runs_total",
                                  module="value_bus") == 1
        attributed = registry.sum_family(
            "fpga_pipeline_bottleneck_cycles_total")
        assert attributed == pytest.approx(report.total_cycles)


class TestPublishAndReport:
    def test_publish_attribution_accumulates(self):
        registry = obs.MetricsRegistry()
        attribution = attribute_intervals([("comparer", 0.0, 4.0)], 10.0)
        publish_attribution(registry, attribution)
        publish_attribution(registry, attribution)
        assert registry.get_value("fpga_pipeline_bottleneck_runs_total",
                                  module="backpressure") == 2
        assert registry.get_value(
            "fpga_pipeline_bottleneck_cycles_total",
            module="comparer") == pytest.approx(8.0)

    def test_profile_from_registry_shape(self):
        registry = obs.MetricsRegistry()
        obs.names.register_all(registry)
        with obs.scoped(registry=registry):
            simulate_synthetic(config(), [200, 200], 16, 256)
        profile = profile_from_registry(registry)
        kernel = profile["kernel"]
        assert kernel["runs"] == 1
        assert kernel["total_cycles"] > 0
        assert set(kernel["modules"]) == set(CLASSES)
        fractions = sum(m["attributed_fraction"]
                        for m in kernel["modules"].values())
        assert fractions == pytest.approx(1.0, abs=1e-6)
        assert kernel["bottleneck"] in CLASSES

    def test_render_profile_mentions_bottleneck(self):
        registry = obs.MetricsRegistry()
        obs.names.register_all(registry)
        with obs.scoped(registry=registry):
            simulate_synthetic(config(), [200, 200], 16, 2048)
        text = render_profile(profile_from_registry(registry))
        assert "bottleneck: value_bus" in text
        assert "comparer" in text
