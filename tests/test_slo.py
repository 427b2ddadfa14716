"""SLO engine: spec parsing (inline dict policies), windowed good/bad
accounting, multi-window burn-rate alert transitions on a fake clock,
exemplar journal events."""

import io

import pytest

from repro.errors import InvalidArgumentError
from repro.obs.events import EventJournal
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import (
    DEFAULT_POLICIES,
    BurnPolicy,
    SloEngine,
    SloSpec,
    build_engine,
    parse_slo_specs,
)
from repro.obs.window import WindowedHistogram


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSpecParsing:
    def test_defaults(self):
        spec = SloSpec("api", "latency", target=0.99,
                       threshold_seconds=0.01)
        assert spec.error_budget == pytest.approx(0.01)
        assert spec.policies == DEFAULT_POLICIES
        assert spec.matches("put", "gold")
        assert spec.matches("get", "batch")

    def test_op_and_tenant_filters(self):
        spec = SloSpec("writes", "latency", threshold_seconds=0.01,
                       op="put", tenant="gold")
        assert spec.matches("put", "gold")
        assert not spec.matches("get", "gold")
        assert not spec.matches("put", "batch")

    def test_latency_requires_threshold(self):
        with pytest.raises(InvalidArgumentError):
            SloSpec("bad", "latency", threshold_seconds=None)

    def test_target_bounds(self):
        for target in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(InvalidArgumentError):
                SloSpec("bad", "availability", target=target)

    def test_inline_dict_policies(self):
        spec = SloSpec("x", "latency", threshold_seconds=0.1, policies=[
            {"name": "only", "short_seconds": 1.0, "long_seconds": 5.0,
             "factor": 2.0}])
        assert isinstance(spec.policies[0], BurnPolicy)
        assert spec.policies[0].long_seconds == 5.0

    def test_policy_window_order_enforced(self):
        with pytest.raises(InvalidArgumentError):
            BurnPolicy("bad", short_seconds=10.0, long_seconds=1.0,
                       factor=2.0)

    def test_parse_specs_rejects_duplicates(self):
        with pytest.raises(InvalidArgumentError, match="duplicate"):
            parse_slo_specs([
                SloSpec("a", "availability", target=0.9),
                SloSpec("a", "availability", target=0.5),
            ])


def good_bad_ring(horizon_seconds, slice_seconds, clock):
    """The ring :class:`SloEngine` keeps per (spec, tenant): good
    operations observe 0.0, bad ones 1.0."""
    return WindowedHistogram(horizon_seconds, buckets=(0.0,), clock=clock,
                             slice_seconds=slice_seconds)


def add(ring, good=0, bad=0):
    for _ in range(good):
        ring.observe(0.0)
    for _ in range(bad):
        ring.observe(1.0)


def totals(ring, window_seconds):
    (good, bad), _, _ = ring.snapshot(window_seconds)
    return good, bad


class TestWindowedCounter:
    """The windowed good/bad counter: :mod:`repro.obs.window`'s slot
    ring as the engine builds it."""

    def test_windowed_totals(self):
        clock = FakeClock()
        ring = good_bad_ring(horizon_seconds=60.0, slice_seconds=1.0,
                             clock=clock)
        add(ring, good=5, bad=1)
        clock.now = 30.0
        add(ring, good=3)
        assert totals(ring, 60.0) == (8, 1)
        # A 10 s window only sees the recent slice.
        assert totals(ring, 10.0) == (3, 0)

    def test_slices_expire_past_horizon(self):
        clock = FakeClock()
        ring = good_bad_ring(horizon_seconds=10.0, slice_seconds=1.0,
                             clock=clock)
        add(ring, bad=7)
        clock.now = 100.0
        add(ring, good=1)
        assert totals(ring, 10.0) == (1, 0)

    def test_bad_fraction_none_when_empty(self):
        ring = good_bad_ring(10.0, 1.0, FakeClock())
        assert ring.snapshot(10.0)[2] == 0
        add(ring, good=1, bad=1)
        good, bad = totals(ring, 10.0)
        assert bad / (good + bad) == pytest.approx(0.5)


def make_engine(clock, registry=None, journal=None):
    spec = SloSpec("api", "latency", target=0.99,
                   threshold_seconds=0.010, op="put", policies=[
                       {"name": "fast", "short_seconds": 10.0,
                        "long_seconds": 60.0, "factor": 5.0}])
    return SloEngine((spec,), registry=registry,
                     journals=() if journal is None else (journal,),
                     clock=clock)


class TestSloEngine:
    def test_good_traffic_never_fires(self):
        clock = FakeClock()
        engine = make_engine(clock)
        for step in range(100):
            clock.now = step * 0.5
            engine.record("put", 0.001, tenant="gold")
        engine.evaluate()
        assert engine.firing() == []
        assert engine.alert_log == []

    def test_bad_storm_fires_then_resolves(self):
        clock = FakeClock()
        engine = make_engine(clock)
        # Burn: every op blows the 10 ms threshold -> bad fraction 1.0,
        # burn = 1.0 / 0.01 = 100 >> factor 5 on both windows.
        for step in range(40):
            clock.now = step * 0.5
            engine.record("put", 0.5, tenant="gold")
        assert engine.firing() == [("api", "gold", "fast")]
        # Recovery: 20 s of good traffic empties the short window while
        # the long window still remembers the storm.
        for step in range(60):
            clock.now = 20.0 + step * 0.5
            engine.record("put", 0.001, tenant="gold")
        assert engine.firing() == []
        states = [a["state"] for a in engine.alert_log]
        assert states == ["firing", "resolved"]
        firing = engine.alert_log[0]
        assert firing["slo"] == "api"
        assert firing["tenant"] == "gold"
        assert firing["policy"] == "fast"
        assert firing["burn_short"] >= 5.0
        assert firing["burn_long"] >= 5.0

    def test_tenants_burn_independently(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        engine = make_engine(clock, registry=registry)
        for step in range(40):
            clock.now = step * 0.5
            engine.record("put", 0.5, tenant="noisy")
            engine.record("put", 0.001, tenant="quiet")
        assert engine.firing() == [("api", "noisy", "fast")]
        events = {tuple(sorted(dict(key).items())): n for key, n
                  in registry.snapshot()["slo_events_total"].items()}
        assert events == {
            (("outcome", "bad"), ("slo", "api"), ("tenant", "noisy")): 40,
            (("outcome", "good"), ("slo", "api"), ("tenant", "quiet")): 40}

    def test_alert_and_exemplar_events_in_journal(self):
        clock = FakeClock()
        sink = io.StringIO()
        journal = EventJournal(sink=sink, keep_events=True)
        engine = make_engine(clock, journal=journal)
        for step in range(40):
            clock.now = step * 0.5
            engine.record("put", 0.5, tenant="gold",
                          trace_id=f"trace-{step}")
        alerts = [e for e in journal.events if e["type"] == "slo_alert"]
        exemplars = [e for e in journal.events if e["type"] == "exemplar"]
        assert len(alerts) == 1
        assert alerts[0]["state"] == "firing"
        assert exemplars, "bad tail ops with traces must emit exemplars"
        # Rate limited: far fewer exemplars than bad ops.
        assert len(exemplars) < 40
        assert exemplars[0]["trace"] == "trace-0"
        assert exemplars[0]["threshold"] == pytest.approx(0.010)

    def test_gauges_published(self):
        clock = FakeClock()
        registry = MetricsRegistry()
        engine = make_engine(clock, registry=registry)
        for step in range(40):
            clock.now = step * 0.5
            engine.record("put", 0.5, tenant="gold")
        engine.evaluate()
        snapshot = registry.snapshot()
        burns = snapshot["slo_burn_rate"]
        assert any(dict(key).get("window") == "short" for key in burns)
        budget = snapshot["slo_error_budget_remaining"]
        assert list(budget.values()) == [0.0]
        events = snapshot["slo_events_total"]
        assert sum(events.values()) == 40

    def test_availability_objective_ignores_latency(self):
        spec = SloSpec("up", "availability", target=0.9, policies=[
            {"name": "only", "short_seconds": 10.0, "long_seconds": 10.0,
             "factor": 2.0}])
        clock = FakeClock()
        engine = SloEngine((spec,), clock=clock)
        for step in range(20):
            clock.now = step * 0.5
            # Slow but successful: availability objective stays green.
            engine.record("get", 99.0, ok=True)
        assert engine.firing() == []
        for step in range(20):
            clock.now = 10.0 + step * 0.5
            engine.record("get", 0.001, ok=False)
        assert engine.firing() == [("up", "default", "only")]

    def test_build_engine_empty_specs(self):
        assert build_engine(()) is None
        assert build_engine(None) is None
        assert build_engine(
            (SloSpec("x", "availability", target=0.9),)) is not None
