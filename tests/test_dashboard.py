"""Dashboard rendering: pure-view frames from a registry snapshot and
the injectable refresh loop behind ``lsm top`` (no real sleeping)."""

import io

from repro.obs.dashboard import CLEAR, render_dashboard, run_dashboard
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SloEngine, SloSpec


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def storming_engine(registry):
    """An engine whose one SLO burns past its factor, gauges
    published."""
    spec = SloSpec("api", "latency", target=0.99, threshold_seconds=0.01,
                   op="put", policies=[
                       {"name": "fast", "short_seconds": 10.0,
                        "long_seconds": 60.0, "factor": 5.0}])
    clock = FakeClock()
    engine = SloEngine((spec,), registry=registry, clock=clock)
    for step in range(40):
        clock.now = step * 0.5
        engine.record("put", 0.5, tenant="gold")
    engine.evaluate()
    return engine


class TestRenderDashboard:
    def test_empty_registry_renders_placeholder(self):
        frame = render_dashboard(MetricsRegistry())
        assert frame.startswith("lsm top")
        assert "(no samples yet)" in frame

    def test_uptime_in_header(self):
        frame = render_dashboard(MetricsRegistry(), uptime_seconds=12.34)
        assert "uptime 12.3s" in frame

    def test_burn_rows_show_both_windows_and_budget(self):
        # Rendered from the registry alone, as bench --top does.
        registry = MetricsRegistry()
        storming_engine(registry)
        frame = render_dashboard(registry)
        assert "slo burn rates:" in frame
        row = next(line for line in frame.splitlines()
                   if line.strip().startswith("api"))
        slo, tenant, policy, short, long, budget = row.split()
        assert (slo, tenant, policy) == ("api", "gold", "fast")
        assert float(short) >= 5.0 and float(long) >= 5.0
        assert budget.endswith("%")

    def test_routing_section(self):
        registry = MetricsRegistry()
        registry.counter("scheduler_backend_tasks_total", "Tasks.",
                         backend="fpga-sim").inc(2)
        registry.counter("scheduler_backend_tasks_total",
                         backend="batch").inc(5)
        registry.counter("scheduler_backend_tasks_total",
                         backend="cpu").inc(1)
        frame = render_dashboard(registry)
        assert "compaction routing:" in frame
        routing = frame[frame.index("compaction routing:"):].splitlines()
        assert [line.split() for line in routing[1:4]] == [
            ["batch", "5", "(62.5%)"], ["cpu", "1", "(12.5%)"],
            ["fpga-sim", "2", "(25.0%)"]]


class TestRunDashboard:
    def test_once_prints_single_frame_without_clear(self):
        out = io.StringIO()
        sleeps = []
        run_dashboard(MetricsRegistry(), iterations=1, out=out,
                      clock=FakeClock(), sleep=sleeps.append)
        text = out.getvalue()
        assert text.count("lsm top") == 1
        assert CLEAR not in text
        assert sleeps == []

    def test_refresh_loop_clears_between_frames(self):
        out = io.StringIO()
        clock = FakeClock()
        sleeps = []

        def sleep(seconds):
            sleeps.append(seconds)
            clock.now += seconds

        run_dashboard(MetricsRegistry(), interval=2.0, iterations=3,
                      out=out, clock=clock, sleep=sleep)
        text = out.getvalue()
        assert text.count("lsm top") == 3
        assert text.count(CLEAR) == 2
        assert sleeps == [2.0, 2.0]
        assert "uptime 4.0s" in text
