"""Span tracing: nesting, JSONL round trips, modeled and simulated time."""

import pytest

from repro import obs
from repro.lsm import LsmDB
from repro.lsm.env import MemEnv
from repro.obs.tracing import (
    NULL_TRACER,
    Tracer,
    read_jsonl,
)


class TestSpans:
    def test_nesting_assigns_parents(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                pass
        assert inner.parent_id == outer.span_id
        assert outer.parent_id is None
        # Children complete (and record) before their parents.
        assert [s.name for s in tracer.spans] == ["inner", "outer"]

    def test_siblings_share_parent(self):
        tracer = Tracer()
        with tracer.span("outer") as outer:
            with tracer.span("a") as a:
                pass
            with tracer.span("b") as b:
                pass
        assert a.parent_id == b.parent_id == outer.span_id

    def test_attrs_via_set(self):
        tracer = Tracer()
        with tracer.span("s", level=1) as span:
            span.set(output_bytes=42)
        assert tracer.spans[0].attrs == {"level": 1, "output_bytes": 42}

    def test_wall_clock_advances(self):
        tracer = Tracer()
        with tracer.span("s"):
            pass
        assert tracer.spans[0].wall_seconds >= 0.0

    def test_phase_records_modeled_duration(self):
        tracer = Tracer()
        with tracer.span("compaction") as parent:
            tracer.phase("phase:kernel", 0.25, cycles=1000)
        phase = tracer.spans[0]
        assert phase.name == "phase:kernel"
        assert phase.parent_id == parent.span_id
        assert phase.sim_seconds == 0.25
        assert phase.wall_seconds == 0.0

    def test_record_sim_span_positions_on_sim_timeline(self):
        tracer = Tracer()
        span = tracer.record_sim_span("sim.flush", 2.0, 3.5, bytes=10)
        assert span.start_sim == 2.0
        assert span.end_sim == 3.5
        assert span.sim_seconds == 1.5


class TestJsonl:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "trace.jsonl")
        tracer = Tracer(sink_path=path, keep_spans=False)
        with tracer.span("outer", level=1):
            tracer.phase("phase:kernel", 0.5)
        tracer.close()
        assert tracer.spans == []

        events = read_jsonl(path)
        assert [e["name"] for e in events] == ["phase:kernel", "outer"]
        outer = events[1]
        children = [e for e in events if e.get("parent") == outer["id"]]
        assert [c["name"] for c in children] == ["phase:kernel"]
        assert children[0]["sim_seconds"] == 0.5
        assert outer["attrs"] == {"level": 1}


class TestNullTracer:
    def test_noop_surface(self):
        with NULL_TRACER.span("x", a=1) as span:
            span.set(b=2)
        assert span.to_dict() == {}
        assert NULL_TRACER.phase("p", 1.0).sim_seconds is None
        assert NULL_TRACER.record_sim_span("s", 0, 1).wall_seconds == 0.0
        NULL_TRACER.close()


class TestDbTraceNesting:
    """The ISSUE's span-nesting check: flush and compaction spans from a
    real store nest correctly and carry their byte attributes."""

    def test_flush_then_compaction_spans(self, options):
        tracer = Tracer()
        with obs.scoped(tracer=tracer):
            db = LsmDB("tracedb", options, env=MemEnv())
            for i in range(3000):
                db.put(f"k{i:010d}".encode(), b"x" * 40)
            db.compact_range()

        by_name = {}
        for span in tracer.spans:
            by_name.setdefault(span.name, []).append(span)
        assert len(by_name["flush"]) == db.stats.flushes
        assert len(by_name["compaction"]) == db.stats.compactions

        ids = {s.span_id: s for s in tracer.spans}

        def runs_under_a_stall_or_alone(span):
            # A writer that ran the step itself was stalled meanwhile;
            # compact_range()'s steps have no enclosing span.
            return (span.parent_id is None
                    or ids[span.parent_id].name == "write.stall")

        assert len(by_name["write.stall"]) == db.stats.stall_episodes
        for flush in by_name["flush"]:
            assert runs_under_a_stall_or_alone(flush)
            assert flush.attrs["bytes"] > 0
        assert sum(f.attrs["bytes"] for f in by_name["flush"]) \
            == db.stats.flush_bytes

        for compaction in by_name["compaction"]:
            assert runs_under_a_stall_or_alone(compaction)
            assert compaction.attrs["input_bytes"] > 0
            assert compaction.attrs["output_bytes"] > 0
        assert sum(c.attrs["input_bytes"] for c in by_name["compaction"]) \
            == db.stats.compaction_input_bytes

        # Every install span nests under a compaction span.
        for install in by_name["compaction.install"]:
            assert ids[install.parent_id].name == "compaction"

    def test_offloaded_compaction_nests_route_and_phases(self, options):
        from repro.fpga.resources import best_feasible_config
        from repro.host.device import FcaeDevice
        from repro.host.scheduler import CompactionScheduler

        tracer = Tracer()
        registry = obs.MetricsRegistry()
        with obs.scoped(registry=registry, tracer=tracer):
            device = FcaeDevice(best_feasible_config(4), options)
            scheduler = CompactionScheduler(device, options)
            db = LsmDB("offdb", options, env=MemEnv(),
                       compaction_executor=scheduler)
            for i in range(3000):
                db.put(f"k{i:010d}".encode(), b"x" * 40)
            db.compact_range()

        assert scheduler.stats.fpga_tasks > 0
        ids = {s.span_id: s for s in tracer.spans}
        routes = [s for s in tracer.spans if s.name == "compaction.route"]
        assert routes
        for route in routes:
            assert ids[route.parent_id].name == "compaction"
        phases = [s for s in tracer.spans if s.name.startswith("phase:")
                  or s.name == "kernel_run"]
        assert {ids[p.parent_id].name for p in phases} \
            == {"compaction.route"}
        # Modeled kernel time in the trace equals the scheduler's total.
        kernel = sum(p.sim_seconds for p in phases
                     if p.name == "kernel_run")
        assert kernel == pytest.approx(scheduler.stats.fpga_kernel_seconds)
