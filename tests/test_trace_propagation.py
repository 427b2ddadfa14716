"""Trace-context propagation: a span id minted where a writer stalls
flows into the flushes and merges it runs, the scheduler and the device,
stitching one compaction's host/DMA/kernel spans under a single trace
id."""

import json

from repro.fpga.resources import best_feasible_config
from repro.host.device import FcaeDevice
from repro.host.scheduler import CompactionScheduler
from repro.lsm.db import LsmDB
from repro.lsm.options import Options
from repro.obs.tracing import Tracer, spans_to_chrome_trace


def small_options(write_buffer_size=16 * 1024):
    return Options(block_size=512, sstable_size=8 * 1024,
                   write_buffer_size=write_buffer_size,
                   max_level0_size=64 * 1024, compression="none")


class TestContextApi:
    def test_mint_inside_span_reuses_its_trace(self):
        tracer = Tracer(keep_spans=True)
        ctx = tracer.mint_context()
        with tracer.activate(ctx):
            with tracer.span("outer") as outer:
                inner_ctx = tracer.mint_context()
        assert outer.trace_id == ctx.trace_id
        assert inner_ctx.trace_id == ctx.trace_id
        assert inner_ctx.span_id == outer.span_id

    def test_activate_adopts_remote_context(self):
        tracer = Tracer(keep_spans=True)
        ctx = tracer.mint_context()
        with tracer.activate(ctx):
            with tracer.span("worker") as span:
                pass
        assert span.trace_id == ctx.trace_id
        assert span.parent_id == ctx.span_id

    def test_current_context_falls_back_to_activated(self):
        tracer = Tracer(keep_spans=True)
        ctx = tracer.mint_context()
        assert tracer.current_context() is None
        with tracer.activate(ctx):
            assert tracer.current_context() == ctx

    def test_spans_without_context_carry_no_trace(self):
        tracer = Tracer(keep_spans=True)
        with tracer.span("lonely") as span:
            pass
        assert span.trace_id is None


class TestDbPropagation:
    def test_flush_and_merge_spans_carry_a_trace(self):
        """Flushes run by the writer and the compactions they cascade
        into all land on a trace minted where the writer stalled."""
        tracer = Tracer(keep_spans=True)
        db = LsmDB("tracedb", small_options(), tracer=tracer)
        for i in range(3000):
            db.put(f"k{i % 1200:08d}".encode(), b"v" * 64)
        db.compact_range()
        db.close()

        compactions = [s for s in tracer.spans if s.name == "compaction"]
        flushes = [s for s in tracer.spans if s.name == "flush"]
        assert compactions and flushes
        for span in compactions + flushes:
            assert span.trace_id is not None, \
                f"{span.name} span lost its trace context"

    def test_fpga_compaction_spans_under_one_trace(self, tmp_path):
        """The acceptance check: one offloaded compaction's route and
        host/DMA/kernel phase spans share a single propagated trace id,
        visible in the Chrome-trace export."""
        tracer = Tracer(keep_spans=True)
        device = FcaeDevice(best_feasible_config(2), small_options())
        scheduler = CompactionScheduler(device, small_options(),
                                        tracer=tracer)
        db = LsmDB("fpgadb", small_options(write_buffer_size=1 << 20),
                   tracer=tracer, compaction_executor=scheduler)
        # Two non-overlapping L0 files (the buffer holds each half, so
        # only the flushes make tables) -> a 2-stream pick the N=2
        # engine accepts.
        for i in range(500):
            db.put(f"a{i:08d}".encode(), b"v" * 64)
        db.flush()
        for i in range(500):
            db.put(f"b{i:08d}".encode(), b"v" * 64)
        db.flush()
        with db.tracer.activate(db.tracer.mint_context()):
            assert db.compact_once(level_hint=0)
        db.close()

        compaction = next(s for s in tracer.spans
                          if s.name == "compaction")
        assert compaction.trace_id is not None
        trace = [s for s in tracer.spans
                 if s.trace_id == compaction.trace_id]
        names = {s.name for s in trace}
        assert "compaction.route" in names
        assert any(name.startswith("phase:") for name in names), names
        route = next(s for s in trace if s.name == "compaction.route")
        assert route.attrs["route"] == "fpga-sim"

        chrome = spans_to_chrome_trace([s.to_dict() for s in trace])
        path = tmp_path / "trace.json"
        path.write_text(json.dumps(chrome))
        events = json.loads(path.read_text())["traceEvents"]
        span_events = [e for e in events if e.get("ph") == "X"]
        assert {e["args"].get("trace") for e in span_events} \
            == {compaction.trace_id}
