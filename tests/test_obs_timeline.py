"""The modeled timeline on the tracer: cursor and cap semantics, the
Chrome export of modeled-clock tracks, and the pipeline / device /
system-simulator intervals stitching into one trace."""

import importlib.util
import json
import os

import pytest

from repro import obs
from repro.fpga.config import FpgaConfig
from repro.fpga.engine import simulate_synthetic
from repro.fpga.pipeline_sim import PipelineTimer
from repro.lsm.options import Options
from repro.obs import tracing
from repro.obs.tracing import Tracer, spans_to_chrome_trace
from repro.sim.system import SystemConfig, simulate_fillrandom

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "validate_trace", os.path.join(REPO_ROOT, "tools", "validate_trace.py"))
validate_trace = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(validate_trace)


def config(**kwargs):
    defaults = dict(num_inputs=2, value_width=16, w_in=64, w_out=64)
    defaults.update(kwargs)
    return FpgaConfig(**defaults)


def intervals(tracer, track=None):
    """Modeled spans (not counter samples), optionally of one track."""
    return [s for s in tracer.spans
            if s.kind == "span" and s.track is not None
            and (track is None or s.track == track)]


def chrome(tracer):
    return spans_to_chrome_trace([s.to_dict() for s in tracer.spans],
                                 dropped_events=tracer.dropped_events)


class TestRecorder:
    def test_interval_and_counter_recording(self):
        tracer = Tracer()
        tracer.record_sim_span("round", 0.0, 2.0, track="comparer",
                               winner=1)
        tracer.counter("fifo[0]", 2.0, 1)
        assert len(tracer.spans) == 2
        span, sample = tracer.spans
        assert (span.name, span.track, span.start_sim, span.end_sim,
                span.attrs) == ("round", "comparer", 0.0, 2.0,
                                {"winner": 1})
        assert sample.to_dict()["type"] == "counter"
        assert (sample.track, sample.start_sim, sample.attrs) == (
            "fifo[0]", 2.0, {"value": 1})

    def test_cursor_never_moves_backward(self):
        tracer = Tracer()
        tracer.record_sim_span("a", 0.0, 10.0)
        tracer.record_sim_span("b", 2.0, 5.0)
        assert tracer.sim_cursor == 10.0
        phase = tracer.phase("phase:pcie_in", 1.5)
        assert (phase.start_sim, phase.end_sim) == (10.0, 11.5)
        assert tracer.sim_cursor == 11.5

    def test_bounded_memory_drops_and_counts(self, monkeypatch):
        monkeypatch.setattr(tracing, "MAX_EVENTS", 2)
        tracer = Tracer()
        for i in range(5):
            tracer.record_sim_span("e", float(i), float(i + 1), track="t")
        assert len(tracer.spans) == 2
        assert tracer.dropped_events == 3
        assert chrome(tracer)["otherData"]["dropped_events"] == 3

    def test_chrome_export_structure(self):
        tracer = Tracer()
        with tracer.span("compaction"):
            tracer.record_sim_span("round", 1e-6, 3e-6, track="comparer")
            tracer.record_sim_span("phase:pcie_in", 0.0, 1e-6)
            tracer.counter("fifo[0]", 3e-6, 1)
        events = chrome(tracer)["traceEvents"]
        metas = [e for e in events if e["ph"] == "M"]
        assert {m["args"]["name"] for m in metas
                if m["name"] == "process_name"} == {"repro tracer",
                                                    "modeled clock"}
        assert {m["args"]["name"] for m in metas
                if m["name"] == "thread_name"} == {"comparer",
                                                   "phase:pcie_in"}
        # The wall span keeps its track; modeled ones sort by time.
        xs = [(e["pid"], e["tid"], e["name"]) for e in events
              if e["ph"] == "X"]
        assert xs == [("host", "spans", "compaction"),
                      ("model", "phase:pcie_in", "phase:pcie_in"),
                      ("model", "comparer", "round")]
        modeled = [e for e in events if e["ph"] == "X"
                   and e["pid"] == "model"]
        assert [(e["ts"], e["dur"]) for e in modeled] == [
            pytest.approx((0.0, 1.0)), pytest.approx((1.0, 2.0))]
        counters = [e for e in events if e["ph"] == "C"]
        assert counters[0]["args"]["value"] == 1
        assert "dropped_events" not in chrome(tracer)["otherData"]

    def test_concurrent_intervals_get_lanes(self):
        tracer = Tracer()
        tracer.record_sim_span("a", 0.0, 2e-6, track="sim.compaction")
        tracer.record_sim_span("b", 1e-6, 3e-6, track="sim.compaction")
        tracer.record_sim_span("c", 2e-6, 4e-6, track="sim.compaction")
        events = chrome(tracer)["traceEvents"]
        assert [(e["name"], e["tid"]) for e in events if e["ph"] == "X"] \
            == [("a", "sim.compaction"), ("b", "sim.compaction #2"),
                ("c", "sim.compaction")]
        errors = validate_trace.validate({"traceEvents": events})
        assert not [e for e in errors if "overlaps" in e], errors

    def test_write_chrome_trace_round_trips(self, tmp_path):
        tracer = Tracer()
        tracer.record_sim_span("kernel_run", 0.0, 5e-6, track="kernel",
                               cycles=1000, clock_mhz=200.0)
        path = str(tmp_path / "t.trace.json")
        tracer.write_chrome_trace(path)
        with open(path) as handle:
            trace = json.load(handle)
        assert validate_trace.validate(trace) == []
        assert any(e.get("name") == "kernel_run"
                   for e in trace["traceEvents"])


class TestPipelineInstrumentation:
    def run_with_timeline(self, **synthetic_kwargs):
        tracer = Tracer(tracks=True)
        cfg = synthetic_kwargs.pop("config", config())
        with obs.scoped(tracer=tracer):
            report = simulate_synthetic(
                cfg, synthetic_kwargs.pop("pairs", [200, 200]), 16, 256,
                **synthetic_kwargs)
        return tracer, report, cfg

    def test_tracks_per_module_and_input(self):
        tracer, _, _ = self.run_with_timeline()
        tracks = {span.track for span in intervals(tracer)}
        assert {"decoder[0]", "decoder[1]", "comparer", "value_bus",
                "encoder", "kernel"} <= tracks

    def test_span_matches_total_cycles_within_1pct(self):
        tracer, report, cfg = self.run_with_timeline()
        spans = intervals(tracer)
        first = min(span.start_sim for span in spans)
        last = max(span.end_sim for span in spans)
        expected_us = report.total_cycles / cfg.clock_mhz
        assert (last - first) * 1e6 == pytest.approx(expected_us, rel=0.01)
        (kernel,) = intervals(tracer, "kernel")
        assert kernel.sim_seconds * 1e6 == pytest.approx(expected_us,
                                                         rel=0.01)

    def test_intervals_non_overlapping_within_each_track(self):
        tracer, _, _ = self.run_with_timeline()
        by_track = {}
        for span in intervals(tracer):
            by_track.setdefault(span.track, []).append(
                (span.start_sim, span.end_sim))
        for spans in by_track.values():
            spans.sort()
            for (_, prev_end), (next_start, _) in zip(spans, spans[1:]):
                assert next_start >= prev_end - 1e-15
        assert validate_trace.validate(chrome(tracer)) == []

    def test_consecutive_runs_share_one_contiguous_timeline(self):
        tracer = Tracer(tracks=True)
        cfg = config()
        with obs.scoped(tracer=tracer):
            simulate_synthetic(cfg, [50, 50], 16, 256)
            cursor_after_first = tracer.sim_cursor
            simulate_synthetic(cfg, [50, 50], 16, 256)
        runs = intervals(tracer, "kernel")
        assert len(runs) == 2
        assert runs[1].start_sim == pytest.approx(cursor_after_first)
        assert runs[1].start_sim >= runs[0].end_sim - 1e-15

    def test_fifo_counter_bounded_by_depth(self):
        depth = 3
        tracer, _, _ = self.run_with_timeline(
            config=config(kv_fifo_depth=depth))
        samples = [e for e in chrome(tracer)["traceEvents"]
                   if e["ph"] == "C" and e["name"].startswith("fifo[")]
        assert samples
        assert all(0 <= e["args"]["value"] <= depth for e in samples)

    def test_zero_cost_when_disabled(self):
        timer = PipelineTimer(config())
        assert timer.tracer is obs.NULL_TRACER
        assert timer._profile_intervals is None
        timer.decode_pair(0, 24, 64)
        timer.comparer_round([0], 0, False, 24, 64)
        report = timer.finalize(100)
        assert report.attribution is None
        # A tracer that does not record tracks (a --trace-out stream,
        # the e2e traced pass) keeps the closed-form block path: the run
        # is one kernel_run span under its compaction span.
        tracer = Tracer()
        with obs.scoped(tracer=tracer):
            assert PipelineTimer(config())._profile_intervals is None
            simulate_synthetic(config(), [200, 200], 16, 256)
        assert [s.name for s in tracer.spans] == ["kernel_run",
                                                  "compaction"]


class TestHostMerging:
    def test_device_phases_join_the_unified_trace(self, plain_options):
        from repro.host.device import FcaeDevice
        from repro.lsm.internal import InternalKeyComparator
        from repro.lsm.sstable import TableReader
        from repro.util.comparator import BytewiseComparator
        from tests.conftest import build_table_image, make_entries

        icmp = InternalKeyComparator(BytewiseComparator())

        def reader_for(entries):
            return TableReader(
                build_table_image(entries, plain_options, icmp),
                icmp, plain_options)

        inputs = [[reader_for(make_entries(80, seed=1, seq_base=10_000))],
                  [reader_for(make_entries(80, seed=2, seq_base=1))]]
        tracer = Tracer(tracks=True)
        with obs.scoped(tracer=tracer):
            device = FcaeDevice(config(), plain_options)
            result = device.compact(inputs)
        phases = [s for s in tracer.spans if s.name.startswith("phase:")]
        assert [s.name for s in phases] == [
            "phase:marshal", "phase:pcie_in", "phase:pcie_out"]
        marshal, dma_in, dma_out = phases
        (kernel,) = intervals(tracer, "kernel")
        # marshal -> pcie_in -> kernel -> pcie_out on one modeled clock,
        # each recorded once with the device's own durations.
        assert marshal.end_sim == dma_in.start_sim
        assert dma_in.end_sim == kernel.start_sim
        assert dma_out.start_sim == pytest.approx(kernel.end_sim)
        assert kernel.sim_seconds == pytest.approx(result.kernel_seconds)
        assert dma_in.sim_seconds == pytest.approx(result.pcie_in_seconds)
        assert dma_out.sim_seconds == pytest.approx(result.pcie_out_seconds)
        assert validate_trace.validate(chrome(tracer)) == []


class TestSystemSimulator:
    def test_fillrandom_spans_do_not_overlap(self):
        tracer = Tracer()
        with obs.scoped(tracer=tracer):
            simulate_fillrandom(SystemConfig(
                mode="fcae", options=Options(value_length=512),
                data_size_bytes=64 << 20))
        assert any(s.name == "sim.compaction" for s in tracer.spans)
        errors = validate_trace.validate(chrome(tracer))
        assert not [e for e in errors if "overlaps" in e], errors
