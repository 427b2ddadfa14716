"""End-to-end observability through the CLIs (the ISSUE's acceptance
check): ``--metrics-out`` dumps parse, advertise all subsystem families,
and trace spans nest with phase totals matching the metrics; the
event-timeline flags (``--chrome-trace``/``--profile``/``--bench-json``)
produce valid artifacts that the tools under ``tools/`` accept."""

import json
import os
import subprocess
import sys

import pytest

from repro.bench.cli import main as bench_main
from repro.lsm.cli import main as lsm_main
from repro.obs.exposition import parse_prometheus_text
from repro.obs.tracing import read_jsonl

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_tool(name, *args):
    return subprocess.run(
        [sys.executable, os.path.join(REPO_ROOT, "tools", name), *args],
        capture_output=True, text=True)


@pytest.fixture(scope="module")
def fig12_outputs(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("fig12obs")
    metrics_path = str(tmp / "m.prom")
    trace_path = str(tmp / "t.jsonl")
    assert bench_main(["fig12", "--scale", "0.05",
                       "--metrics-out", metrics_path,
                       "--trace-out", trace_path,
                       "--profile", str(tmp / "p.json")]) == 0
    return metrics_path, trace_path


class TestBenchAcceptance:
    def test_metrics_dump_parses_with_all_families(self, fig12_outputs):
        metrics_path, _ = fig12_outputs
        with open(metrics_path) as handle:
            parsed = parse_prometheus_text(handle.read())
        families = parsed["families"]
        for prefix in ("lsm_", "scheduler_", "fpga_pipeline_"):
            assert any(name.startswith(prefix) for name in families), prefix
        assert parsed["samples"]["fpga_pipeline_runs_total"][()] > 0

    def test_trace_spans_nest(self, fig12_outputs):
        _, trace_path = fig12_outputs
        check_spans_nest(read_jsonl(trace_path))

    def test_phase_totals_match_metrics_within_1pct(self, fig12_outputs):
        metrics_path, trace_path = fig12_outputs
        check_kernel_totals(read_jsonl(trace_path), metrics_path)


def check_spans_nest(events):
    assert events, "trace is empty"
    by_id = {e["id"]: e for e in events}
    compactions = [e for e in events if e["name"] == "compaction"]
    assert compactions
    kernels = [e for e in events if e["name"] == "kernel_run"]
    assert kernels
    for kernel in kernels:
        assert by_id[kernel["parent"]]["name"] == "compaction"


def check_kernel_totals(events, metrics_path):
    traced = sum(e["sim_seconds"] for e in events
                 if e["name"] == "kernel_run")
    with open(metrics_path) as handle:
        parsed = parse_prometheus_text(handle.read())
    reported = sum(
        parsed["samples"]["fpga_pipeline_kernel_seconds_total"].values())
    assert reported > 0
    assert traced == pytest.approx(reported, rel=0.01)


@pytest.fixture(scope="module")
def fig12_timeline_outputs(tmp_path_factory):
    """One run with every sink on: the Chrome trace, the profile and the
    bench JSON, plus the JSONL span stream and the metrics dump the one
    tracer and registry feed beside them."""
    tmp = tmp_path_factory.mktemp("fig12timeline")
    trace_path = str(tmp / "t.trace.json")
    profile_path = str(tmp / "p.json")
    bench_path = str(tmp / "BENCH_fig12.json")
    assert bench_main(["fig12", "--scale", "0.05",
                       "--chrome-trace", trace_path,
                       "--profile", profile_path,
                       "--bench-json", bench_path,
                       "--trace-out", str(tmp / "t.jsonl"),
                       "--metrics-out", str(tmp / "m.prom")]) == 0
    return trace_path, profile_path, bench_path


class TestBothSinks:
    """``--trace-out`` and ``--chrome-trace`` together: one tracer
    streams the JSONL and exports the Chrome file of the same run."""

    def test_jsonl_nests_and_totals_match(self, fig12_timeline_outputs):
        trace_path, _, _ = fig12_timeline_outputs
        tmp = os.path.dirname(trace_path)
        events = read_jsonl(os.path.join(tmp, "t.jsonl"))
        check_spans_nest(events)
        check_kernel_totals(events, os.path.join(tmp, "m.prom"))
        # The per-module intervals and FIFO samples are in the stream.
        assert sum(1 for e in events if e["type"] == "counter") > 0
        assert any(e.get("track") == "decoder[8]" for e in events)

    def test_profile_needs_no_event_recording(self, fig12_outputs,
                                              fig12_timeline_outputs):
        """``--profile`` reads only the registry: without
        ``--chrome-trace`` it writes the same report as beside it."""
        metrics_path, _ = fig12_outputs
        _, with_chrome, _ = fig12_timeline_outputs
        without = os.path.join(os.path.dirname(metrics_path), "p.json")
        with open(without) as a, open(with_chrome) as b:
            assert json.load(a) == json.load(b)


class TestChromeTraceAcceptance:
    """``fcae-bench fig12 --chrome-trace t.json`` must yield a valid
    Chrome trace: parseable JSON, one named track per pipeline module
    and per-input FIFO, non-overlapping per-track intervals, and kernel
    spans within 1% of ``TimingReport.total_cycles`` at the clock."""

    def test_trace_parses_with_module_and_fifo_tracks(
            self, fig12_timeline_outputs):
        trace_path, _, _ = fig12_timeline_outputs
        with open(trace_path) as handle:
            trace = json.load(handle)
        events = trace["traceEvents"]
        thread_tracks = {e["args"]["name"] for e in events
                         if e["ph"] == "M" and e["name"] == "thread_name"}
        # fig12 runs 2-input and 9-input engines: per-input decoders.
        for i in range(9):
            assert f"decoder[{i}]" in thread_tracks
        for module in ("comparer", "value_bus", "encoder", "kernel"):
            assert module in thread_tracks
        counter_series = {e["name"] for e in events if e["ph"] == "C"}
        assert {f"fifo[{i}]" for i in range(9)} <= counter_series

    def test_intervals_non_overlapping_and_kernel_spans_match(
            self, fig12_timeline_outputs):
        trace_path, _, _ = fig12_timeline_outputs
        with open(trace_path) as handle:
            trace = json.load(handle)
        last_end = {}
        kernel_runs = 0
        for event in trace["traceEvents"]:
            if event["ph"] != "X":
                continue
            key = (event["pid"], event["tid"])
            assert event["ts"] >= last_end.get(key, 0.0) - 1e-6
            last_end[key] = event["ts"] + event["dur"]
            if event["name"] == "kernel_run":
                kernel_runs += 1
                expected = (event["args"]["cycles"]
                            / event["args"]["clock_mhz"])
                assert event["dur"] == pytest.approx(expected, rel=0.01)
        assert kernel_runs == 12  # 6 value lengths x 2 engines

    def test_validate_trace_tool_accepts(self, fig12_timeline_outputs):
        trace_path, _, _ = fig12_timeline_outputs
        proc = run_tool("validate_trace.py", trace_path)
        assert proc.returncode == 0, proc.stderr
        assert "OK" in proc.stdout

    def test_validate_trace_tool_rejects_garbage(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"traceEvents": [{"ph": "X", "pid": 1, '
                       '"name": "x", "ts": 5, "dur": -1}]}')
        proc = run_tool("validate_trace.py", str(bad))
        assert proc.returncode == 1

    def test_profile_report_fractions_sum_to_one(
            self, fig12_timeline_outputs):
        _, profile_path, _ = fig12_timeline_outputs
        with open(profile_path) as handle:
            profile = json.load(handle)
        modules = profile["kernel"]["modules"]
        total = sum(m["attributed_fraction"] for m in modules.values())
        assert total == pytest.approx(1.0, abs=1e-6)
        assert profile["kernel"]["bottleneck"] in modules
        assert sum(m["bound_runs"] for m in modules.values()) == 12


class TestBenchRegressionTool:
    def test_baseline_diffs_clean_against_itself(
            self, fig12_timeline_outputs):
        _, _, bench_path = fig12_timeline_outputs
        proc = run_tool("check_regression.py", "--baseline", bench_path,
                        "--run", bench_path)
        assert proc.returncode == 0, proc.stderr

    def test_matches_committed_baseline(self, fig12_timeline_outputs):
        _, _, bench_path = fig12_timeline_outputs
        committed = os.path.join(REPO_ROOT, "benchmarks", "baselines",
                                 "BENCH_fig12.json")
        proc = run_tool("check_regression.py", "--baseline", committed,
                        "--run", bench_path)
        assert proc.returncode == 0, proc.stderr

    def test_drift_beyond_tolerance_fails(self, fig12_timeline_outputs,
                                          tmp_path):
        _, _, bench_path = fig12_timeline_outputs
        with open(bench_path) as handle:
            doc = json.load(handle)
        doc["experiments"]["fig12"]["rows"][0][1] *= 1.5
        drifted = tmp_path / "drifted.json"
        drifted.write_text(json.dumps(doc))
        proc = run_tool("check_regression.py", "--baseline", bench_path,
                        "--run", str(drifted))
        assert proc.returncode == 1
        assert "drifted" in proc.stderr

    def test_scale_mismatch_fails(self, fig12_timeline_outputs, tmp_path):
        _, _, bench_path = fig12_timeline_outputs
        with open(bench_path) as handle:
            doc = json.load(handle)
        doc["scale"] = 1.0
        other = tmp_path / "other_scale.json"
        other.write_text(json.dumps(doc))
        proc = run_tool("check_regression.py", "--baseline", bench_path,
                        "--run", str(other))
        assert proc.returncode == 1


class TestAllModeRegistryReset:
    def test_families_do_not_bleed_between_experiments(self, tmp_path,
                                                       monkeypatch):
        """`all` mode must give each experiment a fresh registry: the
        second experiment's dump must not contain samples produced by
        the first."""
        from repro import obs
        from repro.bench import cli
        from repro.bench.common import ExperimentResult

        def fake_first(scale=1.0):
            obs.current_registry().counter(
                "fpga_pipeline_runs_total", inst="first").inc(7)
            return ExperimentResult(name="first", title="first",
                                    columns=["x"], rows=[[1]])

        def fake_second(scale=1.0):
            obs.current_registry().counter(
                "lsm_writes_total", inst="second").inc(3)
            return ExperimentResult(name="second", title="second",
                                    columns=["x"], rows=[[2]])

        monkeypatch.setitem(cli.EXPERIMENTS, "first", fake_first)
        monkeypatch.setitem(cli.EXPERIMENTS, "second", fake_second)
        monkeypatch.setattr(cli, "ALL_ORDER", ("first", "second"))

        metrics_path = str(tmp_path / "m.prom")
        assert bench_main(["all", "--metrics-out", metrics_path]) == 0

        first_path = str(tmp_path / "m.first.prom")
        second_path = str(tmp_path / "m.second.prom")
        assert os.path.exists(first_path)
        assert os.path.exists(second_path)
        with open(first_path) as handle:
            first = parse_prometheus_text(handle.read())
        with open(second_path) as handle:
            second = parse_prometheus_text(handle.read())
        assert first["samples"]["fpga_pipeline_runs_total"][
            (("inst", "first"),)] == 7
        assert not any(key == (("inst", "first"),)
                       for key in second["samples"].get(
                           "fpga_pipeline_runs_total", {}))
        assert second["samples"]["lsm_writes_total"][
            (("inst", "second"),)] == 3

    def test_single_mode_unsuffixed(self, tmp_path):
        metrics_path = str(tmp_path / "m.prom")
        assert bench_main(["table7", "--metrics-out", metrics_path]) == 0
        assert os.path.exists(metrics_path)

    def test_suffixed_path_helper(self):
        from repro.bench.cli import suffixed_path
        assert suffixed_path("m.prom", "fig12") == "m.fig12.prom"
        assert suffixed_path("trace", "fig9") == "trace.fig9"
        assert suffixed_path("m.prom", None) == "m.prom"


class TestSharedSinkFlags:
    def test_unopenable_sink_path_exits_2_in_both_clis(self, tmp_path,
                                                       capsys):
        missing = str(tmp_path / "no" / "such" / "dir" / "out.jsonl")
        assert lsm_main(["stats", str(tmp_path / "db"),
                         "--trace-out", missing]) == 2
        assert bench_main(["table7", "--events-out", missing]) == 2
        assert capsys.readouterr().err.count("cannot open") == 2

    def test_existing_metrics_file_needs_overwrite(self, tmp_path):
        db = str(tmp_path / "db")
        metrics_path = str(tmp_path / "m.prom")
        args = ["put", db, "k", "v", "--metrics-out", metrics_path]
        assert lsm_main(args) == 0
        assert lsm_main(args) == 2
        assert lsm_main(args + ["--overwrite"]) == 0


class TestLsmCli:
    def test_fill_and_compact_with_observability(self, tmp_path):
        db = str(tmp_path / "db")
        metrics_path = str(tmp_path / "m.prom")
        trace_path = str(tmp_path / "t.jsonl")
        for _ in range(4):
            assert lsm_main(["fill", db, "--entries", "4000",
                             "--value-size", "256"]) == 0
        assert lsm_main(["compact", db, "--fpga", "4",
                         "--metrics-out", metrics_path,
                         "--trace-out", trace_path]) == 0

        with open(metrics_path) as handle:
            parsed = parse_prometheus_text(handle.read())
        samples = parsed["samples"]
        tasks = samples["scheduler_backend_tasks_total"]
        assert sum(tasks.values()) >= 1
        assert sum(samples["lsm_compactions_total"].values()) >= 1

        events = read_jsonl(trace_path)
        by_id = {e["id"]: e for e in events}
        routes = [e for e in events if e["name"] == "compaction.route"]
        assert routes
        for route in routes:
            assert by_id[route["parent"]]["name"] == "compaction"
        phases = [e for e in events if e["name"].startswith("phase:")
                  or e["name"] == "kernel_run"]
        assert phases
        traced = sum(p["sim_seconds"] for p in phases)
        reported = sum(samples["scheduler_phase_seconds_total"].values())
        assert traced == pytest.approx(reported, rel=0.01)

    def test_stats_command_uses_property_report(self, tmp_path, capsys):
        db = str(tmp_path / "db")
        assert lsm_main(["fill", db, "--entries", "500"]) == 0
        capsys.readouterr()
        assert lsm_main(["stats", db]) == 0
        out = capsys.readouterr().out
        assert "level 0" in out
        assert "sequence" in out
        assert "block_cache" in out

    def test_metrics_out_without_trace(self, tmp_path):
        db = str(tmp_path / "db")
        metrics_path = str(tmp_path / "m.prom")
        assert lsm_main(["fill", db, "--entries", "200",
                         "--metrics-out", metrics_path]) == 0
        with open(metrics_path) as handle:
            parsed = parse_prometheus_text(handle.read())
        assert sum(parsed["samples"]["lsm_writes_total"].values()) == 200

    def test_trace_is_valid_json_lines(self, tmp_path):
        db = str(tmp_path / "db")
        trace_path = str(tmp_path / "t.jsonl")
        assert lsm_main(["fill", db, "--entries", "2000",
                         "--trace-out", trace_path]) == 0
        with open(trace_path) as handle:
            for line in handle:
                event = json.loads(line)
                assert event["type"] == "span"
