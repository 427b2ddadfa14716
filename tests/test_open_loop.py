"""Open-loop arrival mode: coordinated-omission-free latencies, tenant
isolation of the accounting, SLO alerts and exemplars landing in one
journal whose traces resolve to the causing maintenance events, and the
strict journal validator accepting the whole stream."""

import importlib.util
import io
import os

import pytest

from repro import obs
from repro.errors import InvalidArgumentError
from repro.lsm.options import Options
from repro.obs.events import EventJournal
from repro.obs.registry import MetricsRegistry
from repro.obs.slo import SloSpec
from repro.sim.system import (
    OpenLoopSimulator,
    SystemConfig,
    TenantSpec,
    simulate_open_loop,
)

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
_spec = importlib.util.spec_from_file_location(
    "validate_events",
    os.path.join(REPO_ROOT, "tools", "validate_events.py"))
validate_events = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(validate_events)


def small_config(mode="leveldb"):
    # Tiny memtables + incompressible sim bytes keep maintenance churn
    # high so short runs exercise flushes, compactions and stalls.
    options = Options(value_length=1024, write_buffer_size=256 * 1024,
                      compression="none")
    return SystemConfig(mode=mode, options=options,
                        data_size_bytes=1 << 20)


STORM = TenantSpec("storm", arrival_rate=100_000, workload="load", seed=7)
GOLD = TenantSpec("gold", arrival_rate=10_000, workload="b", seed=3)

TIGHT_SLO = (
    SloSpec("put-tight", "latency", target=0.999, threshold_seconds=5e-4,
            op="put", policies=[
                {"name": "fast", "short_seconds": 2.0,
                 "long_seconds": 10.0, "factor": 10.0}]),
)


class TestTenantSpec:
    def test_validation(self):
        with pytest.raises(InvalidArgumentError):
            TenantSpec("", arrival_rate=1.0)
        with pytest.raises(InvalidArgumentError):
            TenantSpec("t", arrival_rate=0.0)
        with pytest.raises(InvalidArgumentError):
            TenantSpec("t", arrival_rate=1.0, workload="nope")
        with pytest.raises(InvalidArgumentError):
            TenantSpec("t", arrival_rate=1.0, distribution="gaussian")

    def test_unique_tenant_names_required(self):
        with pytest.raises(InvalidArgumentError, match="unique"):
            OpenLoopSimulator(small_config(),
                              [TenantSpec("a", 10.0),
                               TenantSpec("a", 20.0)], 1.0)

    def test_at_least_one_tenant(self):
        with pytest.raises(InvalidArgumentError):
            OpenLoopSimulator(small_config(), [], 1.0)


class TestCoordinatedOmission:
    def test_open_loop_p99_exceeds_service_only_under_saturation(self):
        # Offered write load far above what the throttled foreground
        # core sustains: arrival-to-completion must dwarf service time.
        result = simulate_open_loop(small_config(), [STORM], 1.0)
        storm = result.tenants["storm"]
        assert storm.writes > 1000
        assert storm.latency_percentile(99) > \
            10 * storm.service_percentile(99)
        assert storm.mean_queue_delay > 0.0

    def test_unloaded_tenant_sees_service_time_only(self):
        calm = TenantSpec("calm", arrival_rate=50.0, workload="load",
                          seed=5)
        result = simulate_open_loop(small_config(), [calm], 1.0)
        stats = result.tenants["calm"]
        assert stats.ops > 10
        # 50 writes/s against a ~200k ops/s core: no queueing.
        assert stats.latency_percentile(99) == pytest.approx(
            stats.service_percentile(99), rel=0.01)

    def test_deterministic_across_runs(self):
        a = simulate_open_loop(small_config(), [STORM, GOLD], 0.5)
        b = simulate_open_loop(small_config(), [STORM, GOLD], 0.5)
        assert a.total_ops == b.total_ops
        assert a.system.elapsed_seconds == b.system.elapsed_seconds
        for name in a.tenants:
            assert a.tenants[name].latencies == b.tenants[name].latencies


class TestTenantAccounting:
    def test_read_write_split_follows_workload(self):
        result = simulate_open_loop(small_config(), [GOLD], 0.5)
        gold = result.tenants["gold"]
        # YCSB B: 95% reads.
        assert gold.reads > gold.writes * 5
        assert gold.ops == gold.reads + gold.writes

    def test_per_tenant_windows_published(self):
        registry = MetricsRegistry()
        with obs.scoped(registry=registry):
            simulate_open_loop(small_config(), [STORM, GOLD], 0.5)
        snapshot = registry.snapshot()
        latency = snapshot["sim_op_latency_window_seconds"]
        tenants = {dict(key).get("tenant") for key in latency}
        assert {"storm", "gold"} <= tenants


class TestSloObservatoryEndToEnd:
    def run_demo(self):
        sink = io.StringIO()
        journal = EventJournal(sink=sink, keep_events=True)
        registry = MetricsRegistry()
        with obs.scoped(registry=registry, events=journal):
            result = simulate_open_loop(
                small_config(), [STORM, GOLD], 1.0,
                slo_specs=TIGHT_SLO)
        return result, journal, registry

    def test_burn_alerts_fire_and_land_in_journal(self):
        result, journal, _ = self.run_demo()
        assert result.slo_firing, "saturated run must fire the tight SLO"
        alerts = [e for e in journal.events if e["type"] == "slo_alert"]
        assert alerts
        assert alerts[0]["state"] == "firing"
        assert alerts[0]["slo"] == "put-tight"
        assert result.alert_transitions[0]["slo"] == "put-tight"

    def test_exemplar_traces_resolve_to_maintenance_events(self):
        _, journal, _ = self.run_demo()
        exemplars = [e for e in journal.events if e["type"] == "exemplar"]
        assert exemplars, "tail ops above threshold must emit exemplars"
        maintenance_traces = {
            e.get("trace") for e in journal.events
            if e["type"] in ("compaction_start", "flush_start",
                             "stall_start")}
        resolved = [e for e in exemplars
                    if e["trace"] in maintenance_traces]
        assert resolved, ("at least one exemplar must walk back to the "
                          "compaction/flush/stall that delayed it")

    def test_journal_passes_strict_validation(self):
        _, journal, _ = self.run_demo()
        errors = validate_events.validate(journal.events, strict=True)
        assert errors == []

    def test_compaction_events_balance_with_payloads(self):
        _, journal, _ = self.run_demo()
        starts = [e for e in journal.events
                  if e["type"] == "compaction_start"]
        finishes = [e for e in journal.events
                    if e["type"] == "compaction_finish"]
        assert starts
        assert len(starts) == len(finishes)
        for event in finishes:
            assert event["output_level"] == event["level"] + 1
            assert event["input_bytes"] > 0
            assert "sim_ts" in event

    def test_burn_gauges_and_slo_counters_in_registry(self):
        _, _, registry = self.run_demo()
        snapshot = registry.snapshot()
        assert any(sum(1 for _ in snapshot.get(family, {}))
                   for family in ("slo_burn_rate", "slo_events_total"))
        events = snapshot["slo_events_total"]
        bad = sum(v for key, v in events.items()
                  if dict(key).get("outcome") == "bad")
        assert bad > 0


class TestValidatorModes:
    def base_events(self):
        sink = io.StringIO()
        journal = EventJournal(sink=sink, keep_events=True)
        journal.emit("flush_start")
        journal.emit("flush_finish", bytes=1024)
        return journal.events

    def test_tolerant_mode_accepts_unknown_types(self):
        events = [dict(e) for e in self.base_events()]
        events.append({"v": 1, "type": "from_the_future",
                       "seq": events[-1]["seq"] + 1,
                       "ts": events[-1]["ts"]})
        assert validate_events.validate(events) == []
        errors = validate_events.validate(events, strict=True)
        assert any("unknown event type" in e for e in errors)

    def test_strict_requires_slo_alert_payload(self):
        events = [dict(e) for e in self.base_events()]
        events.append({"v": 1, "type": "slo_alert",
                       "seq": events[-1]["seq"] + 1,
                       "ts": events[-1]["ts"], "slo": "x"})
        assert validate_events.validate(events) == []
        errors = validate_events.validate(events, strict=True)
        assert any("missing field" in e for e in errors)

    def test_strict_requires_exemplar_payload(self):
        events = [dict(e) for e in self.base_events()]
        events.append({"v": 1, "type": "exemplar",
                       "seq": events[-1]["seq"] + 1,
                       "ts": events[-1]["ts"], "trace": "t-1"})
        errors = validate_events.validate(events, strict=True)
        missing = {e.split()[-1] for e in errors if "missing field" in e}
        assert missing == {"'slo'", "'tenant'", "'value'"}

    def test_unknown_still_checked_for_seq_discipline(self):
        events = [dict(e) for e in self.base_events()]
        events.append({"v": 1, "type": "from_the_future",
                       "seq": 99, "ts": events[-1]["ts"]})
        errors = validate_events.validate(events)
        assert any("seq" in e for e in errors)
