"""Unified observability: metrics registry, span tracing, exposition.

The paper's entire evaluation is internal measurement — per-phase
compaction time, the PCIe share of offload time, per-module FPGA
utilization, write-pause behavior.  This package is the telemetry
substrate those numbers flow through:

* :mod:`repro.obs.registry` — thread-safe counters / gauges /
  fixed-bucket histograms, grouped into named families;
* :mod:`repro.obs.names` — the canonical family table (``lsm_*``,
  ``scheduler_*``, ``fpga_pcie_*``, ``fpga_pipeline_*``) and binders;
* :mod:`repro.obs.tracing` — nested spans over wall-clock and modeled
  time, streamed as JSONL, with trace-context propagation across
  threads; the pipeline simulator's per-module intervals and FIFO
  counters on the modeled clock (opt-in), and the one Chrome
  trace-event exporter (Perfetto / ``chrome://tracing``);
* :mod:`repro.obs.events` — the flight recorder: an append-only JSONL
  event journal of flushes, compactions, stalls and faults (each
  flush, compaction or stall one episode span), with a replay loader;
* :mod:`repro.obs.schema` — the journal's event schema, stdlib only;
* :mod:`repro.obs.window` — the slot-stamped sliding-window ring:
  per-interval tail latency (p50/p95/p99/p999) and the SLO engine's
  good/bad counts;
* :mod:`repro.obs.opobserver` — the store's per-operation latency
  windows (``get`` / ``put`` / ``write``), off its mutex;
* :mod:`repro.obs.exposition` — Prometheus text format (and a parser);
* :mod:`repro.obs.report` — the LevelDB-style ``repro.stats`` /
  ``repro.levelstats`` properties;
* :mod:`repro.obs.slo` — declarative SLO specs, per-tenant error-budget
  accounting and multi-window burn-rate alerts for the open-loop
  simulator (``fcae-bench slo``), whose ``exemplar`` journal lines walk
  a tail latency back to the flush, merge or stall that caused it;
* :mod:`repro.obs.dashboard` — the ``lsm top`` terminal dashboard
  rendered from registry snapshots;
* :mod:`repro.obs.profile` — critical-path attribution of kernel runs
  (which module bounds throughput) and the ``--profile`` report.

Both CLIs take the same ``--metrics-out`` / ``--trace-out`` /
``--events-out`` / ``--overwrite`` flags: :func:`add_sink_flags` declares
them and :func:`flag_sinks` opens, installs, reports and closes what
they name.

Instrumented components resolve their sinks in this order: an explicit
``metrics=`` / ``tracer=`` constructor argument, then the process-wide
set installed by :func:`install` / :func:`scoped` (how the benchmark
CLIs aggregate a whole run into one dump), else a private registry and
the no-op tracer.  Journal lines go where :func:`journals` says when
they are recorded.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from typing import Iterator, Optional

from repro.errors import ReproError

from repro.obs.registry import (
    BYTES_BUCKETS,
    SECONDS_BUCKETS,
    CallbackGauge,
    Counter,
    Gauge,
    Histogram,
    MetricFamily,
    MetricsRegistry,
)
from repro.obs.tracing import (
    NULL_TRACER,
    NullTracer,
    Span,
    TraceContext,
    Tracer,
    read_jsonl,
    spans_to_chrome_trace,
)
from repro.obs.events import (
    EventJournal,
    JournalSummary,
    episode,
    open_episode_journals,
    record,
    replay,
)
from repro.obs.window import (
    WindowedHistogram,
    publish_window,
    quantile_label,
)
from repro.obs.exposition import (
    parse_prometheus_text,
    to_prometheus_text,
    write_prometheus,
)
from repro.obs import names
from repro.obs.report import render_db_report, render_level_stats
from repro.obs.slo import (
    DEFAULT_POLICIES,
    BurnPolicy,
    SloEngine,
    SloSpec,
    build_engine,
    parse_slo_specs,
)
from repro.obs.dashboard import render_dashboard, run_dashboard

_installed_registry: Optional[MetricsRegistry] = None
_installed_tracer: Optional[Tracer] = None
_installed_events: Optional[EventJournal] = None


def install(registry: Optional[MetricsRegistry] = None,
            tracer: Optional[Tracer] = None,
            events: Optional[EventJournal] = None) -> tuple:
    """Install process-wide defaults; returns a token for
    :func:`uninstall` (the previous tuple)."""
    global _installed_registry, _installed_tracer, _installed_events
    token = (_installed_registry, _installed_tracer, _installed_events)
    if registry is not None:
        _installed_registry = registry
    if tracer is not None:
        _installed_tracer = tracer
    if events is not None:
        _installed_events = events
    return token


def uninstall(token: tuple = (None, None, None)) -> None:
    """Restore the defaults captured by :func:`install`."""
    global _installed_registry, _installed_tracer, _installed_events
    _installed_registry, _installed_tracer, _installed_events = token


@contextmanager
def scoped(registry: Optional[MetricsRegistry] = None,
           tracer: Optional[Tracer] = None,
           events: Optional[EventJournal] = None) -> Iterator[None]:
    """Temporarily install default sinks."""
    token = install(registry=registry, tracer=tracer, events=events)
    try:
        yield
    finally:
        uninstall(token)


class SinkError(ReproError):
    """A sink path named on the command line cannot be opened."""


def add_sink_flags(parser) -> None:
    """Declare the four sink flags on an ``argparse`` parser."""
    parser.add_argument("--metrics-out", metavar="PATH",
                        help="write a Prometheus text-format metrics dump")
    parser.add_argument("--trace-out", metavar="PATH",
                        help="stream span traces as JSONL (appends)")
    parser.add_argument("--events-out", metavar="PATH",
                        help="stream flight-recorder events (flushes, "
                             "compactions, stalls, faults) as JSONL "
                             "(appends)")
    parser.add_argument("--overwrite", action="store_true",
                        help="replace an existing --metrics-out file "
                             "instead of failing")


class FlagSinks:
    """The sinks one command line asked for (see :func:`flag_sinks`)."""

    def __init__(self, args, tracer, events, out):
        self._args = args
        self.tracer = tracer
        self.events = events
        self._out = out

    @contextmanager
    def installed(self, want_registry: bool = False
                  ) -> Iterator[Optional[MetricsRegistry]]:
        """Install the sinks process-wide around one run.  Yields that
        run's fresh registry (every family pre-registered), or None when
        no flag — nor ``want_registry`` — needs one."""
        args = self._args
        registry = None
        if (want_registry or args.metrics_out or args.trace_out
                or args.events_out):
            registry = MetricsRegistry()
            names.register_all(registry)
        with scoped(registry=registry, tracer=self.tracer,
                    events=self.events):
            yield registry

    def write_metrics(self, registry, path: Optional[str] = None) -> int:
        """Dump ``registry`` to ``--metrics-out`` (or ``path``, a
        per-experiment variant of it); returns an exit status."""
        path = path or self._args.metrics_out
        if registry is None or not path:
            return 0
        try:
            write_prometheus(path, registry,
                             overwrite=self._args.overwrite)
        except FileExistsError as error:
            print(f"error: {error}", file=sys.stderr)
            return 2
        except OSError as error:
            print(f"error: cannot write {path}: {error}", file=sys.stderr)
            return 2
        print(f"metrics written to {path}", file=self._out)
        return 0


@contextmanager
def flag_sinks(args, out, tracks: bool = False) -> Iterator[FlagSinks]:
    """Open the span tracer and event journal the :func:`add_sink_flags`
    flags in ``args`` name (with ``tracks``, a track-recording tracer
    that keeps its records); they live for the whole command.  On exit
    close them and say on ``out`` where they went.  Raises
    :class:`SinkError` when a path cannot be opened."""
    tracer = events = None
    try:
        try:
            if args.trace_out or tracks:
                tracer = Tracer(sink_path=args.trace_out, keep_spans=tracks,
                                tracks=tracks)
            if args.events_out:
                events = EventJournal(sink_path=args.events_out,
                                      keep_events=False)
        except OSError as error:
            raise SinkError(
                f"cannot open {error.filename}: {error}") from error
        yield FlagSinks(args, tracer, events, out)
    finally:
        if tracer is not None:
            tracer.close()
            if args.trace_out:
                print(f"trace written to {args.trace_out}", file=out)
        if events is not None:
            events.close()
            print(f"events written to {args.events_out}", file=out)


def current_registry() -> Optional[MetricsRegistry]:
    """The installed registry, or None (components then go private)."""
    return _installed_registry


def current_tracer() -> Tracer | NullTracer:
    """The installed tracer, or the shared no-op tracer."""
    return _installed_tracer if _installed_tracer is not None \
        else NULL_TRACER


def journals(own: Optional[EventJournal] = None) -> tuple:
    """Where a journal line recorded now goes.  Inside an episode open
    on this thread (:func:`repro.obs.events.episode`), that episode's
    journals — so a fault raised inside a DB's compaction lands in that
    DB's journal; anywhere else ``own`` plus the installed
    (``--events-out``) journal.  An empty tuple: recording is off."""
    open_journals = open_episode_journals()
    if open_journals is not None:
        return open_journals
    return tuple(journal for journal in (own, _installed_events)
                 if journal is not None)


def resolve_registry(metrics: Optional[MetricsRegistry]
                     ) -> MetricsRegistry:
    """Constructor helper: explicit argument > installed default > a
    fresh private registry."""
    if metrics is not None:
        return metrics
    installed = current_registry()
    return installed if installed is not None else MetricsRegistry()


def resolve_tracer(tracer) -> Tracer | NullTracer:
    """Constructor helper: explicit argument > installed default >
    no-op."""
    return tracer if tracer is not None else current_tracer()


__all__ = [
    "BYTES_BUCKETS",
    "DEFAULT_POLICIES",
    "SECONDS_BUCKETS",
    "BurnPolicy",
    "CallbackGauge",
    "Counter",
    "EventJournal",
    "FlagSinks",
    "Gauge",
    "Histogram",
    "JournalSummary",
    "MetricFamily",
    "MetricsRegistry",
    "NULL_TRACER",
    "NullTracer",
    "SinkError",
    "SloEngine",
    "SloSpec",
    "Span",
    "TraceContext",
    "Tracer",
    "WindowedHistogram",
    "add_sink_flags",
    "build_engine",
    "current_registry",
    "current_tracer",
    "episode",
    "flag_sinks",
    "install",
    "journals",
    "names",
    "parse_prometheus_text",
    "parse_slo_specs",
    "publish_window",
    "quantile_label",
    "read_jsonl",
    "record",
    "render_dashboard",
    "render_db_report",
    "render_level_stats",
    "run_dashboard",
    "replay",
    "resolve_registry",
    "resolve_tracer",
    "scoped",
    "spans_to_chrome_trace",
    "to_prometheus_text",
    "uninstall",
    "write_prometheus",
]
