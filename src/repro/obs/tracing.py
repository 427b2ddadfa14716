"""Span-based tracing with a JSONL event log.

A :class:`Tracer` records nested phases of the write path — write →
flush → compaction pick → route → fpga kernel/pcie/marshal or software
merge — against **both** clocks that matter in this repo:

* **wall clock** (``time.perf_counter``): what the host actually spent;
* **modeled time**: a record a cost model or simulator places on a
  ``track`` of the modeled clock (a pipeline module, a device phase, a
  ``sim.*`` activity).  A monotonic cursor stitches modeled records into
  one contiguous timeline: :meth:`Tracer.phase` starts at it, and every
  modeled record moves it to its end.

Finished spans stream to a JSONL sink (one object per line, children
before parents because spans are emitted at completion) and/or accumulate
in memory for assertions.  The schema per line::

    {"type": "span", "id": 7, "parent": 5, "name": "kernel_run",
     "start_wall": ..., "end_wall": ..., "wall_seconds": ...,
     "start_sim": ..., "end_sim": ..., "sim_seconds": ...,
     "attrs": {"cycles": 1000.0}, "track": "kernel"}

The ``*_sim`` fields are ``null`` on a wall-clock span; only modeled
records have them and a ``track``.  A ``"type": "counter"`` record is one sample (``attrs.value``
at ``start_sim``) of a counter series.

**Trace propagation.**  Work that belongs to one episode — a stalled
write and the flushes and merges it runs meanwhile — would otherwise
produce disconnected span trees.
:meth:`Tracer.mint_context` captures a :class:`TraceContext` (a fresh
trace id plus the minting span, if any), and :meth:`Tracer.activate`
makes it current around that work, on this thread or another one.
Spans opened under an active context inherit its ``trace`` id and
parent the minting span, so one compaction's host/DMA/kernel spans
stitch under a single trace id.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from contextlib import contextmanager
from typing import IO, Iterator, NamedTuple, Optional


class TraceContext(NamedTuple):
    """Portable link to a trace: carried across thread/queue boundaries."""

    trace_id: int
    span_id: Optional[int]


#: Cap on retained records (tens of MB of Chrome JSON).
MAX_EVENTS = 250_000


class Span:
    """One traced phase.  Mutable until its ``with`` block exits."""

    __slots__ = ("span_id", "parent_id", "trace_id", "name", "attrs",
                 "start_wall", "end_wall", "start_sim", "end_sim",
                 "sim_seconds", "track")

    #: The record's ``type`` in the JSONL schema.
    kind = "span"

    def __init__(self, span_id: int, parent_id: Optional[int], name: str,
                 attrs: dict, trace_id: Optional[int] = None):
        self.span_id = span_id
        self.parent_id = parent_id
        self.trace_id = trace_id
        self.name = name
        self.attrs = attrs
        self.start_wall = 0.0
        self.end_wall = 0.0
        self.start_sim: Optional[float] = None
        self.end_sim: Optional[float] = None
        self.sim_seconds: Optional[float] = None
        #: Modeled-clock track; None for a wall-clock span.
        self.track: Optional[str] = None

    def set(self, **attrs) -> None:
        """Attach attributes to the span (route decision, byte counts)."""
        self.attrs.update(attrs)

    @property
    def wall_seconds(self) -> float:
        return self.end_wall - self.start_wall

    def to_dict(self) -> dict:
        data = {
            "type": self.kind,
            "id": self.span_id,
            "parent": self.parent_id,
            "trace": self.trace_id,
            "name": self.name,
            "start_wall": self.start_wall,
            "end_wall": self.end_wall,
            "wall_seconds": self.wall_seconds,
            "start_sim": self.start_sim,
            "end_sim": self.end_sim,
            "sim_seconds": self.sim_seconds,
            "attrs": self.attrs,
        }
        if self.track is not None:
            data["track"] = self.track
        return data


class CounterSample(Span):
    """One sample of a modeled counter series (KV-FIFO occupancy)."""

    __slots__ = ()
    kind = "counter"


class _NullSpan:
    """Inert span handed out by :class:`NullTracer`; accepts the same
    calls and discards them."""

    __slots__ = ()
    span_id = 0
    parent_id = None
    trace_id = None
    name = ""
    sim_seconds = None
    wall_seconds = 0.0

    def set(self, **attrs) -> None:
        pass

    def to_dict(self) -> dict:
        return {}


_NULL_SPAN = _NullSpan()


class NullTracer:
    """Do-nothing tracer: the default when no trace sink is installed,
    so instrumentation costs one method call on hot paths."""

    spans: list = []
    tracks = False
    sim_cursor = 0.0

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[_NullSpan]:
        yield _NULL_SPAN

    def phase(self, name: str, seconds: float, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def record_sim_span(self, name: str, sim_start: float, sim_end: float,
                        track: Optional[str] = None, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def mint_context(self) -> Optional[TraceContext]:
        return None

    def current_context(self) -> Optional[TraceContext]:
        return None

    @contextmanager
    def activate(self, ctx: Optional[TraceContext]) -> Iterator[None]:
        yield

    def close(self) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """Collects spans; optionally streams them to a JSONL file.

    Parameters
    ----------
    sink_path / sink:
        Stream finished spans to a file as JSON lines.  ``sink_path`` is
        opened (and closed by :meth:`close`); ``sink`` is any writable
        text handle the caller owns.
    keep_spans:
        Retain finished spans in :attr:`spans` (on by default; turn off
        for long streaming runs to bound memory).
    tracks:
        Also record the pipeline simulator's per-module intervals and
        FIFO counters (tens of thousands per benchmark; off by default).

    At most :data:`MAX_EVENTS` records are retained; later ones are
    counted in :attr:`dropped_events` (and still streamed to the sink).
    """

    def __init__(self, sink_path: Optional[str] = None,
                 sink: Optional[IO[str]] = None, keep_spans: bool = True,
                 tracks: bool = False):
        self.spans: list[Span] = []
        self.keep_spans = keep_spans
        self.tracks = tracks
        self.dropped_events = 0
        self._sim_cursor = 0.0
        self._ids = itertools.count(1)
        self._trace_ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._owns_sink = sink_path is not None
        self._sink: Optional[IO[str]] = sink
        if sink_path is not None:
            # Append: a resumed run or a shared sink path extends the
            # trace instead of silently clobbering it.
            self._sink = open(sink_path, "a")

    # ------------------------------------------------------------------
    # Span stack (per thread)
    # ------------------------------------------------------------------

    def _stack(self) -> list[Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _ctx_stack(self) -> list[TraceContext]:
        stack = getattr(self._local, "ctx_stack", None)
        if stack is None:
            stack = self._local.ctx_stack = []
        return stack

    @property
    def current_span(self) -> Optional[Span]:
        stack = self._stack()
        return stack[-1] if stack else None

    # ------------------------------------------------------------------
    # Trace-context propagation (across threads / queues)
    # ------------------------------------------------------------------

    def mint_context(self) -> TraceContext:
        """New trace id anchored at the current span (if any).  The
        returned context is a plain tuple, safe to push through queues
        to other threads."""
        parent = self.current_span
        if parent is not None and parent.trace_id is not None:
            return TraceContext(parent.trace_id, parent.span_id)
        return TraceContext(next(self._trace_ids),
                            parent.span_id if parent else None)

    def current_context(self) -> Optional[TraceContext]:
        """Context new root spans would join: the enclosing span's, else
        the remotely-activated one, else None."""
        span = self.current_span
        if span is not None and span.trace_id is not None:
            return TraceContext(span.trace_id, span.span_id)
        ctx_stack = self._ctx_stack()
        return ctx_stack[-1] if ctx_stack else None

    @contextmanager
    def activate(self, ctx: Optional[TraceContext]) -> Iterator[None]:
        """Adopt a context minted on another thread: spans opened inside
        the block (with no local parent) join ``ctx``'s trace and parent
        its minting span.  ``activate(None)`` is a no-op."""
        if ctx is None:
            yield
            return
        stack = self._ctx_stack()
        stack.append(ctx)
        try:
            yield
        finally:
            stack.pop()

    def _new_span(self, name: str, attrs: dict, cls=Span) -> Span:
        parent = self.current_span
        if parent is not None:
            return cls(next(self._ids), parent.span_id, name, attrs,
                       trace_id=parent.trace_id)
        ctx_stack = self._ctx_stack()
        if ctx_stack:
            ctx = ctx_stack[-1]
            return cls(next(self._ids), ctx.span_id, name, attrs,
                       trace_id=ctx.trace_id)
        return cls(next(self._ids), None, name, attrs)

    @property
    def sim_cursor(self) -> float:
        """End of the latest modeled record: where the next
        :meth:`phase` starts.  Never moves backward."""
        return self._sim_cursor

    def _record(self, span: Span) -> None:
        with self._lock:
            if span.track is not None and span.end_sim > self._sim_cursor:
                self._sim_cursor = span.end_sim
            if self.keep_spans:
                if len(self.spans) < MAX_EVENTS:
                    self.spans.append(span)
                else:
                    self.dropped_events += 1
            if self._sink is not None:
                self._sink.write(json.dumps(span.to_dict()) + "\n")

    def clear(self) -> None:
        """Forget retained records and rewind the modeled clock: the
        next run starts a fresh timeline (the sink keeps streaming)."""
        with self._lock:
            self.spans = []
            self.dropped_events = 0
            self._sim_cursor = 0.0

    # ------------------------------------------------------------------
    # Recording API
    # ------------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Open a nested span; attributes may be added via ``span.set``."""
        span = self._new_span(name, attrs)
        span.start_wall = time.perf_counter()
        self._stack().append(span)
        try:
            yield span
        finally:
            self._stack().pop()
            span.end_wall = time.perf_counter()
            self._record(span)

    def phase(self, name: str, seconds: float, **attrs) -> Span:
        """Record a *modeled* phase under the current span: a completed
        child whose duration comes from a cost model (marshal, PCIe DMA,
        a software merge) rather than from a clock.  It starts at the
        modeled cursor, on the track of its own name."""
        with self._lock:
            start = self._sim_cursor
            self._sim_cursor = start + seconds
        return self._record_sim(name, start, start + seconds, name, attrs)

    def record_sim_span(self, name: str, sim_start: float, sim_end: float,
                        track: Optional[str] = None, **attrs) -> Span:
        """Record a completed span positioned on the modeled clock (the
        pipeline simulator's intervals, the discrete-event simulator's
        flushes and compactions), on ``track`` (default: its name)."""
        return self._record_sim(name, sim_start, sim_end, track or name,
                                attrs)

    def counter(self, name: str, sim_at: float, value: float) -> None:
        """One sample of the modeled counter series ``name``."""
        self._record_sim(name, sim_at, sim_at, name, {"value": value},
                         CounterSample)

    def _record_sim(self, name: str, start: float, end: float, track: str,
                    attrs: dict, cls=Span) -> Span:
        span = self._new_span(name, attrs, cls)
        span.start_wall = span.end_wall = time.perf_counter()
        span.start_sim = float(start)
        span.end_sim = float(end)
        span.sim_seconds = span.end_sim - span.start_sim
        span.track = track
        self._record(span)
        return span

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def write_chrome_trace(self, path: str) -> None:
        """Dump retained spans as a Chrome trace-event file."""
        trace = spans_to_chrome_trace(
            [span.to_dict() for span in self.spans],
            dropped_events=self.dropped_events)
        with open(path, "w") as handle:
            handle.write(json.dumps(trace))  # dumps: the C encoder

    def close(self) -> None:
        if self._sink is not None and self._owns_sink:
            self._sink.close()
        self._sink = None


def spans_to_chrome_trace(events: list[dict],
                          dropped_events: int = 0) -> dict:
    """Convert span dicts (from :meth:`Tracer.spans` / a JSONL sink) to
    the Chrome trace-event format (Perfetto / ``chrome://tracing``).

    Wall-clock spans are placed on process ``host``, track ``spans``,
    relative to the earliest one.  Modeled records (those with a
    ``track``) are placed on process ``model`` at their modeled-clock
    microseconds, one named track per module or phase (plus a lane per
    concurrent interval), sorted by time; counter samples become
    ``"C"`` events.  Each span's ``args`` carries
    its attrs plus ``trace``/``span``/``parent`` ids, so Perfetto can
    filter one compaction's host/DMA/kernel spans by trace id.
    ``dropped_events`` (records a full tracer did not keep) is reported
    in ``otherData``."""
    origin = min((e["start_wall"] for e in events
                  if e.get("type") == "span" and e.get("track") is None),
                 default=0.0)
    trace_events: list[dict] = [
        {"ph": "M", "pid": "host", "name": "process_name",
         "args": {"name": "repro tracer"}},
    ]
    modeled: list[dict] = []
    for span in events:
        track = span.get("track")
        if span.get("type") == "counter":
            modeled.append({"ph": "C", "pid": "model", "name": track,
                            "ts": span["start_sim"] * 1e6,
                            "args": span["attrs"]})
            continue
        if span.get("type") != "span":
            continue
        args = dict(span.get("attrs") or {})
        args.update(span=span.get("id"), parent=span.get("parent"),
                    trace=span.get("trace"))
        if track is None:
            trace_events.append({
                "ph": "X", "pid": "host", "tid": "spans",
                "name": span.get("name", "?"),
                "ts": (span["start_wall"] - origin) * 1e6,
                "dur": (span.get("wall_seconds") or 0.0) * 1e6,
                "args": args})
            continue
        modeled.append({
            "ph": "X", "pid": "model", "tid": track,
            "name": span.get("name", "?"), "ts": span["start_sim"] * 1e6,
            "dur": (span["end_sim"] - span["start_sim"]) * 1e6,
            "args": args})
    modeled.sort(key=lambda e: (e["ts"], e.get("dur", 0.0)))
    # Concurrent work on one track (parallel compactions in the system
    # simulator, two threads' kernel runs) gets a further lane, so no
    # lane's intervals overlap.
    lane_ends: dict[str, list[float]] = {}
    threads: list[str] = []
    for event in modeled:
        if event["ph"] != "X":
            continue
        ends = lane_ends.setdefault(event["tid"], [])
        lane = next((i for i, end in enumerate(ends)
                     if end <= event["ts"] + 1e-6), len(ends))
        if lane == len(ends):
            ends.append(0.0)
            threads.append(event["tid"] + (f" #{lane + 1}" if lane else ""))
        ends[lane] = event["ts"] + event["dur"]
        if lane:
            event["tid"] += f" #{lane + 1}"
    if modeled:
        trace_events.append({"ph": "M", "pid": "model",
                             "name": "process_name",
                             "args": {"name": "modeled clock"}})
        trace_events.extend(
            {"ph": "M", "pid": "model", "tid": thread,
             "name": "thread_name", "args": {"name": thread}}
            for thread in threads)
        trace_events.extend(modeled)
    other = {"source": "repro.obs.tracing"}
    if dropped_events:
        other["dropped_events"] = dropped_events
    return {"traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": other}


def read_jsonl(path: str) -> list[dict]:
    """Load a trace file back into dicts (tests, analysis scripts)."""
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events
