"""Span-based tracing with a JSONL event log.

A :class:`Tracer` records nested phases of the write path — write →
flush → compaction pick → route → fpga kernel/pcie/marshal or software
merge — against **both** clocks that matter in this repo:

* **wall clock** (``time.perf_counter``): what the host actually spent;
* **simulated time**: either read from a clock object attached to the
  tracer, or supplied as a *modeled* duration by the cost models (PCIe
  transfer seconds, kernel cycles → seconds) via :meth:`Tracer.phase`.

Finished spans stream to a JSONL sink (one object per line, children
before parents because spans are emitted at completion) and/or accumulate
in memory for assertions.  The schema per line::

    {"type": "span", "id": 7, "parent": 5, "name": "phase:kernel",
     "start_wall": ..., "end_wall": ..., "wall_seconds": ...,
     "start_sim": ..., "end_sim": ..., "sim_seconds": ...,
     "attrs": {"level": 1, "route": "fpga"}}

``sim_seconds`` is the modeled duration when one was recorded, else the
simulated-clock interval, else ``null``.

**Trace propagation.**  Work that crosses threads — a write kicks the
background driver, a worker picks and runs the compaction — would
otherwise produce disconnected span trees.  :meth:`Tracer.mint_context`
captures a :class:`TraceContext` (a fresh trace id plus the minting
span, if any); the driver carries it through its queues and the worker
re-activates it with :meth:`Tracer.activate`.  Spans opened under an
active remote context inherit its ``trace`` id and parent the minting
span, so one compaction's host/DMA/kernel spans stitch under a single
trace id across threads.
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


class Span:
    """One traced phase.  Mutable until its ``with`` block exits."""

    __slots__ = ("span_id", "parent_id", "trace_id", "name", "attrs",
                 "start_wall", "end_wall", "start_sim", "end_sim",
                 "sim_seconds")

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

    def set(self, **attrs) -> None:
        """Attach attributes to the span (route decision, byte counts)."""
        self.attrs.update(attrs)

    @property
    def wall_seconds(self) -> float:
        return self.end_wall - self.start_wall

    def to_dict(self) -> dict:
        sim_seconds = self.sim_seconds
        if sim_seconds is None and self.start_sim is not None:
            sim_seconds = (self.end_sim or self.start_sim) - self.start_sim
        return {
            "type": "span",
            "id": self.span_id,
            "parent": self.parent_id,
            "trace": self.trace_id,
            "name": self.name,
            "start_wall": self.start_wall,
            "end_wall": self.end_wall,
            "wall_seconds": self.wall_seconds,
            "start_sim": self.start_sim,
            "end_sim": self.end_sim,
            "sim_seconds": sim_seconds,
            "attrs": self.attrs,
        }


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

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[_NullSpan]:
        yield _NULL_SPAN

    def phase(self, name: str, seconds: float, **attrs) -> _NullSpan:
        return _NULL_SPAN

    def record_sim_span(self, name: str, sim_start: float, sim_end: float,
                        **attrs) -> _NullSpan:
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
    sim_clock:
        Anything with a ``.now`` float attribute; when present, spans
        record simulated start/end timestamps alongside wall-clock ones.
    sink_path / sink:
        Stream finished spans to a file as JSON lines.  ``sink_path`` is
        opened (and closed by :meth:`close`); ``sink`` is any writable
        text handle the caller owns.
    keep_spans:
        Retain finished spans in :attr:`spans` (on by default; turn off
        for long streaming runs to bound memory).
    """

    def __init__(self, sim_clock=None, sink_path: Optional[str] = None,
                 sink: Optional[IO[str]] = None, keep_spans: bool = True):
        self.sim_clock = sim_clock
        self.spans: list[Span] = []
        self.keep_spans = keep_spans
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

    def _new_span(self, name: str, attrs: dict) -> Span:
        parent = self.current_span
        if parent is not None:
            return Span(next(self._ids), parent.span_id, name, attrs,
                        trace_id=parent.trace_id)
        ctx_stack = self._ctx_stack()
        if ctx_stack:
            ctx = ctx_stack[-1]
            return Span(next(self._ids), ctx.span_id, name, attrs,
                        trace_id=ctx.trace_id)
        return Span(next(self._ids), None, name, attrs)

    def _sim_now(self) -> Optional[float]:
        return self.sim_clock.now if self.sim_clock is not None else None

    def _record(self, span: Span) -> None:
        with self._lock:
            if self.keep_spans:
                self.spans.append(span)
            if self._sink is not None:
                self._sink.write(json.dumps(span.to_dict()) + "\n")

    # ------------------------------------------------------------------
    # Recording API
    # ------------------------------------------------------------------

    @contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        """Open a nested span; attributes may be added via ``span.set``."""
        span = self._new_span(name, attrs)
        span.start_wall = time.perf_counter()
        span.start_sim = self._sim_now()
        self._stack().append(span)
        try:
            yield span
        finally:
            self._stack().pop()
            span.end_wall = time.perf_counter()
            span.end_sim = self._sim_now()
            self._record(span)

    def phase(self, name: str, seconds: float, **attrs) -> Span:
        """Record a *modeled* phase under the current span: a completed
        child whose duration comes from a cost model (PCIe DMA time,
        kernel cycles → seconds) rather than from a clock."""
        span = self._new_span(name, attrs)
        now = time.perf_counter()
        span.start_wall = span.end_wall = now
        span.start_sim = span.end_sim = self._sim_now()
        span.sim_seconds = float(seconds)
        self._record(span)
        return span

    def record_sim_span(self, name: str, sim_start: float, sim_end: float,
                        **attrs) -> Span:
        """Record a completed span positioned on the simulated timeline
        (used by the discrete-event system simulator, whose phases do
        not occupy wall-clock time)."""
        span = self._new_span(name, attrs)
        now = time.perf_counter()
        span.start_wall = span.end_wall = now
        span.start_sim = float(sim_start)
        span.end_sim = float(sim_end)
        span.sim_seconds = float(sim_end) - float(sim_start)
        self._record(span)
        return span

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------

    def write_jsonl(self, path: str) -> None:
        """Dump retained spans as JSON lines (appending, so two runs
        sharing a path concatenate instead of clobbering)."""
        with open(path, "a") as handle:
            for span in self.spans:
                handle.write(json.dumps(span.to_dict()) + "\n")

    def write_chrome_trace(self, path: str) -> None:
        """Dump retained spans as a Chrome trace-event file."""
        with open(path, "w") as handle:
            json.dump(spans_to_chrome_trace(
                [span.to_dict() for span in self.spans]), handle)

    def close(self) -> None:
        if self._sink is not None and self._owns_sink:
            self._sink.close()
        self._sink = None


def spans_to_chrome_trace(events: list[dict]) -> dict:
    """Convert span dicts (from :meth:`Tracer.spans` / a JSONL sink) to
    the Chrome trace-event format.

    Spans are placed on the wall-clock timeline relative to the earliest
    span; modeled phases (zero wall duration, ``sim_seconds`` set) render
    with their modeled duration.  Each event's ``args`` carries the
    span's attrs plus ``trace``/``span``/``parent`` ids, so Perfetto can
    filter one compaction's host/DMA/kernel spans by trace id."""
    spans = [e for e in events if e.get("type") == "span"]
    origin = min((s["start_wall"] for s in spans), default=0.0)
    trace_events: list[dict] = [
        {"ph": "M", "pid": "host", "name": "process_name",
         "args": {"name": "repro tracer"}},
    ]
    for span in spans:
        wall = span.get("wall_seconds") or 0.0
        dur_us = wall * 1e6
        if dur_us <= 0 and span.get("sim_seconds"):
            dur_us = span["sim_seconds"] * 1e6
        args = dict(span.get("attrs") or {})
        args["span"] = span.get("id")
        args["parent"] = span.get("parent")
        args["trace"] = span.get("trace")
        trace_events.append({
            "ph": "X", "pid": "host", "tid": "spans",
            "name": span.get("name", "?"),
            "ts": (span["start_wall"] - origin) * 1e6,
            "dur": dur_us,
            "args": args,
        })
    return {"traceEvents": trace_events,
            "displayTimeUnit": "ms",
            "otherData": {"source": "repro.obs.tracing"}}


def read_jsonl(path: str) -> list[dict]:
    """Load a trace file back into dicts (tests, analysis scripts)."""
    events = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    return events


def span_children(events: list[dict], parent_id: int) -> list[dict]:
    """Direct children of ``parent_id`` within one trace."""
    return [e for e in events if e.get("parent") == parent_id]
