"""Structured event journal — the flight recorder's black box.

LevelDB writes a human-oriented ``LOG`` file per database directory;
this module is the machine-readable analog: an append-only JSONL journal
of the store's maintenance lifecycle.  Each line is one event::

    {"v": 1, "seq": 12, "ts": 1723.4567, "type": "compaction_finish",
     "level": 1, "output_level": 2, "reason": "size", "backend": "fpga",
     "input_bytes": 4194304, "output_bytes": 4063232, ...}

Guarantees (enforced under one lock, asserted by
``tools/validate_events.py`` and the concurrency tests):

* ``seq`` is strictly increasing and gap-free;
* ``ts`` is monotonically non-decreasing (clamped against the clock
  running backwards across threads);
* every line is written with a single ``write()`` call, so concurrent
  emitters never tear lines.

The types are declared once, in :mod:`repro.obs.schema`.  They come in
balanced start/finish pairs (``flush_*``, ``compaction_*``, ``stall_*``)
plus point events (``fault``, ``retry``, ``fallback``, ``journal_open``,
``slo_alert``, ``exemplar``, the lock watchdog's reports).

A store's flush, compaction or write stall is one *episode*
(:func:`episode`): the tracer span that times it, whose fields are also
its ``<kind>_start`` / ``<kind>_finish`` lines.  Point events go through
:func:`record`.  Both write to a plain tuple of journals; an empty tuple
means recording is off.  Finish events for flushes and compactions
carry the cumulative user ``write_bytes`` at that moment, so
:func:`replay` can recompute write-amplification without having seen
the individual writes.

``fault``/``retry`` carry the ``backend`` that raised the injected
fault; ``fallback`` records the degradation pair (``source`` backend →
``target``, always ``cpu``) — the validator's strict mode requires both
fields.

``slo_alert`` records a burn-rate alert transition (fields: ``slo``,
``tenant``, ``policy``, ``state`` firing/resolved, ``burn_short``,
``burn_long``); ``exemplar`` records a tail sample whose trace id links
a latency violation back to the compaction/stall span that caused it
(fields: ``slo``, ``tenant``, ``trace``, ``value``).
"""

from __future__ import annotations

import json
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import IO, Iterator, Optional

from repro.analysis import watchdog as lockwatch
from repro.errors import InvalidArgumentError
from repro.obs.names import write_amplification
from repro.obs.schema import EVENT_SCHEMA, SCHEMA_VERSION

#: Every event type the journal accepts.
EVENT_TYPES = frozenset(EVENT_SCHEMA)

#: ``start`` event type -> matching ``finish`` type.
PAIRED_TYPES = {etype: spec["pairs_with"]
                for etype, spec in EVENT_SCHEMA.items()
                if spec.get("pairs_with")}

#: Episode kind -> the tracer span that times it.
EPISODE_SPANS = {"flush": "flush", "compaction": "compaction",
                 "stall": "write.stall"}


class EventJournal:
    """Thread-safe, append-only emitter of journal events.

    Parameters
    ----------
    sink_path:
        File to append JSON lines to.  Opened in append mode — an
        existing journal is extended, never clobbered — and closed by
        :meth:`close`.
    sink:
        Any writable text handle the caller owns (an ``Env`` appendable
        file adapter, a ``StringIO`` in tests).  Not closed by
        :meth:`close`.
    clock:
        Callable returning seconds (defaults to ``time.time``); the
        simulators pass their virtual clock so journal timestamps live
        on the modeled timeline.
    keep_events:
        Retain emitted events in :attr:`events` for assertions
        (off by default to bound memory on long runs).
    """

    def __init__(self, sink_path: Optional[str] = None,
                 sink: Optional[IO[str]] = None, clock=None,
                 keep_events: bool = False):
        self._lock = lockwatch.make_lock("obs.journal")
        self._seq = 0
        self._last_ts = float("-inf")
        self._clock = clock if clock is not None else time.time
        self.keep_events = keep_events
        self.events: list[dict] = []
        self._owns_sink = sink_path is not None
        self._sink: Optional[IO[str]] = sink
        if sink_path is not None:
            self._sink = open(sink_path, "a")
        self.emit("journal_open")

    def emit(self, etype: str, **fields) -> dict:
        """Append one event; returns the record (with seq/ts filled in)."""
        if etype not in EVENT_TYPES:
            raise InvalidArgumentError(f"unknown event type {etype!r}")
        with self._lock:
            self._seq += 1
            ts = float(self._clock())
            if ts < self._last_ts:
                ts = self._last_ts
            self._last_ts = ts
            line = {"v": SCHEMA_VERSION, "seq": self._seq, "ts": ts,
                    "type": etype}
            line.update(fields)
            if self.keep_events:
                self.events.append(line)
            if self._sink is not None:
                # One write() per line: concurrent emitters cannot tear
                # lines even if the underlying stream is shared.
                self._sink.write(json.dumps(line) + "\n")
                flush = getattr(self._sink, "flush", None)
                if flush is not None:
                    flush()
        return line

    def close(self) -> None:
        with self._lock:
            if self._sink is not None and self._owns_sink:
                self._sink.close()
            self._sink = None


def record(journals: tuple, etype: str, **fields) -> None:
    """Write one ``etype`` line to each journal in ``journals``."""
    for journal in journals:
        journal.emit(etype, **fields)


#: Per thread: the journals of the episodes open on it, innermost last.
_open_episodes = threading.local()


def open_episode_journals() -> Optional[tuple]:
    """The journals of the innermost episode open on this thread, or
    None outside every episode."""
    stack = getattr(_open_episodes, "stack", None)
    return stack[-1] if stack else None


class Episode:
    """An open flush, compaction or stall: its span, and the fields its
    finish line will carry."""

    __slots__ = ("span", "fields")

    def __init__(self, span, fields: dict):
        self.span = span
        self.fields = fields

    def set(self, **fields) -> None:
        """Attach ``fields`` to the span and to the finish line."""
        self.span.set(**fields)
        self.fields.update(fields)


@contextmanager
def episode(tracer, journals: tuple, kind: str,
            **fields) -> Iterator[Episode]:
    """Run the enclosed block as one ``kind`` episode (``flush``,
    ``compaction`` or ``stall``): a ``tracer`` span named by
    :data:`EPISODE_SPANS` with ``fields`` as its attributes, and a
    ``<kind>_start`` line when it opens and a ``<kind>_finish`` line when
    it closes, both written to ``journals`` from the same fields.  The
    finish line adds ``seconds``; both add ``trace`` when the span has a
    trace id.  A flush or compaction that raises writes no finish line;
    a stall always writes one.  While the block runs, the episode's
    journals are where :func:`repro.obs.journals` sends this thread's
    lines."""
    stack = getattr(_open_episodes, "stack", None)
    if stack is None:
        stack = _open_episodes.stack = []
    with tracer.span(EPISODE_SPANS[kind], **fields) as span:
        trace = {} if span.trace_id is None \
            else {"trace": str(span.trace_id)}
        record(journals, kind + "_start", **fields, **trace)
        stack.append(journals)
        start = time.perf_counter()
        finished = False
        try:
            yield Episode(span, fields)
            finished = True
        finally:
            stack.pop()
            if finished or kind == "stall":
                record(journals, kind + "_finish", **fields,
                       seconds=time.perf_counter() - start, **trace)


@dataclass
class JournalSummary:
    """Aggregate view of one journal, rebuilt by :func:`replay`.

    Per-level dicts are keyed by int level; ``level_write_bytes[L]`` is
    bytes installed *into* level L (flush output for L0, compaction
    output for deeper levels), matching the live
    ``lsm_level_write_bytes_total`` counters.
    """

    flushes: int = 0
    flush_bytes: int = 0
    compactions: int = 0
    compaction_input_bytes: int = 0
    compaction_output_bytes: int = 0
    level_write_bytes: dict = field(default_factory=dict)
    level_read_bytes: dict = field(default_factory=dict)
    compactions_by_level: dict = field(default_factory=dict)
    backends: dict = field(default_factory=dict)
    reasons: dict = field(default_factory=dict)
    stalls: int = 0
    stall_seconds: float = 0.0
    stall_reasons: dict = field(default_factory=dict)
    faults: dict = field(default_factory=dict)
    retries: int = 0
    fallbacks: int = 0
    slo_alerts: dict = field(default_factory=dict)
    exemplars: int = 0
    write_bytes: int = 0
    unbalanced: dict = field(default_factory=dict)

    @property
    def write_amplification(self) -> float:
        return write_amplification(self)

    def per_level_write_amp(self) -> dict:
        """{level: bytes written into level / user write bytes}."""
        if self.write_bytes == 0:
            return {level: 0.0 for level in self.level_write_bytes}
        return {level: nbytes / self.write_bytes
                for level, nbytes in sorted(self.level_write_bytes.items())}


def _bump(table: dict, key, amount=1) -> None:
    table[key] = table.get(key, 0) + amount


def replay(events: list[dict]) -> JournalSummary:
    """Fold a journal back into summary stats.

    Start events open a pending entry; finish events settle it.  Pairs
    left open (a crash mid-compaction) are reported in
    ``summary.unbalanced`` rather than silently dropped.
    """
    summary = JournalSummary()
    open_pairs: dict[str, int] = {}
    for event in events:
        etype = event.get("type")
        if etype in PAIRED_TYPES:
            _bump(open_pairs, PAIRED_TYPES[etype])
            continue
        if etype in PAIRED_TYPES.values():
            if open_pairs.get(etype, 0) > 0:
                open_pairs[etype] -= 1
            else:
                _bump(summary.unbalanced, etype)
        if etype == "flush_finish":
            summary.flushes += 1
            nbytes = int(event.get("bytes", 0))
            summary.flush_bytes += nbytes
            _bump(summary.level_write_bytes, 0, nbytes)
            summary.write_bytes = max(summary.write_bytes,
                                      int(event.get("write_bytes", 0)))
        elif etype == "compaction_finish":
            summary.compactions += 1
            level = int(event.get("level", 0))
            output_level = int(event.get("output_level", level + 1))
            input_bytes = int(event.get("input_bytes", 0))
            output_bytes = int(event.get("output_bytes", 0))
            summary.compaction_input_bytes += input_bytes
            summary.compaction_output_bytes += output_bytes
            _bump(summary.compactions_by_level, level)
            _bump(summary.level_write_bytes, output_level, output_bytes)
            _bump(summary.level_read_bytes, level,
                  int(event.get("input_bytes_base", input_bytes)))
            parent_bytes = int(event.get("input_bytes_parent", 0))
            if parent_bytes:
                _bump(summary.level_read_bytes, output_level, parent_bytes)
            _bump(summary.backends, event.get("backend", "unknown"))
            _bump(summary.reasons, event.get("reason", "unknown"))
            summary.write_bytes = max(summary.write_bytes,
                                      int(event.get("write_bytes", 0)))
        elif etype == "stall_finish":
            summary.stalls += 1
            summary.stall_seconds += float(event.get("seconds", 0.0))
            _bump(summary.stall_reasons, event.get("reason", "unknown"))
        elif etype == "fault":
            _bump(summary.faults, event.get("kind", "unknown"))
        elif etype == "retry":
            summary.retries += 1
        elif etype == "fallback":
            summary.fallbacks += 1
        elif etype == "slo_alert":
            _bump(summary.slo_alerts, event.get("state", "unknown"))
        elif etype == "exemplar":
            summary.exemplars += 1
    for finish_type, pending in open_pairs.items():
        if pending > 0:
            start_type = [s for s, f in PAIRED_TYPES.items()
                          if f == finish_type][0]
            _bump(summary.unbalanced, start_type, pending)
    return summary
