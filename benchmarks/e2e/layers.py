"""Outside-in layer tracing for the traced pass.

Nothing under ``src/`` is edited.  The benchmark wraps the public callable
at each layer boundary (``LsmDB.write``, ``TableReader.get``,
``snappy.compress`` ...) with a timer, and hands the program a
:class:`BridgeTracer` through its public ``tracer=`` / ``obs.install``
hook so the spans the program already emits (``flush``, ``compaction``,
``compaction.route`` ...) land in the same per-thread stacks.  One
:class:`Recorder` therefore sees every span with its parent, which is what
self time needs: a span's self time is its duration minus the part of it
its children cover.

Totals (count, wall, self) are folded per span name as spans finish, so
they are exact however long the run is.  Raw spans are kept for the trace
files only while they are long or while the short-span budget lasts.
"""

from __future__ import annotations

import functools
import itertools
import sys
import threading
import time
from collections import Counter
from contextlib import contextmanager

from repro.obs import Tracer

#: Raw spans at least this long are always kept (maintenance, slow ops).
LONG_SPAN_SECONDS = 100e-6
#: Raw spans shorter than that are kept until this many were stored.
SHORT_SPAN_BUDGET = 40_000

# Frame layout on a thread's stack.
_NAME, _START, _CHILD_WALL, _ID, _OUTERMOST = range(5)


class _ThreadState:
    __slots__ = ("name", "stack", "open", "totals", "counts", "spans",
                 "short_kept")

    def __init__(self, name: str):
        self.name = name
        self.stack: list[list] = []
        #: span name -> how many frames of it are on the stack
        self.open: Counter = Counter()
        #: span name -> [count, wall seconds, self seconds]; a span nested
        #: in one of its own name adds to count and self, not to wall
        self.totals: dict[str, list] = {}
        #: free-form tallies made by ``observe`` hooks (bloom rejects ...)
        self.counts: Counter = Counter()
        #: (id, parent id, name, start, end, attrs or None)
        self.spans: list[tuple] = []
        self.short_kept = 0


class Recorder:
    """Per-thread span stacks with running per-name totals."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._threads: list[_ThreadState] = []

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.current_thread().name)
            with self._lock:
                self._threads.append(state)
            self._local.state = state
            return state

    # -- recording ------------------------------------------------------

    def enter(self, name: str) -> list:
        state = self._state()
        frame = [name, 0.0, 0.0, next(self._ids), not state.open[name]]
        state.open[name] += 1
        state.stack.append(frame)
        frame[_START] = time.perf_counter()
        return frame

    def exit(self, frame: list, attrs: dict | None = None) -> None:
        end = time.perf_counter()
        state = self._local.state
        stack = state.stack
        stack.pop()
        state.open[frame[_NAME]] -= 1
        wall = end - frame[_START]
        total = state.totals.get(frame[_NAME])
        if total is None:
            total = state.totals[frame[_NAME]] = [0, 0.0, 0.0]
        total[0] += 1
        if frame[_OUTERMOST]:
            total[1] += wall
        total[2] += wall - frame[_CHILD_WALL]
        parent_id = None
        if stack:
            stack[-1][_CHILD_WALL] += wall
            parent_id = stack[-1][_ID]
        if wall < LONG_SPAN_SECONDS:
            if state.short_kept >= SHORT_SPAN_BUDGET:
                return
            state.short_kept += 1
        state.spans.append((frame[_ID], parent_id, frame[_NAME],
                            frame[_START], end, attrs))

    def wrap(self, name: str, fn, observe=None):
        """``fn`` timed as a span called ``name``.  ``observe(counts,
        args, result)`` may tally facts about a call that returned."""
        enter, exit_, state = self.enter, self.exit, self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(frame)
            if observe is not None:
                observe(state().counts, args, result)
            return result

        return wrapper

    def count_calls(self, name: str, fn, observe=None):
        """``fn`` counted under ``name`` but not timed: for calls so short
        and frequent that a span each would distort the pass.  Their time
        stays in the caller's self time."""
        state = self._state

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts = state().counts
            counts[name] += 1
            if observe is not None:
                observe(counts, args, result)
            return result

        return wrapper

    def reset(self) -> None:
        """Forget everything recorded so far (set-up is over).  Call it
        while no thread is inside a span."""
        for state in self._threads:
            state.totals.clear()
            state.counts.clear()
            state.spans.clear()
            state.short_kept = 0

    # -- results --------------------------------------------------------

    def totals(self) -> dict[str, list]:
        """``{span name: [count, wall, self]}`` summed over threads."""
        merged: dict[str, list] = {}
        for state in self._threads:
            for name, (count, wall, self_s) in state.totals.items():
                row = merged.setdefault(name, [0, 0.0, 0.0])
                row[0] += count
                row[1] += wall
                row[2] += self_s
        return merged

    def counts(self) -> Counter:
        merged: Counter = Counter()
        for state in self._threads:
            merged.update(state.counts)
        return merged

    def span_dicts(self) -> list[dict]:
        """Kept raw spans in the ``repro.obs.tracing`` JSONL schema (plus
        ``thread``), so ``spans_to_chrome_trace`` and ``read_jsonl`` work
        on the trace files unchanged."""
        out = []
        for state in self._threads:
            for span_id, parent, name, start, end, attrs in state.spans:
                out.append({
                    "type": "span", "id": span_id, "parent": parent,
                    "trace": None, "name": name, "thread": state.name,
                    "start_wall": start, "end_wall": end,
                    "wall_seconds": end - start,
                    "start_sim": None, "end_sim": None, "sim_seconds": None,
                    "attrs": attrs or {},
                })
        out.sort(key=lambda span: span["start_wall"])
        return out


#: Program span name -> the layer-prefixed name it gets in the budget.
PROGRAM_SPANS = {
    "flush": "lsm.flush",
    "compaction": "lsm.compaction",
    "compaction.pick": "lsm.compaction.pick",
    "compaction.install": "lsm.compaction.install",
    "compaction.route": "host.route",
    "write.stall": "lsm.stall",
}


class BridgeTracer(Tracer):
    """The program's tracer for a traced pass: a stock in-memory
    ``Tracer`` whose spans are mirrored into the :class:`Recorder`."""

    def __init__(self, recorder: Recorder):
        super().__init__(keep_spans=False)
        self._recorder = recorder

    @contextmanager
    def span(self, name: str, **attrs):
        frame = self._recorder.enter(PROGRAM_SPANS.get(name, name))
        try:
            with super().span(name, **attrs) as span:
                attrs = span.attrs  # the dict ``span.set`` adds to
                yield span
        finally:
            self._recorder.exit(frame, attrs or None)


def _tally_bloom(counts, args, may_match) -> None:
    if not may_match:
        counts["lsm.bloom.rejects"] += 1


def _tally_compress(counts, args, compressed) -> None:
    counts["compress.in_bytes"] += len(args[0])
    counts["compress.out_bytes"] += len(compressed)


def _replace_everywhere(original, replacement) -> None:
    """Rebind every module global that is ``original`` — modules that did
    ``from x import f`` hold their own reference to ``f``."""
    for module in list(sys.modules.values()):
        for attr, value in list(getattr(module, "__dict__", {}).items()):
            if value is original:
                setattr(module, attr, replacement)


def install_wrappers(recorder: Recorder) -> None:
    """Wrap the layer-boundary callables, process-wide, for good: a traced
    pass owns its process."""
    import importlib

    from repro.compress import snappy
    from repro.fpga.engine import CompactionEngine
    from repro.host import memory
    from repro.host.device import FcaeDevice
    from repro.lsm.db import LsmDB
    from repro.lsm.memtable import MemTable
    from repro.lsm.sstable import TableBuilder, TableReader
    from repro.lsm.wal import LogWriter
    from repro.service import protocol
    from repro.service.server import KVService
    from repro.sim import system

    # ``repro.util`` re-exports the function under the module's own name.
    crc32c = importlib.import_module("repro.util.crc32c")

    methods = [
        (KVService, "dispatch", "service.dispatch", None),
        (LsmDB, "write", "lsm.write", None),
        (LsmDB, "get", "lsm.get", None),
        (LogWriter, "add_record", "lsm.wal.append", None),
        (MemTable, "add", "lsm.memtable.add", None),
        (MemTable, "get", "lsm.memtable.get", None),
        (TableBuilder, "add", "lsm.sstable.build", None),
        (TableBuilder, "finish", "lsm.sstable.build", None),
        (TableReader, "__init__", "lsm.table.open", None),
        (TableReader, "get", "lsm.table.get", None),
        (FcaeDevice, "compact", "host.device_compact", None),
        (CompactionEngine, "run", "fpga.engine_run", None),
    ]
    for owner, attr, name, observe in methods:
        setattr(owner, attr, recorder.wrap(name, getattr(owner, attr),
                                           observe))
    # Five bloom probes per get at a few microseconds each: count only.
    TableReader.key_may_match = recorder.count_calls(
        "lsm.bloom.checks", TableReader.key_may_match, _tally_bloom)
    functions = [
        (protocol.encode_request, "service.protocol", None),
        (protocol.encode_response, "service.protocol", None),
        (protocol.decode_request, "service.protocol", None),
        (protocol.decode_response, "service.protocol", None),
        (protocol.decode_slices, "service.protocol", None),
        (snappy.compress, "compress.snappy.compress", _tally_compress),
        (snappy.decompress, "compress.snappy.decompress", None),
        (crc32c.crc32c, "util.crc32c", None),
        (crc32c.crc32c_many, "util.crc32c", None),
        (memory.marshal_inputs, "host.marshal", None),
        (memory.write_outputs, "host.marshal", None),
        (system.simulate_fillrandom, "sim.system", None),
    ]
    for fn, name, observe in functions:
        _replace_everywhere(fn, recorder.wrap(name, fn, observe))


def budget_rows(totals: dict[str, list], wall: float,
                lanes: int = 1) -> list[tuple]:
    """Budget table rows ``(name, count, wall s, self s, share)`` whose
    self times sum to ``wall * lanes``: the last row is the time no span
    covers (the benchmark's own loop, idle lanes)."""
    budget = wall * lanes
    rows = [(name, count, span_wall, self_s, self_s / budget)
            for name, (count, span_wall, self_s) in totals.items()]
    rows.sort(key=lambda row: -row[3])
    covered = sum(row[3] for row in rows)
    rows.append(("(outside any span)", 0, 0.0, budget - covered,
                 (budget - covered) / budget))
    return rows
