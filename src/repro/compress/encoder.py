"""Codec helper: the store's codec work shared with a second core.

One helper process serves two requests: **compress** splits a stream of
blocks with the caller (``encode``: the helper takes chunks from a
window's head, the caller works from its tail), **build** makes a sealed
memtable's table while the writer goes on (``submit``, ``finish``).

The helper is ``sys.executable -c`` running :func:`_serve` (stdlib and
snappy; :mod:`repro.lsm.sstable` from its first build), SIGINT ignored,
gone at EOF on stdin, started lazily with >= 2 CPUs in the affinity
mask.  It answers in order; whoever reads an answer files it with its
request.  A bad or late answer, EOF or a broken pipe kills and reaps it,
its work goes back to the callers, and none is started again.  DESIGN.md,
"Hot paths & perf model", gives the reasoning and the split rule.
"""

from __future__ import annotations

import atexit
import fcntl
import os
import select
import signal
import struct
import subprocess
import sys
import time
from collections import deque
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Optional, Sequence

from repro.analysis import watchdog as lockwatch
from repro.compress import snappy
from repro.errors import CorruptionError
from repro.util.varint import decode_varint32

#: A chunk: up to this many blocks and raw bytes (a larger block stays
#: with the caller), ``_IN_FLIGHT`` at once, the first one small.
_CHUNK_BLOCKS = 8
_CHUNK_BYTES = 36 << 10
_IN_FLIGHT = 2
_FIRST_CHUNK = 2
#: Raw blocks held ahead of the finished prefix.
_WINDOW = 8 * _CHUNK_BLOCKS
#: An answer is due within this many times the caller's mean per-block
#: time for the blocks queued up to it (a build: one per 4 KiB), and the
#: floor at least.
_DEADLINE_FACTOR = 50
_DEADLINE_FLOOR_S = 1.0
_PIPE_BYTES = 1 << 20  # asked for: room for a sealed memtable's request

# Frames: header, ``count`` little-endian u32 lengths, the parts.
_REQUEST = struct.Struct("<4sQI")    # kind, sequence, part count
_ANSWER = struct.Struct("<4sQId")    # ... and the helper's seconds
_COMPRESS, _BUILD = b"FCEq", b"FCEb"
_ANSWER_MAGIC, _READY = b"FCEa", b"FCEr"

#: Request kinds, and their caller and helper units and seconds keys.
_COUNTERS = {
    _COMPRESS: ("host_blocks", "host_s", "helper_blocks", "helper_s"),
    _BUILD: ("host_build_tables", "host_build_s", "helper_build_tables",
             "helper_build_s"),
}

#: True inside the helper, whose builds encode on their own thread.
_IN_HELPER = False


def _cpus() -> int:
    """CPUs this process may run on (one where that is not known)."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _serve() -> None:
    """The helper: answer requests until stdin (or stdout) closes."""
    global _IN_HELPER
    _IN_HELPER = True
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    source, sink = sys.stdin.buffer, sys.stdout.buffer
    try:
        sink.write(_READY)
        sink.flush()
        while len(head := source.read(_REQUEST.size)) == _REQUEST.size:
            kind, sequence, count = _REQUEST.unpack(head)
            lengths = struct.unpack(f"<{count}I", source.read(4 * count))
            parts = [source.read(n) for n in lengths]
            if kind not in _COUNTERS or list(map(len, parts)) != list(lengths):
                return
            start = time.perf_counter()
            if kind == _BUILD:
                from repro.lsm.sstable import serve_build
                outs = serve_build(parts)
            else:
                outs = list(map(snappy.compress, parts))
            sink.write(b"".join([
                _ANSWER.pack(_ANSWER_MAGIC, sequence, len(outs),
                             time.perf_counter() - start),
                struct.pack(f"<{len(outs)}I", *map(len, outs)), *outs]))
            sink.flush()
    except (BrokenPipeError, struct.error):
        return


def _pipe_size(pipe) -> int:
    """Ask for a ``_PIPE_BYTES`` buffer on ``pipe``; the size it has."""
    try:
        fcntl.fcntl(pipe.fileno(), fcntl.F_SETPIPE_SZ, _PIPE_BYTES)
        return fcntl.fcntl(pipe.fileno(), fcntl.F_GETPIPE_SZ)
    except (AttributeError, OSError):
        return 64 << 10


class _HelperFailure(Exception):
    """The helper broke a rule."""


@dataclass(slots=True)
class _Request:
    """A chunk's window slots ``[block, out, sent, size]`` or a build."""

    kind: bytes
    sequence: int
    slots: Optional[list]
    blocks: int
    size: int
    deadline: float
    answer: Optional[list] = None
    done: bool = False


class BlockEncoder:
    """Shares codec work with one helper process.  Thread-safe: one
    stream at a time splits with it; builds queue beside."""

    def __init__(self) -> None:
        # Held to send or read; a split holds it for its whole stream.
        self._lock = lockwatch.make_lock("encoder.lock")
        self._stats_lock = lockwatch.make_lock("encoder.stats")
        self._proc = None
        self._ready = self._broken = False
        self._sequence = self._pipe_bytes = 0
        # Unanswered requests, oldest first: the helper answers in order.
        self._in_flight: deque = deque()
        self._counts = dict.fromkeys(
            [name for names in _COUNTERS.values() for name in names]
            + ["wait_s", "failures"], 0)
        atexit.register(self.close)

    def encode(self, blocks: Iterable[Sequence]
               ) -> Iterator[tuple[Sequence, bytes]]:
        """Yield ``(block, snappy.compress(block[0]))`` for each of
        ``blocks`` (pulled on this thread), in order."""
        return self._split(blocks)

    def can_take(self, size: int) -> bool:
        """Whether a build request of ~``size`` bytes may be submitted."""
        return self._may_share() and size <= (self._pipe_bytes or _PIPE_BYTES)

    def submit(self, parts: list) -> Optional[_Request]:
        """Send a :func:`repro.lsm.sstable.build_request` (starting the
        helper if none runs); None unless it is ready, free and has room
        for it in its pipe."""
        if not self._may_share() or not self._lock.acquire(blocking=False):
            return None
        try:
            size = _REQUEST.size + 4 * len(parts) + sum(map(len, parts))
            if (not self._guarded(self._helper_ready) or size + sum(
                    request.size for request in self._in_flight)
                    > self._pipe_bytes):
                return None
            return self._guarded(self._send_request, _BUILD, parts, None,
                                 size // 4096 + 1)
        finally:
            self._lock.release()

    def finish(self, request: Optional[_Request],
               check: Callable[[list], object], here: Callable[[], object]):
        """``check`` of the helper's answer to ``request`` (raising, it
        fails the helper), else ``here()``, as within its mean time."""
        if request is not None:
            self._await(request)
            if request.answer:
                try:
                    outcome = check(request.answer)
                except Exception:  # noqa: BLE001 - any flaw rejects it
                    with self._lock:
                        self._fail()
                else:
                    return outcome
        start = time.perf_counter()
        outcome = here()
        self._account(host_build_tables=1,
                      host_build_s=time.perf_counter() - start)
        return outcome

    def start(self, timeout: float) -> bool:
        """Start the helper and wait up to ``timeout`` s for it to report
        ready (callers start it themselves: this is for timing a ready
        one); False when it may not run, or failed to."""
        if not self._may_share():
            return False
        with self._lock:
            deadline = time.monotonic() + timeout
            try:
                while not self._helper_ready():
                    self._wait(self._proc.stdout, select.POLLIN, deadline)
            except (_HelperFailure, OSError):
                self._fail()
            return self._ready

    def stats(self) -> dict:
        """Per request kind, the units and seconds of the callers' and
        the helper's work; seconds waiting on the helper; failures."""
        with self._stats_lock:
            return dict(self._counts)

    def close(self) -> None:
        """Stop the helper (a later caller starts another); one that a
        caller holds for over a second exits with this process."""
        if not self._lock.acquire(timeout=1.0):
            return
        try:
            proc, self._proc, self._ready = self._proc, None, False
            self._drop_in_flight()
            if proc is not None:
                proc.stdout.close()   # it stops writing, then reading
                proc.stdin.close()
                proc.wait()
        finally:
            self._lock.release()

    # -- the split ------------------------------------------------------

    def _may_share(self) -> bool:
        return not (self._broken or _IN_HELPER) and _cpus() >= 2

    def _split(self, blocks):
        if not self._may_share() or not self._lock.acquire(blocking=False):
            for block in blocks:
                yield block, self._work(block)
            return
        try:
            yield from self._shared(iter(blocks))
        finally:
            self._lock.release()

    def _work(self, block) -> bytes:
        """One block compressed on the calling thread, and accounted."""
        start = time.perf_counter()
        out = snappy.compress(block[0])
        self._account(host_blocks=1, host_s=time.perf_counter() - start)
        return out

    def _shared(self, source):
        window: deque = deque()
        exhausted = False
        limit = min(_FIRST_CHUNK, _CHUNK_BLOCKS)
        while True:
            if self._in_flight:
                self._guarded(self._collect, False)
            while window and window[0][1] is not None:
                slot = window.popleft()
                yield slot[0], slot[1]
            if len(self._in_flight) < _IN_FLIGHT and self._guarded(
                    self._offload, window, limit, exhausted):
                limit = max(1, limit // 2) if exhausted else _CHUNK_BLOCKS
            if not exhausted and len(window) < _WINDOW:
                block = next(source, None)
                exhausted = block is None
                if block is not None:
                    # A window slot; its size is the raw length.
                    window.append([block, None, False, len(block[0])])
                continue
            if not window:
                return
            slot = next((slot for slot in reversed(window)
                         if slot[1] is None and not slot[2]), None)
            if slot is None:  # all that is left is with the helper
                self._guarded(self._collect, True)
            else:
                slot[1] = self._work(slot[0])

    def _guarded(self, step, *args):
        """``step(*args)``; None, the helper failed, if it broke a rule."""
        try:
            return step(*args)
        except (_HelperFailure, OSError):
            self._fail()
            return None

    def _offload(self, window: deque, limit: int,
                 exhausted: bool) -> Optional[_Request]:
        """Send up to ``limit`` blocks from the window's head: full chunks
        while the source lasts, then no more than keeps the helper's
        queue within what the caller has left; none behind a build."""
        if any(request.slots is None for request in self._in_flight):
            return None
        chunk, size = [], 0
        for slot in window:
            if slot[1] is not None or slot[2] or slot[3] > _CHUNK_BYTES:
                continue
            if size + slot[3] > _CHUNK_BYTES:
                break
            chunk.append(slot)
            size += slot[3]
            if len(chunk) == limit:
                break
        else:
            if not exhausted:
                return None
        if exhausted:
            left = sum(1 for slot in window if slot[1] is None
                       and not slot[2])
            queued = sum(request.blocks for request in self._in_flight)
            del chunk[max(0, (left - queued) // 2):]
        if not chunk or self._broken or not self._helper_ready():
            return None
        request = self._send_request(_COMPRESS,
                                     [slot[0][0] for slot in chunk],
                                     chunk, len(chunk))
        for slot in chunk:
            slot[2] = True
        return request

    def _send_request(self, kind: bytes, parts: list, slots,
                      blocks: int) -> _Request:
        self._sequence += 1
        frame = b"".join([
            _REQUEST.pack(kind, self._sequence, len(parts)),
            struct.pack(f"<{len(parts)}I", *map(len, parts)), *parts])
        self._send(frame)
        queued = sum(request.blocks for request in self._in_flight) + blocks
        per_block = self._counts["host_s"] / max(self._counts["host_blocks"],
                                                 1)
        request = _Request(kind, self._sequence, slots, blocks, len(frame),
                           time.monotonic() + max(
                               _DEADLINE_FLOOR_S,
                               _DEADLINE_FACTOR * queued * per_block))
        self._in_flight.append(request)
        return request

    def _collect(self, wait: bool) -> bool:
        """Take the answers that have arrived, oldest first -- with
        ``wait``, at least the oldest, by its deadline."""
        while self._in_flight:
            if wait:
                self._wait(self._proc.stdout, select.POLLIN,
                           self._in_flight[0].deadline)
            elif not self._poll(self._proc.stdout, select.POLLIN, 0):
                break
            wait = False
            self._receive(self._in_flight[0])
            self._in_flight.popleft().done = True
        return True

    def _await(self, request: _Request) -> None:
        """Read answers until ``request``'s is in, its deadline (a
        failure) or the mean local build time passes -- at once, before
        the helper answered a build (its first imports the table code)."""
        builds = self._counts["host_build_tables"]
        until = min(request.deadline, time.monotonic() + (
            0 if not self._counts["helper_build_tables"]
            else self._counts["host_build_s"] / builds if builds
            else _DEADLINE_FLOOR_S))
        start = time.perf_counter()
        with self._lock:  # a split holding it files the answer meanwhile
            while not request.done:
                if self._poll(self._proc.stdout, select.POLLIN,
                              until - time.monotonic()):
                    self._guarded(self._collect, False)
                elif time.monotonic() >= request.deadline:
                    self._fail()
                else:
                    break
        self._account(wait_s=time.perf_counter() - start)

    # -- the helper -----------------------------------------------------

    def _helper_ready(self) -> bool:
        if self._proc is None:
            src = os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))))
            self._proc = subprocess.Popen(
                self._command(src), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE)
            self._pipe_bytes = min(_pipe_size(self._proc.stdin),
                                   _pipe_size(self._proc.stdout))
            os.set_blocking(self._proc.stdin.fileno(), False)
        elif not self._ready and self._poll(self._proc.stdout,
                                            select.POLLIN, 0):
            if self._read(len(_READY)) != _READY:
                raise _HelperFailure("bad ready frame")
            self._ready = True
        return self._ready

    @staticmethod
    def _command(src: str) -> list[str]:
        return [sys.executable, "-c",
                f"import sys; sys.path.insert(0, {src!r}); "
                "from repro.compress.encoder import _serve; _serve()"]

    @staticmethod
    def _poll(pipe, event: int, timeout: float) -> bool:
        poller = select.poll()
        poller.register(pipe, event)
        return bool(poller.poll(max(timeout, 0.0) * 1000))

    def _wait(self, pipe, event: int, deadline: float) -> None:
        start = time.perf_counter()
        ready = self._poll(pipe, event, deadline - time.monotonic())
        if self._ready:
            self._account(wait_s=time.perf_counter() - start)
        if not ready:
            raise _HelperFailure("deadline missed")

    def _send(self, frame: bytes) -> None:
        view, deadline = memoryview(frame), time.monotonic() + _DEADLINE_FLOOR_S
        while view:
            try:
                view = view[os.write(self._proc.stdin.fileno(), view):]
            except BlockingIOError:
                self._wait(self._proc.stdin, select.POLLOUT, deadline)

    def _read(self, n: int) -> bytes:
        """``n`` bytes of an answer that has begun to arrive."""
        parts, deadline = [], time.monotonic() + _DEADLINE_FLOOR_S
        while n:
            self._wait(self._proc.stdout, select.POLLIN, deadline)
            part = os.read(self._proc.stdout.fileno(), n)
            if not part:
                raise _HelperFailure("helper exited")
            parts.append(part)
            n -= len(part)
        return b"".join(parts)

    def _receive(self, request: _Request) -> None:
        """One answer, checked against its request and filed with it."""
        magic, echoed, count, seconds = _ANSWER.unpack(
            self._read(_ANSWER.size))
        slots = request.slots
        if (magic, echoed) != (_ANSWER_MAGIC, request.sequence) or (
                slots is not None and count != len(slots)):
            raise _HelperFailure("answer does not match its request")
        lengths = list(struct.unpack(f"<{count}I", self._read(4 * count)))
        sizes = [slot[3] for slot in slots or ()]
        if sum(lengths) > (snappy.max_compressed_length(sum(sizes))
                           if request.kind == _COMPRESS
                           else 2 * request.size + (64 << 10)):
            raise _HelperFailure("answer longer than its request allows")
        body, outs, pos = self._read(sum(lengths)), [], 0
        for n in lengths:
            outs.append(body[pos:pos + n])
            pos += n
        units, seconds_key = _COUNTERS[request.kind][2:]
        if slots is None:
            request.answer = outs
            self._account(helper_build_tables=1, helper_build_s=seconds)
            return
        for size, out in zip(sizes, outs):
            try:
                preamble = decode_varint32(out, 0)[0]
            except CorruptionError:
                preamble = -1
            if preamble != size:
                raise _HelperFailure("preamble does not match its block")
        for slot, out in zip(slots, outs):
            slot[1] = out
        self._account(**{units: count, seconds_key: seconds})

    def _fail(self) -> None:
        """Kill and reap the helper; its work goes back to the callers."""
        proc, self._proc, self._ready = self._proc, None, False
        self._broken = True
        if proc is not None:
            proc.kill()
            proc.wait()
            proc.stdin.close()
            proc.stdout.close()
        self._drop_in_flight()
        self._account(failures=1)

    def _drop_in_flight(self) -> None:
        for request in self._in_flight:
            request.done = True
            for slot in request.slots or ():
                slot[2] = False
        self._in_flight.clear()

    def _account(self, **deltas) -> None:
        with self._stats_lock:
            for name, delta in deltas.items():
                self._counts[name] += delta


#: The process's codec helper client: one helper per process, shared by
#: every table build, batch merge and sealed memtable.
block_encoder = BlockEncoder()
