"""Block encoder: SSTable data blocks compressed on two cores.

A block's compressed bytes depend on that block alone, so
:class:`BlockEncoder` runs ``snappy.compress`` on the calling thread and on
one long-lived helper process (the encode stage of
:func:`repro.lsm.sstable.build_tables`): the helper takes chunks from the
head of a window of raw blocks the caller pulls ahead, the caller
compresses from its tail and waits only when nothing else is left, and
blocks leave the window in order.  Whoever compresses a block, its bytes
are ``snappy.compress``'s.  The helper is ``sys.executable -c`` running
:func:`_serve` -- stdlib and :mod:`repro.compress.snappy` only, default
``close_fds``, SIGINT ignored, gone at EOF on stdin -- started lazily with
>= 2 CPUs in the affinity mask; it serves one build at a time.  A bad or
late answer, EOF or a broken pipe kills and reaps it, its blocks go back
to the caller, and none is started again.  DESIGN.md, "Hot paths & perf
model", gives the reasoning.
"""

from __future__ import annotations

import atexit
import os
import select
import signal
import struct
import subprocess
import sys
import threading
import time
from collections import deque
from typing import Iterable, Iterator, Sequence

from repro.compress import snappy
from repro.errors import CorruptionError
from repro.util.varint import decode_varint32

#: A request: up to this many blocks and raw bytes, so a request and its
#: answer each fit a 64 KiB pipe buffer (a larger block stays with the
#: caller); at most ``_IN_FLIGHT`` outstanding.
_CHUNK_BLOCKS = 8
_CHUNK_BYTES = 36 << 10
_IN_FLIGHT = 2
#: Raw blocks held ahead of the encoded prefix.
_WINDOW = 8 * _CHUNK_BLOCKS
#: An answer is due within this many times the caller's own mean
#: per-block time for the blocks queued up to it, and the floor at least.
_DEADLINE_FACTOR = 50
_DEADLINE_FLOOR_S = 1.0

# Frames: header, ``count`` little-endian u32 lengths, the blocks.
_REQUEST = struct.Struct("<4sQI")    # magic, sequence, block count
_ANSWER = struct.Struct("<4sQId")    # ... and the helper's seconds
_REQUEST_MAGIC, _ANSWER_MAGIC, _READY = b"FCEq", b"FCEa", b"FCEr"


def _cpus() -> int:
    """CPUs this process may run on (one where that is not known)."""
    if not hasattr(os, "sched_getaffinity"):
        return 1
    return len(os.sched_getaffinity(0))


def _serve() -> None:
    """The helper: answer requests until stdin (or stdout) closes."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    source, sink = sys.stdin.buffer, sys.stdout.buffer
    try:
        sink.write(_READY)
        sink.flush()
        while len(head := source.read(_REQUEST.size)) == _REQUEST.size:
            magic, sequence, count = _REQUEST.unpack(head)
            lengths = struct.unpack(f"<{count}I", source.read(4 * count))
            raws = [source.read(n) for n in lengths]
            if magic != _REQUEST_MAGIC or list(map(len, raws)) != list(lengths):
                return
            start = time.perf_counter()
            outs = [snappy.compress(raw) for raw in raws]
            sink.write(b"".join([
                _ANSWER.pack(_ANSWER_MAGIC, sequence, count,
                             time.perf_counter() - start),
                struct.pack(f"<{count}I", *map(len, outs)), *outs]))
            sink.flush()
    except (BrokenPipeError, struct.error):
        return


class _HelperFailure(Exception):
    """The helper broke a rule."""


class BlockEncoder:
    """Compresses raw blocks on the calling thread and one helper
    process.  Thread-safe; one build at a time shares the helper."""

    def __init__(self) -> None:
        # Held by the build sharing the helper; only ever tried.
        self._lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._proc = None
        self._ready = self._broken = False
        self._sequence = 0
        # (sequence, slots, deadline) per unanswered request, oldest
        # first; one a build left when its source raised is read next.
        self._in_flight: deque = deque()
        self._counts = dict(host_blocks=0, host_s=0.0, helper_blocks=0,
                            helper_s=0.0, failures=0)
        atexit.register(self.close)

    def encode(self, blocks: Iterable[Sequence]
               ) -> Iterator[tuple[Sequence, bytes]]:
        """Yield ``(block, snappy.compress(block[0]))`` for each of
        ``blocks`` -- sequences whose first item is a raw block -- in
        order.  ``blocks`` is pulled on the calling thread."""
        if (self._broken or _cpus() < 2
                or not self._lock.acquire(blocking=False)):
            yield from self._encode_here(blocks)
            return
        try:
            yield from self._encode_shared(iter(blocks))
        finally:
            self._lock.release()

    def start(self, timeout: float) -> bool:
        """Start the helper and wait up to ``timeout`` s for it to report
        ready (builds start it themselves: this is for timing a ready
        one); False when it may not run, or failed to."""
        if self._broken or _cpus() < 2:
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
        """Blocks compressed by callers and by the helper, the seconds
        each took, and helper failures."""
        with self._stats_lock:
            return dict(self._counts)

    def close(self) -> None:
        """Stop the helper (a later build starts another); one that a
        build holds for over a second exits with this process."""
        if not self._lock.acquire(timeout=1.0):
            return
        try:
            proc, self._proc, self._ready = self._proc, None, False
            self._in_flight.clear()
            if proc is not None:
                proc.stdout.close()   # it stops writing, then reading
                proc.stdin.close()
                proc.wait()
        finally:
            self._lock.release()

    def _encode_here(self, blocks):
        for block in blocks:
            start = time.perf_counter()
            compressed = snappy.compress(block[0])
            self._account(host_blocks=1, host_s=time.perf_counter() - start)
            yield block, compressed

    def _encode_shared(self, source):
        window: deque = deque()  # slots: [block, compressed | None, sent]
        exhausted = False
        while True:
            if self._in_flight:
                self._guarded(self._collect, False)
            while window and window[0][1] is not None:
                slot = window.popleft()
                yield slot[0], slot[1]
            if len(self._in_flight) < _IN_FLIGHT:
                self._guarded(self._offload, window)
            if not exhausted and len(window) < _WINDOW:
                block = next(source, None)
                exhausted = block is None
                if block is not None:
                    window.append([block, None, False])
                continue
            if not window:
                return
            slot = next((slot for slot in reversed(window)
                         if slot[1] is None and not slot[2]), None)
            if slot is None:  # all that is left is with the helper
                self._guarded(self._collect, True)
                continue
            start = time.perf_counter()
            slot[1] = snappy.compress(slot[0][0])
            self._account(host_blocks=1, host_s=time.perf_counter() - start)

    def _guarded(self, step, *args) -> None:
        try:
            step(*args)
        except (_HelperFailure, OSError):
            self._fail()

    def _offload(self, window: deque) -> None:
        """Send the helper a full chunk from the window's head."""
        chunk, size = [], 0
        for slot in window:
            n = len(slot[0][0])
            if slot[1] is not None or slot[2] or n > _CHUNK_BYTES:
                continue
            if size + n > _CHUNK_BYTES:
                break
            chunk.append(slot)
            size += n
            if len(chunk) == _CHUNK_BLOCKS:
                break
        else:
            return
        if self._broken or not self._helper_ready():
            return
        self._sequence += 1
        raws = [slot[0][0] for slot in chunk]
        self._send(b"".join([
            _REQUEST.pack(_REQUEST_MAGIC, self._sequence, len(raws)),
            struct.pack(f"<{len(raws)}I", *map(len, raws)), *raws]))
        for slot in chunk:
            slot[2] = True
        queued = sum(len(sent) for _, sent, _ in self._in_flight) + len(raws)
        per_block = self._counts["host_s"] / max(self._counts["host_blocks"], 1)
        self._in_flight.append((self._sequence, chunk, time.monotonic() + max(
            _DEADLINE_FLOOR_S, _DEADLINE_FACTOR * queued * per_block)))

    def _collect(self, wait: bool) -> None:
        """Take the answers that have arrived, oldest first -- with
        ``wait``, at least the oldest, by its deadline."""
        while self._in_flight:
            sequence, chunk, deadline = self._in_flight[0]
            if wait:
                self._wait(self._proc.stdout, select.POLLIN, deadline)
            elif not self._poll(self._proc.stdout, select.POLLIN, 0):
                return
            wait = False
            outs, seconds = self._receive(sequence, chunk)
            self._in_flight.popleft()
            for slot, out in zip(chunk, outs):
                slot[1] = out
            self._account(helper_blocks=len(chunk), helper_s=seconds)

    # -- the helper -----------------------------------------------------

    def _helper_ready(self) -> bool:
        if self._proc is None:
            src = os.path.dirname(os.path.dirname(os.path.dirname(
                os.path.abspath(__file__))))
            self._proc = subprocess.Popen(
                self._command(src), stdin=subprocess.PIPE,
                stdout=subprocess.PIPE)
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
        if not self._poll(pipe, event, deadline - time.monotonic()):
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

    def _receive(self, sequence: int, chunk: list) -> tuple[list, float]:
        """One answer, checked against the request it answers."""
        magic, echoed, count, seconds = _ANSWER.unpack(
            self._read(_ANSWER.size))
        raws = [slot[0][0] for slot in chunk]
        if (magic, echoed, count) != (_ANSWER_MAGIC, sequence, len(raws)):
            raise _HelperFailure("answer does not match its request")
        lengths = struct.unpack(f"<{count}I", self._read(4 * count))
        if sum(lengths) > snappy.max_compressed_length(sum(map(len, raws))):
            raise _HelperFailure("answer longer than its request allows")
        body, outs, pos = self._read(sum(lengths)), [], 0
        for raw, n in zip(raws, lengths):
            out, pos = body[pos:pos + n], pos + n
            try:
                preamble = decode_varint32(out, 0)[0]
            except CorruptionError:
                preamble = -1
            if preamble != len(raw):
                raise _HelperFailure("preamble does not match its block")
            outs.append(out)
        return outs, seconds

    def _fail(self) -> None:
        """Kill and reap the helper; its blocks go back to the caller."""
        proc, self._proc, self._ready = self._proc, None, False
        self._broken = True
        if proc is not None:
            proc.kill()
            proc.wait()
            proc.stdin.close()
            proc.stdout.close()
        for _, chunk, _ in self._in_flight:
            for slot in chunk:
                slot[2] = False
        self._in_flight.clear()
        self._account(failures=1)

    def _account(self, **deltas) -> None:
        with self._stats_lock:
            for name, delta in deltas.items():
                self._counts[name] += delta


#: The process's encoder: one helper per process, shared by every build.
block_encoder = BlockEncoder()
