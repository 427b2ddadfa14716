"""Pieces every workload shares: self-verifying values, the failure tally,
percentiles, the BUSY retry policy, the counting Env and process probes."""

from __future__ import annotations

import hashlib
import resource
import statistics
import struct
import threading
import time
from contextlib import contextmanager

from repro.lsm import Options
from repro.lsm.env import Env, OsEnv, WritableFile
from repro.service.client import ServiceBusyError

#: Table geometry shared by the four KV workloads: small enough that a
#: ten-second run sees dozens of flushes and merges reach level 2.
GEOMETRY = dict(write_buffer_size=128 * 1024, sstable_size=64 * 1024,
                max_level0_size=512 * 1024)

#: One BUSY policy for load and run phases: sleep, retry, then give up.
BUSY_SLEEP_SECONDS = 0.002
BUSY_TRIES = 500

#: A get that takes longer than this was blocked, not slow.
BLOCKED_GET_SECONDS = 0.020

_VERSION = struct.Struct(">Q")


def geometry_options(**overrides) -> Options:
    return Options(**{**GEOMETRY, **overrides})


def value_for(key: bytes, version: int, length: int) -> bytes:
    """The only value ``key`` may hold at ``version``: the version in the
    first 8 bytes, then half hash output and half one repeated byte, so
    snappy keeps about 0.55 of it (db_bench's default compressibility)."""
    body = length - _VERSION.size
    noise = body // 2
    head = _VERSION.pack(version)
    return (head + hashlib.shake_128(head + key).digest(noise)
            + bytes([version % 251]) * (body - noise))


def version_of(key: bytes, value: bytes) -> int | None:
    """The version ``value`` carries, or None when it is not a value this
    benchmark wrote for ``key``."""
    if len(value) < _VERSION.size:
        return None
    (version,) = _VERSION.unpack_from(value)
    return version if value == value_for(key, version, len(value)) else None


class Tally:
    """Attempted and failed operations, verification included."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_failures: list[str] = []

    def absorb(self, other: "Tally") -> None:
        """Fold in a tally a worker thread kept for itself."""
        self.attempted += other.attempted
        self.failed += other.failed
        self.first_failures = (self.first_failures
                               + other.first_failures)[:5]

    def fail(self, what: str) -> None:
        self.attempted += 1
        self.failed += 1
        if len(self.first_failures) < 5:
            self.first_failures.append(what)

    def check(self, good: bool, what: str) -> None:
        if good:
            self.attempted += 1
        else:
            self.fail(what)


def percentiles(samples_seconds: list[float]) -> tuple[float, float, int]:
    """(p50 us, p99 us, sample count).  p99 is the highest percentile any
    workload reports: each KV sample set has more than 1 000 samples."""
    if len(samples_seconds) < 2:
        only = samples_seconds[0] * 1e6 if samples_seconds else 0.0
        return only, only, len(samples_seconds)
    cuts = statistics.quantiles(samples_seconds, n=100, method="inclusive")
    return cuts[49] * 1e6, cuts[98] * 1e6, len(samples_seconds)


def with_busy_retry(call, busy_draws: list[int]):
    """Run ``call`` under the shared BUSY policy; appends the number of
    BUSY answers it drew.  Raises ServiceBusyError past the budget."""
    for attempt in range(BUSY_TRIES):
        try:
            result = call()
        except ServiceBusyError:
            time.sleep(BUSY_SLEEP_SECONDS)
            continue
        busy_draws.append(attempt)
        return result
    busy_draws.append(BUSY_TRIES)
    raise ServiceBusyError(f"still BUSY after {BUSY_TRIES} tries")


def db_counters(db) -> dict:
    """One LsmDB's public counters, additive across shards except
    ``levels_used``."""
    registry = db.metrics.snapshot()

    def histogram(name: str) -> tuple[float, int]:
        children = registry.get(name, {}).values()
        return (sum(child[0] for child in children),
                sum(child[1] for child in children))

    stats = db.stats
    stall_s, stalls = histogram("lsm_write_stall_seconds")
    return {
        "flushes": stats.flushes, "flush_bytes": stats.flush_bytes,
        "compactions": stats.compactions,
        "compaction_in_bytes": stats.compaction_input_bytes,
        "compaction_out_bytes": stats.compaction_output_bytes,
        "stall_s": stall_s, "stalls": stalls,
        "wal_sync_s": histogram("lsm_wal_sync_seconds")[0],
        "cache_hits": stats.block_cache_hits,
        "cache_misses": stats.block_cache_misses,
        "levels_used": sum(1 for size in db.level_sizes() if size),
    }


def db_facts(counters: dict) -> dict:
    """Per-layer metric values from (summed) :func:`db_counters`."""
    lookups = counters["cache_hits"] + counters["cache_misses"]
    return {
        "lsm.flushes": counters["flushes"],
        "lsm.flush_bytes": counters["flush_bytes"],
        "lsm.compactions": counters["compactions"],
        "lsm.compaction_in_bytes": counters["compaction_in_bytes"],
        "lsm.compaction_out_bytes": counters["compaction_out_bytes"],
        "lsm.stall_s": counters["stall_s"],
        "lsm.stalls": counters["stalls"],
        "lsm.wal.sync_s": counters["wal_sync_s"],
        "lsm.cache.hit_share": (counters["cache_hits"] / lookups
                                if lookups else 0.0),
        "lsm.levels_used": counters["levels_used"],
    }


def rss_mb() -> float:
    with open("/proc/self/statm") as handle:
        pages = int(handle.read().split()[1])
    return pages * resource.getpagesize() / 1e6


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1e3


#: Input of the calibration loop: fixed, mildly repetitive bytes.
_CALIBRATION_INPUT = bytes((i * 37 + (i >> 3)) & 0xFF for i in range(2048))


class Calibrator:
    """How fast is this machine right now, for this kind of code?

    The sandbox's speed drifts by 15-40 % for minutes at a time, so two runs
    of the same code differ by more than any bound worth having.  The drift
    slows everything in a run alike, so a fixed piece of interpreter work
    owned by the benchmark (byte indexing, a dict, a growing bytearray: the
    mix the store's pure-Python codecs are made of, a third of a millisecond
    long), timed every ``EVERY_SECONDS``, measures it; and the bounded
    metrics ``ops_per_ref_s`` and ``setup_s`` are in *reference seconds*,
    seconds in which that loop takes ``REFERENCE_SECONDS``.  The loop
    touches nothing under ``src/``, so no change to the program can move
    it."""

    EVERY_SECONDS = 0.1
    BURST = 3
    REFERENCE_SECONDS = 0.0003

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._next = 0.0

    def sample(self) -> None:
        """``BURST`` timings of the loop, back to back."""
        for _ in range(self.BURST):
            self.samples.append(self._loop_seconds())
        self._next = time.perf_counter() + self.EVERY_SECONDS

    @staticmethod
    def _loop_seconds() -> float:
        data = _CALIBRATION_INPUT
        start = time.perf_counter()
        table: dict = {}
        out = bytearray()
        pos, end = 0, len(data) - 4
        while pos < end:
            word = data[pos] | data[pos + 1] << 8 | data[pos + 2] << 16
            slot = (word * 0x1E35A7BD) & 0xFFFF
            previous = table.get(slot, -1)
            table[slot] = pos
            if previous >= 0 and data[previous] == data[pos]:
                out += data[pos:pos + 4]
                pos += 4
            else:
                out.append(data[pos])
                pos += 1
        return time.perf_counter() - start

    def due(self, now: float) -> bool:
        return now >= self._next

    @contextmanager
    def in_background(self):
        """Sample from a thread until the block ends: for a phase with no
        gaps between short requests to sample in (offload_model's jobs last
        seconds).  The thread holds the interpreter lock for its whole
        millisecond, but runs on a cold cache: its timings read higher
        than inline ones, alike in every run."""
        done = threading.Event()

        def run() -> None:
            while not done.wait(self.EVERY_SECONDS):
                self.sample()

        thread = threading.Thread(target=run, name="calibrator", daemon=True)
        self.sample()
        thread.start()
        try:
            yield
        finally:
            done.set()
            thread.join()

    def mean_seconds(self) -> float:
        return statistics.mean(self.samples)

    def slowdown(self) -> float:
        """Mean calibration time over the reference: 1.3 means the run saw
        a machine 30 % slower than the reference one."""
        return self.mean_seconds() / self.REFERENCE_SECONDS


class _CountingFile(WritableFile):
    def __init__(self, inner: WritableFile, env: "CountingEnv"):
        self._inner = inner
        self._env = env

    def append(self, data: bytes) -> None:
        env = self._env
        env.write_calls += 1
        env.write_bytes += len(data)
        env.timed("env.write", self._inner.append, data)

    def flush(self) -> None:
        self._env.timed("env.write", self._inner.flush)

    def sync(self) -> None:
        self._env.syncs += 1
        self._env.timed("env.sync", self._inner.sync)

    def close(self) -> None:
        self._inner.close()

    @property
    def size(self) -> int:
        return self._inner.size


class CountingEnv(Env):
    """OsEnv with byte and call counters, passed through the public
    ``env=`` argument in a traced pass; its I/O shows up as ``env.*`` spans
    of the recorder it is given."""

    def __init__(self, recorder):
        self._inner = OsEnv()
        self._recorder = recorder
        self.write_bytes = self.write_calls = self.syncs = 0
        self.read_file_calls = self.read_bytes = 0

    def timed(self, name: str, call, *args):
        frame = self._recorder.enter(name)
        try:
            return call(*args)
        finally:
            self._recorder.exit(frame)

    def counters(self) -> dict[str, int]:
        return {"env.write_bytes": self.write_bytes,
                "env.write_calls": self.write_calls,
                "env.syncs": self.syncs,
                "env.read_file_calls": self.read_file_calls,
                "env.read_bytes": self.read_bytes}

    def new_writable_file(self, name: str) -> WritableFile:
        return _CountingFile(self._inner.new_writable_file(name), self)

    def new_appendable_file(self, name: str) -> WritableFile:
        return _CountingFile(self._inner.new_appendable_file(name), self)

    def read_file(self, name: str) -> bytes:
        data = self.timed("env.read_file", self._inner.read_file, name)
        self.read_file_calls += 1
        self.read_bytes += len(data)
        return data

    def file_exists(self, name: str) -> bool:
        return self._inner.file_exists(name)

    def file_size(self, name: str) -> int:
        return self._inner.file_size(name)

    def delete_file(self, name: str) -> None:
        self._inner.delete_file(name)

    def rename_file(self, src: str, dst: str) -> None:
        self._inner.rename_file(src, dst)

    def list_dir(self, path: str):
        return self._inner.list_dir(path)

    def create_dir(self, path: str) -> None:
        self._inner.create_dir(path)
