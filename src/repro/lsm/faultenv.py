"""Fault-injecting storage environments for durability testing.

Two tools for making the WAL's fsync promises *testable*:

* :class:`CrashEnv` — an in-memory filesystem that models the three
  buffering tiers a real write traverses (userspace buffer → OS page
  cache → stable storage) and can :meth:`~CrashEnv.crash` at either
  boundary.  ``append`` lands in the userspace tier, ``flush`` promotes
  to the page-cache tier, ``sync`` to stable storage.  ``crash("process")``
  drops every open file's unflushed userspace bytes (a SIGKILL);
  ``crash("power")`` truncates every file to its last synced offset (a
  power loss).  After a crash all outstanding handles go stale — further
  writes through them raise, like writes in a dead process.
* :class:`SlowSyncEnv` — wraps any :class:`Env` and charges a modeled
  latency per ``sync`` (and optionally per ``flush``), so benchmarks see
  the fsync cost structure of a real device on top of the hermetic
  in-memory store.  This is what makes the group-commit throughput
  crossover measurable without real disks.

Limitations (documented, deliberate): directory operations (create,
delete, rename) are treated as immediately durable — modeling directory
journaling is out of scope, and the store's recovery path only depends
on file *contents* surviving per their sync state.
"""

from __future__ import annotations

import os
import threading
import time
from typing import Iterable, Optional

from repro.errors import InvalidArgumentError, NotFoundError
from repro.lsm.env import Env, MemEnv, WritableFile

#: Crash kinds understood by :meth:`CrashEnv.crash`.
CRASH_KINDS = ("process", "power")


class _FileState:
    """One file's three-tier contents: ``data[:synced]`` is on stable
    storage, ``data[synced:flushed]`` in the OS page cache,
    ``data[flushed:]`` in the (volatile-on-process-death) userspace
    buffer of the writing handle."""

    __slots__ = ("data", "flushed", "synced")

    def __init__(self) -> None:
        self.data = bytearray()
        self.flushed = 0
        self.synced = 0


class _CrashWritableFile(WritableFile):
    def __init__(self, env: "CrashEnv", name: str, state: _FileState):
        self._env = env
        self._name = name
        self._state = state
        self._epoch = env._epoch
        self._closed = False

    def _check_live(self) -> None:
        if self._closed:
            raise ValueError(f"write to closed file {self._name}")
        if self._epoch != self._env._epoch:
            raise ValueError(
                f"stale handle to {self._name}: the environment crashed")

    def append(self, data: bytes) -> None:
        with self._env._lock:
            self._check_live()
            self._state.data += data

    def flush(self) -> None:
        with self._env._lock:
            self._check_live()
            self._state.flushed = len(self._state.data)

    def sync(self) -> None:
        with self._env._lock:
            self._check_live()
            state = self._state
            state.flushed = len(state.data)
            state.synced = len(state.data)
            self._env.syncs += 1

    def close(self) -> None:
        with self._env._lock:
            if self._closed or self._epoch != self._env._epoch:
                self._closed = True
                return
            # Closing drains the userspace buffer into the page cache
            # (what a real close does); it does NOT imply fsync.
            self._state.flushed = len(self._state.data)
            self._closed = True
            self._env._open_files.discard(self._name)

    @property
    def size(self) -> int:
        return len(self._state.data)


class CrashEnv(Env):
    """In-memory filesystem with injectable process/power crashes."""

    def __init__(self) -> None:
        self._files: dict[str, _FileState] = {}
        self._open_files: set[str] = set()
        self._lock = threading.Lock()
        self._epoch = 0
        #: Total ``sync()`` calls across all files.
        self.syncs = 0

    @staticmethod
    def _norm(name: str) -> str:
        return os.path.normpath(name)

    def crash(self, kind: str = "process") -> None:
        """Simulate a crash, truncating files to the surviving tier.

        ``"process"`` keeps everything flushed to the page cache (only
        open files' userspace buffers are lost); ``"power"`` keeps only
        synced bytes.  All outstanding handles become stale.
        """
        if kind not in CRASH_KINDS:
            raise InvalidArgumentError(
                f"unknown crash kind {kind!r} (expected one of "
                f"{', '.join(CRASH_KINDS)})")
        with self._lock:
            for state in self._files.values():
                keep = state.flushed if kind == "process" else state.synced
                del state.data[keep:]
                state.flushed = len(state.data)
                state.synced = min(state.synced, len(state.data))
            self._open_files.clear()
            self._epoch += 1

    def new_writable_file(self, name: str) -> WritableFile:
        name = self._norm(name)
        with self._lock:
            state = self._files[name] = _FileState()
            self._open_files.add(name)
            return _CrashWritableFile(self, name, state)

    def new_appendable_file(self, name: str) -> WritableFile:
        name = self._norm(name)
        with self._lock:
            state = self._files.get(name)
            if state is None:
                state = self._files[name] = _FileState()
            self._open_files.add(name)
            return _CrashWritableFile(self, name, state)

    def read_file(self, name: str) -> bytes:
        name = self._norm(name)
        with self._lock:
            state = self._files.get(name)
            if state is None:
                raise NotFoundError(name)
            return bytes(state.data)

    def file_exists(self, name: str) -> bool:
        with self._lock:
            return self._norm(name) in self._files

    def file_size(self, name: str) -> int:
        name = self._norm(name)
        with self._lock:
            state = self._files.get(name)
            if state is None:
                raise NotFoundError(name)
            return len(state.data)

    def delete_file(self, name: str) -> None:
        name = self._norm(name)
        with self._lock:
            if name not in self._files:
                raise NotFoundError(name)
            del self._files[name]
            self._open_files.discard(name)

    def rename_file(self, src: str, dst: str) -> None:
        src, dst = self._norm(src), self._norm(dst)
        with self._lock:
            if src not in self._files:
                raise NotFoundError(src)
            self._files[dst] = self._files.pop(src)

    def list_dir(self, path: str) -> list[str]:
        prefix = self._norm(path) + os.sep
        seen = set()
        with self._lock:
            for name in self._files:
                if name.startswith(prefix):
                    rest = name[len(prefix):]
                    seen.add(rest.split(os.sep, 1)[0])
        return sorted(seen)

    def create_dir(self, path: str) -> None:
        pass


class _SlowSyncFile(WritableFile):
    def __init__(self, inner: WritableFile, env: "SlowSyncEnv"):
        self._inner = inner
        self._env = env

    def append(self, data: bytes) -> None:
        self._inner.append(data)

    def flush(self) -> None:
        if self._env.flush_latency > 0:
            time.sleep(self._env.flush_latency)
        self._inner.flush()

    def sync(self) -> None:
        if self._env.sync_latency > 0:
            time.sleep(self._env.sync_latency)
        self._inner.sync()
        self._env.syncs += 1

    def close(self) -> None:
        self._inner.close()

    @property
    def size(self) -> int:
        return self._inner.size


class SlowSyncEnv(Env):
    """Delegating wrapper that charges a modeled fsync latency.

    The default 1 ms per ``sync`` is the ballpark of a datacenter SSD's
    flush; it makes the throughput-vs-durability crossover of the WAL
    sync modes measurable on the hermetic in-memory store.
    """

    def __init__(self, inner: Optional[Env] = None,
                 sync_latency: float = 1e-3,
                 flush_latency: float = 0.0):
        self._inner = inner or MemEnv()
        self.sync_latency = sync_latency
        self.flush_latency = flush_latency
        #: Total charged ``sync()`` calls across all files.
        self.syncs = 0

    @property
    def inner(self) -> Env:
        return self._inner

    def new_writable_file(self, name: str) -> WritableFile:
        return _SlowSyncFile(self._inner.new_writable_file(name), self)

    def new_appendable_file(self, name: str) -> WritableFile:
        return _SlowSyncFile(self._inner.new_appendable_file(name), self)

    def read_file(self, name: str) -> bytes:
        return self._inner.read_file(name)

    def file_exists(self, name: str) -> bool:
        return self._inner.file_exists(name)

    def file_size(self, name: str) -> int:
        return self._inner.file_size(name)

    def delete_file(self, name: str) -> None:
        self._inner.delete_file(name)

    def rename_file(self, src: str, dst: str) -> None:
        self._inner.rename_file(src, dst)

    def list_dir(self, path: str) -> Iterable[str]:
        return self._inner.list_dir(path)

    def create_dir(self, path: str) -> None:
        self._inner.create_dir(path)
