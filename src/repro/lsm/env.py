"""Storage environment abstraction.

The database performs all file I/O through an :class:`Env`, in the style of
LevelDB's ``Env``.  Two implementations are provided:

* :class:`MemEnv` — an in-memory filesystem, used by tests and by the FPGA
  offload examples so runs are hermetic and fast.  It keeps each file's
  page-cache and stable-storage tiers apart, so a test can crash it and
  check what the WAL's fsync policies keep, and it can charge a modeled
  fsync latency (``bench fsync``);
* :class:`OsEnv` — thin wrapper over the real filesystem.

Both expose whole-file, append-style and positional-read handles: WAL
segments and MANIFEST files are read whole, SSTables a block at a time
through :meth:`Env.new_random_access_file` (``pread`` on :class:`OsEnv`).
"""

from __future__ import annotations

import os
import threading
import time
import weakref
from abc import ABC, abstractmethod
from typing import Iterable

from repro.errors import InvalidArgumentError, NotFoundError


class WritableFile(ABC):
    """Append-only file handle."""

    @abstractmethod
    def append(self, data: bytes) -> None: ...

    @abstractmethod
    def flush(self) -> None: ...

    def sync(self) -> None:
        """Force written bytes to stable storage (``fsync``).

        ``flush`` only drains the userspace buffer into the OS page
        cache — bytes survive a process crash but not a power loss.
        ``sync`` is the durability point the WAL's fsync policies build
        on.  Default falls back to ``flush`` for implementations that
        predate this method."""
        self.flush()

    @abstractmethod
    def close(self) -> None: ...

    @property
    @abstractmethod
    def size(self) -> int: ...


class RandomAccessFile:
    """A file read by position: ``size``, ``read(offset, n)`` (short at
    the end of the file) and ``image``, the whole file.  This one holds
    the image in memory and reads slices of it, without copying it."""

    def __init__(self, image: bytes):
        self.image = image
        self.size = len(image)

    def read(self, offset: int, n: int) -> bytes:
        return self.image[offset:offset + n]


class Env(ABC):
    """Filesystem facade used by the database."""

    @abstractmethod
    def new_writable_file(self, name: str) -> WritableFile: ...

    def new_appendable_file(self, name: str) -> WritableFile:
        """Open ``name`` for appending, keeping existing contents (the
        event journal extends across DB reopens).  Default falls back to
        truncate-on-open for Envs that predate this method."""
        return self.new_writable_file(name)

    @abstractmethod
    def read_file(self, name: str) -> bytes: ...

    def new_random_access_file(self, name: str) -> RandomAccessFile:
        """Open ``name`` for positional reads.  Default: its whole image,
        read once through :meth:`read_file` and held by the handle, so
        the handle reads on after the file is deleted."""
        return RandomAccessFile(self.read_file(name))

    @abstractmethod
    def file_exists(self, name: str) -> bool: ...

    @abstractmethod
    def file_size(self, name: str) -> int: ...

    @abstractmethod
    def delete_file(self, name: str) -> None: ...

    @abstractmethod
    def rename_file(self, src: str, dst: str) -> None: ...

    @abstractmethod
    def list_dir(self, path: str) -> Iterable[str]: ...

    @abstractmethod
    def create_dir(self, path: str) -> None: ...


#: Crash kinds understood by :meth:`MemEnv.crash`.
CRASH_KINDS = ("process", "power")


class _MemFile:
    """One file's three-tier contents: ``data[:synced]`` is on stable
    storage, ``data[synced:flushed]`` in the OS page cache,
    ``data[flushed:]`` in the (volatile-on-process-death) userspace
    buffer of the writing handle."""

    __slots__ = ("data", "flushed", "synced")

    def __init__(self) -> None:
        self.data = bytearray()
        self.flushed = 0
        self.synced = 0


class _MemWritableFile(WritableFile):
    def __init__(self, env: "MemEnv", name: str, state: _MemFile):
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
        env = self._env
        if env.sync_seconds > 0:
            # Outside the lock: reads and other files' syncs go on
            # meanwhile, as beside a device's flush.
            time.sleep(env.sync_seconds)
        with env._lock:
            self._check_live()
            state = self._state
            state.flushed = state.synced = len(state.data)
            env.syncs += 1

    def close(self) -> None:
        with self._env._lock:
            if not self._closed and self._epoch == self._env._epoch:
                # Closing drains the userspace buffer into the page
                # cache (what a real close does); it does NOT fsync.
                self._state.flushed = len(self._state.data)
            self._closed = True

    @property
    def size(self) -> int:
        return len(self._state.data)


class MemEnv(Env):
    """In-memory filesystem keyed by normalized path strings, with
    injectable process and power crashes.

    Each file models the three tiers a real write traverses: ``append``
    lands in the writing handle's userspace buffer, ``flush`` (and
    ``close``) drains it to the page cache, ``sync`` to stable storage.
    :meth:`crash` truncates every file to the tier that survives.  Every
    ``sync`` waits ``sync_seconds`` first, a modeled fsync latency that
    makes the WAL sync modes' throughput trade-off measurable without a
    disk.  Directory operations (create, delete, rename) are immediately
    durable.  One lock guards the file map and the tiers, so a writer's
    thread can create and retire files while another lists the
    directory.
    """

    def __init__(self, sync_seconds: float = 0.0) -> None:
        self._files: dict[str, _MemFile] = {}
        self._lock = threading.Lock()
        self._epoch = 0
        self.sync_seconds = sync_seconds
        #: Total ``sync()`` calls across all files.
        self.syncs = 0

    @staticmethod
    def _norm(name: str) -> str:
        return os.path.normpath(name)

    def crash(self, kind: str = "process") -> None:
        """Simulate a crash, truncating files to the surviving tier.

        ``"process"`` (a SIGKILL) keeps everything flushed to the page
        cache, so only open files' userspace buffers are lost;
        ``"power"`` keeps only synced bytes.  Every outstanding handle
        goes stale: writing through it raises, like a dead process.
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
            self._epoch += 1

    def new_writable_file(self, name: str) -> WritableFile:
        name = self._norm(name)
        with self._lock:
            state = self._files[name] = _MemFile()
            return _MemWritableFile(self, name, state)

    def new_appendable_file(self, name: str) -> WritableFile:
        name = self._norm(name)
        with self._lock:
            state = self._files.get(name)
            if state is None:
                state = self._files[name] = _MemFile()
            return _MemWritableFile(self, name, state)

    def _state(self, name: str) -> _MemFile:
        """``name``'s state; the caller holds the lock."""
        state = self._files.get(name)
        if state is None:
            raise NotFoundError(name)
        return state

    def read_file(self, name: str) -> bytes:
        name = self._norm(name)
        with self._lock:
            return bytes(self._state(name).data)

    def file_exists(self, name: str) -> bool:
        with self._lock:
            return self._norm(name) in self._files

    def file_size(self, name: str) -> int:
        name = self._norm(name)
        with self._lock:
            return len(self._state(name).data)

    def delete_file(self, name: str) -> None:
        name = self._norm(name)
        with self._lock:
            self._state(name)
            del self._files[name]

    def rename_file(self, src: str, dst: str) -> None:
        src, dst = self._norm(src), self._norm(dst)
        with self._lock:
            state = self._state(src)
            del self._files[src]
            self._files[dst] = state

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


class _OsWritableFile(WritableFile):
    def __init__(self, name: str, append: bool = False):
        self._file = open(name, "ab" if append else "wb")
        # An appendable reopen starts past the existing contents; the
        # WAL seeds its block accounting from this, so it must not lie.
        self._size = os.path.getsize(name) if append else 0

    def append(self, data: bytes) -> None:
        self._file.write(data)
        self._size += len(data)

    def flush(self) -> None:
        self._file.flush()

    def sync(self) -> None:
        self._file.flush()
        os.fsync(self._file.fileno())

    def close(self) -> None:
        self._file.close()

    @property
    def size(self) -> int:
        return self._size


class _OsRandomAccessFile(RandomAccessFile):
    """One ``os.open`` descriptor read with ``os.pread``; it closes when
    the handle is freed, so an unlinked file stays readable until then."""

    def __init__(self, name: str):
        try:
            self._fd = fd = os.open(name, os.O_RDONLY)
        except FileNotFoundError as exc:
            raise NotFoundError(name) from exc
        weakref.finalize(self, os.close, fd)
        self.size = os.fstat(fd).st_size

    def read(self, offset: int, n: int) -> bytes:
        return os.pread(self._fd, n, offset)

    @property
    def image(self) -> bytes:
        return self.read(0, self.size)


class OsEnv(Env):
    """Real-filesystem environment."""

    def new_writable_file(self, name: str) -> WritableFile:
        return _OsWritableFile(name)

    def new_appendable_file(self, name: str) -> WritableFile:
        return _OsWritableFile(name, append=True)

    def read_file(self, name: str) -> bytes:
        try:
            with open(name, "rb") as handle:
                return handle.read()
        except FileNotFoundError as exc:
            raise NotFoundError(name) from exc

    def new_random_access_file(self, name: str) -> RandomAccessFile:
        return _OsRandomAccessFile(name)

    def file_exists(self, name: str) -> bool:
        return os.path.exists(name)

    def file_size(self, name: str) -> int:
        try:
            return os.path.getsize(name)
        except FileNotFoundError as exc:
            raise NotFoundError(name) from exc

    def delete_file(self, name: str) -> None:
        try:
            os.remove(name)
        except FileNotFoundError as exc:
            raise NotFoundError(name) from exc

    def rename_file(self, src: str, dst: str) -> None:
        try:
            os.replace(src, dst)
        except FileNotFoundError as exc:
            raise NotFoundError(src) from exc

    def list_dir(self, path: str) -> list[str]:
        return sorted(os.listdir(path))

    def create_dir(self, path: str) -> None:
        os.makedirs(path, exist_ok=True)
