#!/usr/bin/env python3
"""End-to-end crash-durability smoke for the sharded KV service.

The drill CI runs on every change to the write path::

    PYTHONPATH=src python tools/service_smoke.py [--clients 4] \\
        [--writes 150] [--shards 2] [--root DIR]

1. Start ``python -m repro.service serve`` as a real subprocess on an
   ephemeral port (real OS files, ``wal_sync=group``).
2. Run concurrent client threads; every ``put`` that returns OK is
   recorded as *acknowledged*.  Each client ends with a few hundred
   3 KiB values, so a shard flushes a table: with two or more CPUs the
   server then runs its codec helper process.
3. ``SIGKILL`` the server mid-traffic — no shutdown hooks, no flush —
   and check that its helper exits with it (EOF on its stdin).
4. Restart the server over the same directory *on the same port* (no
   orphan holds the listening socket) and verify every acknowledged key
   is readable with the exact value written.

Exit status: 0 when no acknowledged write was lost, 1 on any loss or
corruption, 2 on harness failure.  In-flight writes that never got an
OK may land either way — only the acknowledgement is a promise.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(REPO, "src"))

from repro.service.client import KVClient, ServiceBusyError  # noqa: E402


#: Values written after the small ones: enough for a shard to flush.
BULK_WRITES = 400
BULK_VALUE_BYTES = 3072


def start_server(root: str, shards: int,
                 port: int = 0) -> tuple[subprocess.Popen, int]:
    read_fd, write_fd = os.pipe()
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "repro.service", "serve", root,
         "--port", str(port), "--shards", str(shards), "--wal-sync", "group",
         "--ready-fd", str(write_fd)],
        env=env, pass_fds=(write_fd,), stderr=subprocess.DEVNULL)
    os.close(write_fd)
    with os.fdopen(read_fd) as ready:
        line = ready.readline().strip()
    if not line:
        proc.kill()
        raise RuntimeError("server died before announcing its port")
    _host, port = line.split()
    return proc, int(port)


def wait_reachable(port: int, timeout: float = 10.0) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        try:
            socket.create_connection(("127.0.0.1", port), timeout=1).close()
            return
        except OSError:
            time.sleep(0.05)
    raise RuntimeError(f"server on port {port} never became reachable")


def bulk_value(key: bytes) -> bytes:
    """Half incompressible, like the benchmark's values."""
    half = BULK_VALUE_BYTES // 2
    return hashlib.shake_128(key).digest(half) + b"." * half


def proc_stat(pid: int) -> list[str] | None:
    """``[state, parent pid]`` of ``pid``, or None once it is gone."""
    try:
        with open(f"/proc/{pid}/stat") as stat:
            return stat.read().rsplit(")", 1)[1].split()[:2]
    except OSError:
        return None


def children(pid: int) -> list[int]:
    """Live (non-zombie) processes whose parent is ``pid``."""
    return [int(entry) for entry in os.listdir("/proc") if entry.isdigit()
            and (stat := proc_stat(int(entry))) is not None
            and stat[0] != "Z" and int(stat[1]) == pid]


def exited(pid: int, timeout: float = 10.0) -> bool:
    """Whether ``pid`` is gone (or a zombie) within ``timeout`` s."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        stat = proc_stat(pid)
        if stat is None or stat[0] == "Z":
            return True
        time.sleep(0.05)
    return False


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--writes", type=int, default=150,
                        help="writes per client before the kill")
    parser.add_argument("--shards", type=int, default=2)
    parser.add_argument("--root", default=None,
                        help="service directory (default: fresh tempdir)")
    args = parser.parse_args()

    root = args.root or tempfile.mkdtemp(prefix="kv-smoke-")
    print(f"service root: {root}")
    proc, port = start_server(root, args.shards)
    wait_reachable(port)
    print(f"server up on port {port} (pid {proc.pid}, wal_sync=group)")

    acked: list[list[tuple[bytes, bytes]]] = [[] for _ in range(args.clients)]
    failures: list[str] = []

    def client_worker(c: int) -> None:
        try:
            with KVClient("127.0.0.1", port) as kv:
                for i in range(args.writes):
                    key = f"smoke-c{c}-{i:06d}".encode()
                    value = f"payload-{c}-{i}".encode() * 3
                    kv.put(key, value)  # raises unless the server acked
                    acked[c].append((key, value))
                for i in range(BULK_WRITES):
                    key = f"smoke-c{c}-bulk-{i:06d}".encode()
                    value = bulk_value(key)
                    while True:
                        try:
                            kv.put(key, value)
                            break
                        except ServiceBusyError:  # a flush: back off
                            time.sleep(0.05)
                    acked[c].append((key, value))
        except Exception as error:  # killed mid-write: stop recording
            if not isinstance(error, (ConnectionError, OSError)):
                failures.append(f"client {c}: {type(error).__name__}: "
                                f"{error}")

    threads = [threading.Thread(target=client_worker, args=(c,))
               for c in range(args.clients)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if failures:
        print("harness failure during load:", *failures, sep="\n  ")
        proc.kill()
        return 2

    total_acked = sum(len(a) for a in acked)
    # The codec helper starts with the first table a flush builds; a
    # flush may still be under way when the last put is acknowledged.
    helpers: list[int] = []
    if os.path.isdir("/proc") and len(os.sched_getaffinity(0)) >= 2:
        deadline = time.monotonic() + 10
        while not helpers and time.monotonic() < deadline:
            helpers = children(proc.pid)
            time.sleep(0.05)
        if not helpers:
            print("harness failure: the server started no codec helper")
            proc.kill()
            return 2
    print(f"{total_acked} writes acknowledged; killing server with "
          f"SIGKILL")
    proc.send_signal(signal.SIGKILL)
    proc.wait()
    for pid in helpers:
        if not exited(pid):
            print(f"FAIL: codec helper {pid} outlived the killed server")
            os.kill(pid, signal.SIGKILL)
            return 1
    if helpers:
        print(f"codec helper(s) {helpers} exited with the server")

    # Same port: a helper holding the old listening socket would fail
    # this bind.
    proc2, port2 = start_server(root, args.shards, port)
    try:
        wait_reachable(port2)
        print(f"server restarted on port {port2} (pid {proc2.pid}); "
              f"verifying")
        lost = []
        with KVClient("127.0.0.1", port2) as kv:
            for per_client in acked:
                for key, value in per_client:
                    try:
                        got = kv.get(key)
                    except Exception:
                        lost.append((key, "missing"))
                        continue
                    if got != value:
                        lost.append((key, "corrupt"))
        if lost:
            print(f"FAIL: {len(lost)}/{total_acked} acknowledged writes "
                  f"lost or corrupt after kill -9:")
            for key, why in lost[:10]:
                print(f"  {key.decode()}: {why}")
            return 1
        # When the lock-order watchdog is on (REPRO_LOCK_WATCHDOG=1,
        # inherited by the server process), the replay above re-ran
        # recovery + group commit under instrumented locks: any ordering
        # cycle the drill provoked shows up in the stats payload.
        with KVClient("127.0.0.1", port2) as kv:
            lockwatch = kv.stats().get("lockwatch")
        if lockwatch is not None:
            cycles = lockwatch.get("cycles", [])
            if cycles:
                print(f"FAIL: lock watchdog observed ordering cycles: "
                      f"{cycles}")
                return 1
            print(f"lock watchdog: {sum(lockwatch['acquires'].values())} "
                  f"acquires, {lockwatch['edges']} order edges, 0 cycles")
        print(f"OK: all {total_acked} acknowledged writes survived "
              f"kill -9")
        return 0
    finally:
        proc2.send_signal(signal.SIGTERM)
        try:
            proc2.wait(timeout=10)
        except subprocess.TimeoutExpired:
            proc2.kill()


if __name__ == "__main__":
    sys.exit(main())
