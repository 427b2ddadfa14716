"""Sharded KV service: shard-owning dispatcher and TCP front-end.

:class:`KVService` owns ``N`` independent :class:`~repro.lsm.LsmDB`
shards under one root directory (``root/shard-00`` …), routes every
operation through a :class:`~repro.service.router.RangeRouter`, and
admits writes through a per-shard :class:`ShardGate`.  Each shard opens
in ``wal_sync="group"`` mode by default, so the server's concurrent
handler threads land in the shard's writer queue and a leader commits
them as one fsync — the per-shard write queue feeding group commit *is*
the DB's writer deque; no second queue layer exists to re-order or
buffer acknowledged data.

Backpressure: each gate watches the shard's ``lsm_write_stall_seconds``
histogram and compares stalled-time deltas against wall time.  When the
shard spends more than ``stall_threshold`` of its recent window stalled
(on a memtable flush, or on L0 at the stop trigger: the engine has no
slowdown throttle), writes get ``BUSY`` instead of queueing without
bound — the client retries, and reads stay unaffected.
"""

from __future__ import annotations

import json
import socket
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from typing import Optional, Sequence

from repro.analysis import watchdog as lockwatch
from repro.errors import InvalidArgumentError, NotFoundError, ReproError
from repro.lsm import LsmDB, Options, WriteBatch
from repro.lsm.env import Env, OsEnv
from repro.lsm.internal import TYPE_VALUE
from repro.service import protocol
from repro.service.router import RangeRouter


class ShardGate:
    """Admission control from one shard's write-stall pressure."""

    def __init__(self, db: LsmDB, stall_threshold: float = 0.5,
                 window_seconds: float = 0.25):
        self._db = db
        self.stall_threshold = stall_threshold
        self.window_seconds = window_seconds
        self._lock = lockwatch.make_lock("service.gate")
        self._last_time = time.monotonic()  # guarded_by: _lock
        self._last_stalled = db.stats.stall_seconds  # guarded_by: _lock
        self._busy = False  # guarded_by: _lock
        #: Writes refused with BUSY (monotone; surfaced in stats).
        self.rejections = 0  # guarded_by: _lock

    def admit(self) -> bool:
        """True when a write may proceed; False → respond BUSY."""
        now = time.monotonic()
        with self._lock:
            elapsed = now - self._last_time
            if elapsed >= self.window_seconds:
                stalled = self._db.stats.stall_seconds
                self._busy = ((stalled - self._last_stalled)
                              > self.stall_threshold * elapsed)
                self._last_time = now
                self._last_stalled = stalled
            if self._busy:
                self.rejections += 1
            return not self._busy


class KVService:
    """Owns the shards; maps protocol requests to shard operations."""

    def __init__(self, root: str, num_shards: int = 4,
                 options: Optional[Options] = None,
                 env: Optional[Env] = None,
                 split_keys: Optional[Sequence[bytes]] = None,
                 stall_threshold: float = 0.5):
        if num_shards < 1:
            raise InvalidArgumentError("num_shards must be >= 1")
        self.root = root
        self.env = env or OsEnv()
        self.options = options or Options(wal_sync="group")
        if split_keys is not None:
            self.router = RangeRouter(split_keys)
            if self.router.num_shards != num_shards:
                raise InvalidArgumentError(
                    f"{len(split_keys)} split keys define "
                    f"{self.router.num_shards} shards, not {num_shards}")
        else:
            self.router = RangeRouter.uniform(num_shards)
        self.env.create_dir(root)
        self.shards = [
            LsmDB(f"{root}/shard-{i:02d}", self.options, env=self.env)
            for i in range(num_shards)
        ]
        self.gates = [ShardGate(db, stall_threshold=stall_threshold)
                      for db in self.shards]
        self._closed = False

    # ------------------------------------------------------------ KV API

    def get(self, key: bytes) -> bytes:
        return self.shards[self.router.shard_for(key)].get(key)

    def put(self, key: bytes, value: bytes) -> None:
        self.shards[self.router.shard_for(key)].put(key, value)

    def delete(self, key: bytes) -> None:
        self.shards[self.router.shard_for(key)].delete(key)

    def apply_batch(self, batch: WriteBatch) -> int:
        """Split a client batch by owning shard and commit each piece.

        Atomic per shard (each piece is one WAL record); cross-shard
        batches are not atomic as a whole — documented service contract.
        Returns the number of shards written.
        """
        pieces: dict[int, WriteBatch] = {}
        for value_type, key, value in batch:
            shard = self.router.shard_for(key)
            piece = pieces.setdefault(shard, WriteBatch())
            if value_type == TYPE_VALUE:
                piece.put(key, value)
            else:
                piece.delete(key)
        for shard, piece in sorted(pieces.items()):
            self.shards[shard].write(piece)
        return len(pieces)

    def stats(self) -> dict:
        shards = []
        for i, db in enumerate(self.shards):
            start, end = self.router.shard_range(i)
            shards.append({
                "shard": i,
                "start": start.hex() if start is not None else None,
                "end": end.hex() if end is not None else None,
                "levels": db.level_file_counts(),
                "writes": db.stats.writes,
                "group_commits": db.stats.group_commits,
                "wal_syncs": db.stats.wal_syncs,
                "stall_seconds": db.stats.stall_seconds,
                "busy_rejections": self.gates[i].rejections,
            })
        out = {
            "root": self.root,
            "num_shards": len(self.shards),
            "wal_sync": self.options.wal_sync,
            "shards": shards,
        }
        if lockwatch.enabled():
            out["lockwatch"] = lockwatch.get().report()
        return out

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        for db in self.shards:
            db.close()

    def __enter__(self) -> "KVService":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # ------------------------------------------------------- dispatching

    def dispatch(self, payload: bytes) -> bytes:
        """One request payload in, one response payload out."""
        try:
            op, body = protocol.decode_request(payload)
            return self._dispatch_op(op, body)
        except protocol.ProtocolError:
            raise  # connection-fatal; the server closes the socket
        except NotFoundError:
            return protocol.encode_response(protocol.NOT_FOUND)
        except ReproError as error:
            return protocol.encode_response(
                protocol.ERROR, str(error).encode())

    def _dispatch_op(self, op: int, body: bytes) -> bytes:
        if op == protocol.OP_PING:
            return protocol.encode_response(protocol.OK)
        if op == protocol.OP_GET:
            (key,) = protocol.decode_slices(body, 1)
            value = self.get(key)
            return protocol.encode_response(protocol.OK, value)
        if op == protocol.OP_STATS:
            stats = json.dumps(self.stats(), sort_keys=True).encode()
            return protocol.encode_response(protocol.OK, stats)
        # Writes pass the owning shard's gate first.
        if op == protocol.OP_PUT:
            key, value = protocol.decode_slices(body, 2)
            busy = self._check_gate([key])
            if busy is not None:
                return busy
            self.put(key, value)
            return protocol.encode_response(protocol.OK)
        if op == protocol.OP_DELETE:
            (key,) = protocol.decode_slices(body, 1)
            busy = self._check_gate([key])
            if busy is not None:
                return busy
            self.delete(key)
            return protocol.encode_response(protocol.OK)
        assert op == protocol.OP_BATCH
        try:
            _, batch = WriteBatch.deserialize(body)
        except ReproError as error:
            raise protocol.ProtocolError(
                f"bad batch body: {error}") from error
        busy = self._check_gate([key for _, key, _ in batch])
        if busy is not None:
            return busy
        self.apply_batch(batch)
        return protocol.encode_response(protocol.OK)

    def _check_gate(self, keys) -> Optional[bytes]:
        """BUSY response if any touched shard refuses admission."""
        for shard in {self.router.shard_for(key) for key in keys}:
            if not self.gates[shard].admit():
                return protocol.encode_response(
                    protocol.BUSY,
                    f"shard {shard} is stalling; retry later".encode())
        return None


class KVServer:
    """TCP front-end: accept loop + handler thread pool."""

    def __init__(self, service: KVService, host: str = "127.0.0.1",
                 port: int = 0, max_workers: int = 16):
        self.service = service
        self._listener = socket.create_server(
            (host, port), backlog=128, reuse_port=False)
        self.host, self.port = self._listener.getsockname()[:2]
        self._pool = ThreadPoolExecutor(
            max_workers=max_workers, thread_name_prefix="kv-handler")
        self._accept_thread: Optional[threading.Thread] = None
        self._running = threading.Event()
        self._conns: set[socket.socket] = set()  # guarded_by: _conns_lock
        self._conns_lock = lockwatch.make_lock("service.conns")

    def start(self) -> None:
        self._running.set()
        self._accept_thread = threading.Thread(
            target=self._accept_loop, name="kv-accept", daemon=True)
        self._accept_thread.start()

    def serve_forever(self) -> None:
        """Blocking variant for the CLI; ^C stops cleanly."""
        self.start()
        try:
            while self._running.is_set():
                time.sleep(0.2)
        except KeyboardInterrupt:
            pass
        finally:
            self.stop()

    def stop(self) -> None:
        if not self._running.is_set():
            return
        self._running.clear()
        try:
            # close() alone leaves accept() asleep (the join below then
            # burns its whole timeout); shutdown() wakes it.
            self._listener.shutdown(socket.SHUT_RDWR)
        except OSError:
            pass
        self._listener.close()
        if self._accept_thread is not None:
            self._accept_thread.join(timeout=5)
        # Unblock handlers parked in recv() on idle connections.
        with self._conns_lock:
            for conn in list(self._conns):
                try:
                    conn.shutdown(socket.SHUT_RDWR)
                except OSError:
                    pass
        self._pool.shutdown(wait=True)
        self.service.close()

    def __enter__(self) -> "KVServer":
        self.start()
        return self

    def __exit__(self, *exc) -> None:
        self.stop()

    def _accept_loop(self) -> None:
        while self._running.is_set():
            try:
                conn, _addr = self._listener.accept()
            except OSError:
                break  # listener closed by stop()
            self._pool.submit(self._serve_connection, conn)

    def _serve_connection(self, conn: socket.socket) -> None:
        with self._conns_lock:
            self._conns.add(conn)
        try:
            self._serve_frames(conn)
        finally:
            with self._conns_lock:
                self._conns.discard(conn)
            conn.close()

    def _serve_frames(self, conn: socket.socket) -> None:
        conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        while self._running.is_set():
            try:
                payload = protocol.read_frame(conn)
                if payload is None:
                    return
                response = self.service.dispatch(payload)
                protocol.write_frame(conn, response)
            except protocol.ProtocolError as error:
                try:
                    protocol.write_frame(conn, protocol.encode_response(
                        protocol.ERROR, str(error).encode()))
                except OSError:
                    pass
                return
            except OSError:
                return
