"""Sharded KV service: router, wire protocol, live server, durability."""

import socket
import threading

import pytest

from repro.errors import InvalidArgumentError, NotFoundError
from repro.lsm import Options, WriteBatch
from repro.lsm.env import MemEnv
from repro.service import protocol
from repro.service.client import KVClient, ServiceBusyError, ServiceError
from repro.service.router import RangeRouter
from repro.service.server import KVServer, KVService, ShardGate


def mem_options(**overrides):
    base = dict(wal_sync="group", bloom_bits_per_key=0, compression="none")
    base.update(overrides)
    return Options(**base)


class TestRangeRouter:
    def test_explicit_splits(self):
        router = RangeRouter([b"g", b"p"])
        assert router.num_shards == 3
        assert router.shard_for(b"apple") == 0
        assert router.shard_for(b"g") == 1  # boundary belongs right
        assert router.shard_for(b"monkey") == 1
        assert router.shard_for(b"zebra") == 2

    def test_ranges_are_contiguous(self):
        router = RangeRouter([b"g", b"p"])
        assert router.shard_range(0) == (None, b"g")
        assert router.shard_range(1) == (b"g", b"p")
        assert router.shard_range(2) == (b"p", None)
        with pytest.raises(InvalidArgumentError):
            router.shard_range(3)

    def test_uniform_covers_keyspace(self):
        router = RangeRouter.uniform(4)
        assert router.num_shards == 4
        counts = [0] * 4
        for byte in range(256):
            counts[router.shard_for(bytes([byte]) + b"suffix")] += 1
        assert counts == [64, 64, 64, 64]

    def test_uniform_single_shard(self):
        router = RangeRouter.uniform(1)
        assert router.shard_for(b"") == 0
        assert router.shard_for(b"\xff\xff") == 0

    def test_unsorted_splits_rejected(self):
        with pytest.raises(InvalidArgumentError):
            RangeRouter([b"p", b"g"])
        with pytest.raises(InvalidArgumentError):
            RangeRouter([b"a", b"a"])
        with pytest.raises(InvalidArgumentError):
            RangeRouter([b""])

    def test_partition(self):
        router = RangeRouter([b"m"])
        grouped = router.partition([b"a", b"z", b"b", b"m"])
        assert grouped == {0: [b"a", b"b"], 1: [b"z", b"m"]}

    def test_describe(self):
        info = RangeRouter([b"m"]).describe()
        assert info == [
            {"shard": 0, "start": None, "end": b"m".hex()},
            {"shard": 1, "start": b"m".hex(), "end": None},
        ]


class TestProtocol:
    def test_request_roundtrip(self):
        payload = protocol.encode_request(protocol.OP_PUT, b"k", b"v")
        op, body = protocol.decode_request(payload)
        assert op == protocol.OP_PUT
        assert protocol.decode_slices(body, 2) == [b"k", b"v"]

    def test_response_roundtrip(self):
        status, body = protocol.decode_response(
            protocol.encode_response(protocol.OK, b"value"))
        assert (status, body) == (protocol.OK, b"value")

    def test_unknown_opcode_rejected(self):
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_request(bytes([200]))

    def test_trailing_bytes_rejected(self):
        payload = protocol.encode_request(protocol.OP_GET, b"k") + b"junk"
        op, body = protocol.decode_request(payload)
        with pytest.raises(protocol.ProtocolError):
            protocol.decode_slices(body, 1)

    def test_frames_over_a_socketpair(self):
        left, right = socket.socketpair()
        try:
            protocol.write_frame(left, b"abc")
            protocol.write_frame(left, b"")
            assert protocol.read_frame(right) == b"abc"
            assert protocol.read_frame(right) == b""
            left.close()
            assert protocol.read_frame(right) is None  # clean EOF
        finally:
            right.close()

    def test_eof_mid_frame_raises(self):
        left, right = socket.socketpair()
        try:
            left.sendall(b"\x00\x00\x00\x10partial")
            left.close()
            with pytest.raises(protocol.ProtocolError):
                protocol.read_frame(right)
        finally:
            right.close()

    def test_oversized_frame_rejected(self):
        left, right = socket.socketpair()
        try:
            left.sendall((protocol.MAX_FRAME + 1).to_bytes(4, "big"))
            with pytest.raises(protocol.ProtocolError):
                protocol.read_frame(right)
        finally:
            left.close()
            right.close()


class TestKVService:
    def test_put_get_delete_across_shards(self):
        with KVService("svc", num_shards=4, options=mem_options(),
                       env=MemEnv()) as service:
            keys = [bytes([b]) + b"-key" for b in (3, 80, 130, 250)]
            owners = {service.router.shard_for(k) for k in keys}
            assert owners == {0, 1, 2, 3}  # spans every shard
            for key in keys:
                service.put(key, key.upper())
            for key in keys:
                assert service.get(key) == key.upper()
            service.delete(keys[0])
            with pytest.raises(NotFoundError):
                service.get(keys[0])

    def test_batch_splits_by_shard(self):
        with KVService("svc", num_shards=2, options=mem_options(),
                       env=MemEnv()) as service:
            batch = WriteBatch()
            batch.put(b"\x01low", b"a")
            batch.put(b"\xf0high", b"b")
            batch.delete(b"\x02low2")
            assert service.apply_batch(batch) == 2
            assert service.get(b"\x01low") == b"a"
            assert service.get(b"\xf0high") == b"b"

    def test_dispatch_wire_level(self):
        with KVService("svc", num_shards=2, options=mem_options(),
                       env=MemEnv()) as service:
            response = service.dispatch(
                protocol.encode_request(protocol.OP_PUT, b"k", b"v"))
            assert protocol.decode_response(response) == (protocol.OK, b"")
            response = service.dispatch(
                protocol.encode_request(protocol.OP_GET, b"k"))
            assert protocol.decode_response(response) == (protocol.OK, b"v")
            response = service.dispatch(
                protocol.encode_request(protocol.OP_GET, b"ghost"))
            assert protocol.decode_response(response)[0] == \
                protocol.NOT_FOUND

    def test_stats_reports_shards(self):
        with KVService("svc", num_shards=3, options=mem_options(),
                       env=MemEnv()) as service:
            service.put(b"\x00a", b"1")
            stats = service.stats()
            assert stats["num_shards"] == 3
            assert stats["wal_sync"] == "group"
            assert len(stats["shards"]) == 3
            assert stats["shards"][0]["writes"] == 1

    def test_split_key_count_must_match(self):
        with pytest.raises(InvalidArgumentError):
            KVService("svc", num_shards=3, options=mem_options(),
                      env=MemEnv(), split_keys=[b"m"])


class TestShardGate:
    def test_stall_pressure_trips_busy(self):
        with KVService("svc", num_shards=1, options=mem_options(),
                       env=MemEnv()) as service:
            db = service.shards[0]
            gate = ShardGate(db, stall_threshold=0.01, window_seconds=0.0)
            assert gate.admit()  # no stalls yet
            db._m.stall_seconds.observe(5.0)  # heavy stalling
            assert not gate.admit()
            assert gate.rejections == 1
            # Pressure subsided: next window sees no new stall time.
            assert gate.admit()

    def test_busy_surfaces_on_the_wire(self):
        with KVService("svc", num_shards=1, options=mem_options(),
                       env=MemEnv(), stall_threshold=0.01) as service:
            gate = service.gates[0]
            gate.window_seconds = 0.0
            service.shards[0]._m.stall_seconds.observe(5.0)
            response = service.dispatch(
                protocol.encode_request(protocol.OP_PUT, b"k", b"v"))
            assert protocol.decode_response(response)[0] == protocol.BUSY
            # Reads are never gated.
            response = service.dispatch(
                protocol.encode_request(protocol.OP_GET, b"k"))
            assert protocol.decode_response(response)[0] == \
                protocol.NOT_FOUND


@pytest.fixture
def live_server(tmp_path):
    service = KVService(str(tmp_path / "kv"), num_shards=2,
                        options=mem_options(), env=MemEnv())
    server = KVServer(service, port=0, max_workers=8)
    server.start()
    yield server
    server.stop()


class TestLiveServer:
    def test_roundtrip(self, live_server):
        with KVClient(live_server.host, live_server.port) as kv:
            kv.ping()
            kv.put(b"k1", b"v1")
            assert kv.get(b"k1") == b"v1"
            kv.delete(b"k1")
            with pytest.raises(NotFoundError):
                kv.get(b"k1")

    def test_batch_and_stats(self, live_server):
        with KVClient(live_server.host, live_server.port) as kv:
            batch = WriteBatch()
            batch.put(b"\x01a", b"1")
            batch.put(b"\xf0z", b"2")
            kv.write(batch)
            assert kv.get(b"\x01a") == b"1"
            stats = kv.stats()
            assert stats["num_shards"] == 2
            writes = sum(s["writes"] for s in stats["shards"])
            assert writes == 2

    def test_concurrent_clients_all_acked_writes_readable(self,
                                                          live_server):
        errors = []

        def worker(t):
            try:
                with KVClient(live_server.host, live_server.port) as kv:
                    for i in range(30):
                        kv.put(f"c{t}-{i:03d}".encode(), b"x" * 16)
            except Exception as error:  # noqa: BLE001 - collected
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(t,))
                   for t in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert not errors
        with KVClient(live_server.host, live_server.port) as kv:
            for t in range(6):
                for i in range(30):
                    assert kv.get(f"c{t}-{i:03d}".encode()) == b"x" * 16

    def test_malformed_frame_gets_error_then_close(self, live_server):
        sock = socket.create_connection(
            (live_server.host, live_server.port), timeout=5)
        try:
            protocol.write_frame(sock, bytes([99]))  # unknown opcode
            status, body = protocol.decode_response(
                protocol.read_frame(sock))
            assert status == protocol.ERROR
            assert protocol.read_frame(sock) is None  # server hung up
        finally:
            sock.close()

    def test_client_raises_typed_errors(self, live_server):
        with KVClient(live_server.host, live_server.port) as kv:
            service = live_server.service
            for gate in service.gates:
                gate.window_seconds = 0.0
                gate.stall_threshold = 0.01
                service.shards[0]._m.stall_seconds.observe(5.0)
                service.shards[1]._m.stall_seconds.observe(5.0)
            with pytest.raises((ServiceBusyError, ServiceError)):
                kv.put(b"k", b"v")


class TestServiceDurability:
    def test_power_loss_keeps_every_acked_write(self):
        env = MemEnv()
        options = mem_options()
        service = KVService("kv", num_shards=2, options=options, env=env)
        acked = []
        for i in range(60):
            key = f"s{i:04d}".encode()
            service.put(key, key * 2)
            acked.append(key)
        env.crash("power")
        service2 = KVService("kv", num_shards=2, options=options, env=env)
        for key in acked:
            assert service2.get(key) == key * 2
        service2.close()
