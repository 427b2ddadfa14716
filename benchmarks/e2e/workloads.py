"""The five workloads.

Each one pre-generates its whole op stream from the seed in ``setup`` (so
``repro.workloads`` generator cost is set-up time, not timed time), runs a
fixed amount of work in ``run`` — ``--seconds`` scales the op counts, which
are sized so that the timed phase takes about that long on the 2-core
sandbox the benchmark was written on — and checks every output: each read
is compared with the one value its key may hold, and after a mutating
workload the store is reopened (or its server SIGKILLed and restarted) and
every key's last acknowledged version is read back.

Fixed work rather than a fixed duration is what lets counts repeat exactly:
``fill_random`` is single-threaded with inline maintenance, so its flush,
compaction and byte counts are the same on every run of one seed.
"""

from __future__ import annotations

import json
import os
import random
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from harness import (
    BLOCKED_GET_SECONDS,
    Calibrator,
    Tally,
    db_counters,
    db_facts,
    geometry_options,
    rss_mb,
    value_for,
    version_of,
    with_busy_retry,
)
from metrics import (
    FILL_RANDOM,
    OFFLOAD_MODEL,
    READ_RANDOM,
    READ_WHILE_WRITING,
    YCSB_A_SERVICE,
)
from repro.bench.common import N9_CONFIG, two_input_config
from repro.bench.table5 import PAPER
from repro.errors import NotFoundError, ReproError
from repro.fpga.config import CONFIG_9_INPUT
from repro.fpga.engine import CompactionEngine
from repro.host.device import FcaeDevice
from repro.host.scheduler import CompactionScheduler
from repro.lsm import LsmDB, Options, WriteBatch
from repro.lsm.compaction import compact, make_compaction_sources
from repro.lsm.env import MemEnv
from repro.lsm.internal import (
    TYPE_VALUE,
    InternalKeyComparator,
    encode_internal_key,
)
from repro.lsm.sstable import TableBuilder, TableReader
from repro.service.client import KVClient
from repro.sim.system import SystemConfig, simulate_fillrandom
from repro.workloads.ycsb import YCSB_WORKLOADS, YcsbOp, YcsbWorkloadRunner

HERE = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Context:
    """What a pass hands its workload."""

    seed: int
    seconds: float
    workdir: str
    env: object                    # OsEnv, or CountingEnv in a traced pass
    recorder: object = None        # layers.Recorder in a traced pass
    tally: Tally = field(default_factory=Tally)
    calibrator: Calibrator = field(default_factory=Calibrator)
    setup_calibrator: Calibrator = field(default_factory=Calibrator)

    @property
    def traced(self) -> bool:
        return self.recorder is not None

    def tick(self) -> None:
        """Set-up code calls this between units of its work, so that set-up
        is calibrated the way the timed phase is."""
        if self.setup_calibrator.due(time.perf_counter()):
            self.setup_calibrator.sample()

    def scaled(self, per_second: int, floor: int) -> int:
        return max(floor, int(per_second * self.seconds))


@dataclass
class Outcome:
    """What ``run`` measured."""

    ops: int                       # numerator of ops_per_s
    wall: float                    # timed wall seconds, its denominator
    put: list = field(default_factory=list)    # latency samples, seconds
    get: list = field(default_factory=list)
    lanes: int = 1                 # threads the benchmark drove
    facts: dict = field(default_factory=dict)       # per-layer values
    invariants: list = field(default_factory=list)  # (text, held)
    peak_rss_mb: float | None = None   # when it is not this process's
    server: dict | None = None         # ycsb_a_service's server-side trace


def _timed_loop(request, ops, tally: Tally,
                calibrator: Calibrator) -> tuple[list, float]:
    """Closed loop: ``request(*op)`` for each op, one latency sample each,
    and a calibration sample between requests whenever one is due.
    ``request`` returns None, or a text saying what was wrong."""
    samples = []
    clock = time.perf_counter
    start = last = clock()
    for op in ops:
        try:
            failure = request(*op)
        except ReproError as error:
            failure = f"{op[0]!r}: {error!r}"
        now = clock()
        samples.append(now - last)
        if failure is None:
            tally.attempted += 1
        else:
            tally.fail(failure)
        if calibrator.due(now):
            calibrator.sample()
            now = clock()
        last = now
    return samples, last - start


def _read_back(db_get, expected: dict, length: int, tally: Tally) -> None:
    """Every key must hold exactly its last acknowledged version."""
    for key, version in expected.items():
        try:
            value = db_get(key)
        except ReproError as error:
            tally.fail(f"read back {key!r}: {error!r}")
            continue
        tally.check(value == value_for(key, version, length),
                    f"read back {key!r}: not version {version}")


def _versioned_puts(ctx: Context, rng: random.Random, count: int,
                    key_space: int, length: int, versions: dict) -> list:
    """``count`` puts of uniform keys; bumps ``versions`` as it goes."""
    ops = []
    for _ in range(count):
        ctx.tick()
        key = b"%016d" % rng.randrange(key_space)
        version = versions.get(key, 0) + 1
        versions[key] = version
        ops.append((key, value_for(key, version, length), version))
    return ops


def _load(ctx: Context, path: str, ops) -> None:
    """Build a DB in set-up through the fastest routed executor."""
    options = geometry_options(accelerator="auto")
    scheduler = CompactionScheduler(FcaeDevice(CONFIG_9_INPUT, options),
                                    options)
    with LsmDB(path, options, env=ctx.env,
               compaction_executor=scheduler) as db:
        for key, value in ops:
            db.put(key, value)
            ctx.tick()


class Workload:
    """``setup`` (timed as set-up), ``run`` (the timed phase), ``verify``,
    then ``close`` whatever happened."""

    name: str

    def __init__(self, ctx: Context):
        self.ctx = ctx

    def close(self) -> None:
        pass


# ----------------------------------------------------------------------
# 1. fill_random
# ----------------------------------------------------------------------

class FillRandom(Workload):
    """The paper's write-throughput workload: single thread, closed loop,
    16 B keys drawn uniformly with replacement, 128 B values, inline
    maintenance, merges routed by ``CompactionScheduler`` in ``auto``."""

    name = FILL_RANDOM
    VALUE = 128

    def setup(self) -> None:
        ctx = self.ctx
        count = ctx.scaled(3300, 330)
        self.versions: dict = {}
        self.ops = [(key, value) for key, value, _version in _versioned_puts(
            ctx, random.Random(ctx.seed), count, count, self.VALUE,
            self.versions)]
        self.options = geometry_options(accelerator="auto")
        self.scheduler = CompactionScheduler(
            FcaeDevice(CONFIG_9_INPUT, self.options), self.options)
        self.path = os.path.join(ctx.workdir, "db")
        self.db = LsmDB(self.path, self.options, env=ctx.env,
                        compaction_executor=self.scheduler)

    def run(self) -> Outcome:
        db = self.db
        samples, wall = _timed_loop(db.put, self.ops, self.ctx.tally,
                                    self.ctx.calibrator)
        facts = db_facts(db_counters(db))
        stats = self.scheduler.stats
        tasks, seconds = stats.backend_tasks, stats.backend_seconds
        for backend in ("cpu", "batch", "fpga-sim"):
            facts[f"host.backend.{backend}_tasks"] = tasks[backend]
            facts[f"host.backend.{backend}_s"] = seconds[backend]
        routed_seconds = sum(seconds.values())
        facts["host.backend.mb_per_s"] = (
            sum(stats.backend_input_bytes.values()) / 1e6 / routed_seconds
            if routed_seconds else 0.0)
        facts["host.fallbacks"] = stats.fpga_fallbacks
        sizes = db.level_sizes()
        live_user_bytes = len(self.versions) * (16 + self.VALUE)
        facts["e2e.write_amp"] = db.stats.write_amplification
        facts["e2e.space_amp"] = sum(sizes) / live_user_bytes
        invariants = []
        if self.ctx.seconds >= 10:
            invariants = [
                ("at least 30 flushes", db.stats.flushes >= 30),
                ("at least 25 merge compactions",
                 db.stats.compactions >= 25),
                ("level 2 is not empty", sizes[2] > 0),
            ]
        return Outcome(ops=len(samples), wall=wall, put=samples,
                       facts=facts, invariants=invariants)

    def verify(self) -> None:
        self.db.close()
        with LsmDB(self.path, self.options, env=self.ctx.env) as db:
            _read_back(db.get, self.versions, self.VALUE, self.ctx.tally)


# ----------------------------------------------------------------------
# 2. read_random
# ----------------------------------------------------------------------

class ReadRandom(Workload):
    """The read path alone: single thread, closed loop, uniform gets over
    twice the key space of a DB of even keys, so half the lookups are of
    absent keys and end at a bloom filter; the tables are about 13 times
    the block cache."""

    name = READ_RANDOM
    VALUE = 128
    CACHE = 128 * 1024

    def setup(self) -> None:
        ctx = self.ctx
        records = ctx.scaled(2000, 400)
        rng = random.Random(ctx.seed)
        keys = [b"%016d" % (2 * i) for i in range(records)]
        rng.shuffle(keys)
        self.path = os.path.join(ctx.workdir, "db")
        _load(ctx, self.path,
              ((key, value_for(key, 1, self.VALUE)) for key in keys))
        self.ops = []
        for _ in range(ctx.scaled(6000, 1200)):
            ctx.tick()
            index = rng.randrange(2 * records)
            key = b"%016d" % index
            self.ops.append(
                (key, None if index % 2 else value_for(key, 1, self.VALUE)))
        self.db = LsmDB(self.path,
                        geometry_options(block_cache_capacity=self.CACHE),
                        env=ctx.env)

    def run(self) -> Outcome:
        get = self.db.get

        def lookup(key, expected):
            try:
                value = get(key)
            except NotFoundError:
                value = None
            if value != expected:
                return f"get {key!r}: wrong value"
            return None

        rss_before = rss_mb()
        samples, wall = _timed_loop(lookup, self.ops, self.ctx.tally,
                                    self.ctx.calibrator)
        facts = db_facts(db_counters(self.db))
        facts["lsm.table.resident_mb"] = rss_mb() - rss_before
        facts["lsm.get_blocked_s"] = sum(
            s for s in samples if s > BLOCKED_GET_SECONDS)
        return Outcome(ops=len(samples), wall=wall, get=samples,
                       facts=facts)

    def verify(self) -> None:
        self.db.close()     # every get was checked as it was made


# ----------------------------------------------------------------------
# 3. ycsb_a_service
# ----------------------------------------------------------------------

class _Server:
    """The ``server_main.py`` child and its line protocol."""

    def __init__(self, root: str, traced: bool):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server_main.py"),
             "--root", root, "--traced", str(int(traced))],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        self.port = json.loads(self.proc.stdout.readline())["port"]

    def ask(self, command: str) -> dict:
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return json.loads(self.proc.stdout.readline())

    def kill(self) -> None:
        self.proc.send_signal(signal.SIGKILL)
        self._reap()

    def stop(self) -> None:
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=20)
        except subprocess.TimeoutExpired:
            self.proc.kill()
        self._reap()

    def _reap(self) -> None:
        self.proc.wait()
        for pipe in (self.proc.stdin, self.proc.stdout):
            if pipe and not pipe.closed:
                pipe.close()


class YcsbAService(Workload):
    """The full stack: 2 clients, one thread and one connection each,
    closed loop, YCSB-A (50 % read / 50 % update, zipfian) against a
    2-shard group-commit server in a child process.  A client updates only
    the records it owns (item parity) and reads any, so each key has one
    writer and its last acknowledged version is known exactly."""

    name = YCSB_A_SERVICE
    VALUE = 256
    CLIENTS = 2
    LOAD_BATCH = 100

    server: "_Server | None" = None

    def setup(self) -> None:
        ctx = self.ctx
        records = ctx.scaled(1000, 200)
        records += records % 2          # owner of item i is i % 2
        ops_per_client = ctx.scaled(900, 360)
        keys: list[bytes] = []
        self.streams = []    # per client: (key, value or None, version)
        self.acked: dict = {}           # key -> last acknowledged version
        for client in range(self.CLIENTS):
            runner = YcsbWorkloadRunner(
                YCSB_WORKLOADS["a"], records, value_length=self.VALUE,
                seed=ctx.seed * self.CLIENTS + client)
            if not keys:
                keys = [runner.key_for(item) for item in range(records)]
                item_of = {key: item for item, key in enumerate(keys)}
            versions = {}
            stream = []
            for op, key, _value, _scan in runner.transactions(
                    ops_per_client):
                ctx.tick()
                if op is YcsbOp.UPDATE:
                    item = item_of[key]
                    if item % self.CLIENTS != client:
                        key = keys[item ^ 1]
                    version = versions.get(key, 1) + 1
                    versions[key] = version
                    stream.append(
                        (key, value_for(key, version, self.VALUE), version))
                else:
                    stream.append((key, None, 0))
            self.streams.append(stream)
        self.root = os.path.join(ctx.workdir, "service")
        self.server = _Server(self.root, ctx.traced)
        self.clients = [KVClient("127.0.0.1", self.server.port)
                        for _ in range(self.CLIENTS)]
        load_busy: list[int] = []
        for first in range(0, records, self.LOAD_BATCH):
            batch = WriteBatch()
            for key in keys[first:first + self.LOAD_BATCH]:
                batch.put(key, value_for(key, 1, self.VALUE))
            with_busy_retry(lambda b=batch: self.clients[0].write(b),
                            load_busy)
            for key in keys[first:first + self.LOAD_BATCH]:
                self.acked[key] = 1
            ctx.tick()
        if ctx.traced:
            self.server.ask("reset")
        self.baseline = self.server.ask("report")
        self.baseline_stats = self.clients[0].stats()

    def _client_loop(self, client, stream, out: dict,
                     calibrator: Calibrator | None) -> None:
        recorder = self.ctx.recorder
        tally = Tally()
        acked = {}
        puts, gets, busy = [], [], []
        clock = time.perf_counter
        start = last = clock()
        for key, value, version in stream:
            frame = recorder.enter("service.client_rtt") if recorder else None
            try:
                if value is not None:
                    with_busy_retry(lambda: client.put(key, value), busy)
                else:
                    got = client.get(key)
                failure = None
            except (ReproError, OSError) as error:
                failure = f"{key!r}: {error!r}"
            if recorder:
                recorder.exit(frame)
            now = clock()
            (gets if value is None else puts).append(now - last)
            if calibrator is not None and calibrator.due(now):
                calibrator.sample()
                now = clock()
            last = now
            if failure is None and value is not None:
                acked[key] = version
            elif failure is None:
                seen = version_of(key, got)
                # Own keys: read-your-writes.  Others': any valid version.
                if seen is None or seen < acked.get(key, 1):
                    failure = f"get {key!r}: stale or foreign value"
            if failure is None:
                tally.attempted += 1
            else:
                tally.fail(failure)
        out.update(puts=puts, gets=gets, busy=busy, tally=tally, acked=acked,
                   wall=last - start)

    def run(self) -> Outcome:
        outs = [{} for _ in self.streams]
        threads = [
            # One calibrating thread: two would time each other's GIL waits.
            threading.Thread(target=self._client_loop, name=f"client-{i}",
                             args=(self.clients[i], self.streams[i], outs[i],
                                   None if i else self.ctx.calibrator))
            for i in range(self.CLIENTS)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.perf_counter() - start
        tally = self.ctx.tally
        puts, gets, busy = [], [], []
        for out in outs:
            puts += out["puts"]
            gets += out["gets"]
            busy += out["busy"]
            tally.absorb(out["tally"])
            self.acked.update(out["acked"])

        stats = self.clients[0].stats()
        report = self.server.ask("report")
        facts = self._facts(stats, report, puts, busy, tally)
        server = None
        if self.ctx.traced:
            server = {key: report[key]
                      for key in ("totals", "counts", "spans")}
            for name, value in report["env"].items():
                facts[name] = value - self.baseline["env"][name]
        return Outcome(ops=len(puts) + len(gets), wall=wall, put=puts,
                       get=gets, lanes=self.CLIENTS, facts=facts,
                       peak_rss_mb=report["peak_rss_mb"], server=server)

    def _facts(self, stats, report, puts, busy, tally) -> dict:
        def delta(shard: int, field: str):
            return (stats["shards"][shard][field]
                    - self.baseline_stats["shards"][shard][field])

        shards = range(len(stats["shards"]))
        rejections = sum(delta(s, "busy_rejections") for s in shards)
        tally.check(rejections == sum(busy),
                    f"server counted {rejections} BUSY answers, clients "
                    f"drew {sum(busy)}")
        writes = [stats["shards"][s]["writes"] for s in shards]
        imbalance = max(writes) / (sum(writes) / len(writes))
        tally.check(imbalance <= 1.2,
                    f"shard writes {writes}: imbalance {imbalance:.2f}")
        groups = sum(delta(s, "group_commits") for s in shards)
        facts = {
            "service.busy_rejections": rejections,
            "service.busy_retry_share": (
                sum(1 for draws in busy if draws) / len(puts)),
            "service.shard_imbalance": imbalance,
            "lsm.wal.syncs": sum(delta(s, "wal_syncs") for s in shards),
            "lsm.group_commit.mean_batch": (
                sum(delta(s, "writes") for s in shards) / groups
                if groups else 0.0),
        }
        # Per-shard DB counters, run phase only, summed over shards; the
        # deepest shard stands for the level count.
        counters = {
            name: sum(after[name] - before[name] for after, before
                      in zip(report["shards"], self.baseline["shards"]))
            for name in report["shards"][0]}
        counters["levels_used"] = max(
            shard["levels_used"] for shard in report["shards"])
        facts.update(db_facts(counters))
        return facts

    def verify(self) -> None:
        for client in self.clients:
            client.close()
        self.server.kill()
        self.server = _Server(self.root, traced=False)
        with KVClient("127.0.0.1", self.server.port) as client:
            _read_back(client.get, self.acked, self.VALUE, self.ctx.tally)

    def close(self) -> None:
        if self.server is not None:
            self.server.stop()


# ----------------------------------------------------------------------
# 4. read_while_writing
# ----------------------------------------------------------------------

class ReadWhileWriting(Workload):
    """The read layer beside writes: a closed-loop writer overwriting
    uniform keys and an open-loop reader issuing gets on a fixed schedule
    until the writer is done, each get timed from when it was due."""

    name = READ_WHILE_WRITING
    VALUE = 128
    CACHE = 512 * 1024
    GETS_PER_SECOND = 300

    def setup(self) -> None:
        ctx = self.ctx
        records = ctx.scaled(1200, 300)
        rng = random.Random(ctx.seed)
        self.acked = {b"%016d" % i: 1 for i in range(records)}
        load = [(key, value_for(key, 1, self.VALUE)) for key in self.acked]
        rng.shuffle(load)
        self.path = os.path.join(ctx.workdir, "db")
        _load(ctx, self.path, load)
        self.writes = _versioned_puts(ctx, rng, ctx.scaled(2300, 460),
                                      records, self.VALUE, dict(self.acked))
        # More reads than the schedule can reach before the writer ends.
        self.reads = [b"%016d" % rng.randrange(records)
                      for _ in range(int(self.GETS_PER_SECOND
                                         * max(ctx.seconds, 1) * 6))]
        self.options = geometry_options(block_cache_capacity=self.CACHE)
        self.db = LsmDB(self.path, self.options, env=ctx.env)

    def _writer(self, out: dict) -> None:
        put, acked = self.db.put, self.acked

        def write(key, value, version):
            put(key, value)
            acked[key] = version

        out["tally"] = Tally()
        out["samples"], out["wall"] = _timed_loop(
            write, self.writes, out["tally"], self.ctx.calibrator)
        self.writer_done.set()

    def _reader(self, out: dict) -> None:
        get, acked, done = self.db.get, self.acked, self.writer_done
        interval = 1.0 / self.GETS_PER_SECOND
        tally = out["tally"] = Tally()
        from_due, service, lag = [], [], []
        clock = time.perf_counter
        start = clock()
        for index, key in enumerate(self.reads):
            due = start + index * interval
            now = clock()
            if now < due:
                time.sleep(due - now)
                now = clock()
                lag.append(now - due)
            if done.is_set():
                break
            floor = acked[key]
            try:
                version = version_of(key, get(key))
                failure = (None if version is not None and version >= floor
                           else f"get {key!r}: older than acknowledged")
            except ReproError as error:
                failure = f"get {key!r}: {error!r}"
            end = clock()
            from_due.append(end - due)
            service.append(end - now)
            if failure is None:
                tally.attempted += 1
            else:
                tally.fail(failure)
        out.update(from_due=from_due, service=service, lag=lag)

    def run(self) -> Outcome:
        self.writer_done = threading.Event()
        writer_out, reader_out = {}, {}
        threads = [
            threading.Thread(target=self._writer, name="writer",
                             args=(writer_out,)),
            threading.Thread(target=self._reader, name="reader",
                             args=(reader_out,))]
        rss_before = rss_mb()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        tally = self.ctx.tally
        for out in (writer_out, reader_out):
            tally.absorb(out["tally"])
        facts = db_facts(db_counters(self.db))
        facts["lsm.table.resident_mb"] = rss_mb() - rss_before
        facts["lsm.get_blocked_s"] = sum(
            s for s in reader_out["service"] if s > BLOCKED_GET_SECONDS)
        lag = reader_out["lag"]
        facts["bench.generator_lag_ms"] = (
            statistics.median(lag) * 1e3 if lag else 0.0)
        return Outcome(ops=len(writer_out["samples"]),
                       wall=writer_out["wall"],
                       put=writer_out["samples"],
                       get=reader_out["from_due"], lanes=2, facts=facts)

    def verify(self) -> None:
        self.db.close()
        with LsmDB(self.path, self.options, env=self.ctx.env) as db:
            _read_back(db.get, self.acked, self.VALUE, self.ctx.tally)


# ----------------------------------------------------------------------
# 5. offload_model
# ----------------------------------------------------------------------

class OffloadModel(Workload):
    """No DB: seeded SSTable images through ``FcaeDevice.compact`` under
    the 2-input V=64 configuration (the column of the paper's Table V the
    repo holds reference values for) and the 9-input configuration, then
    the ``repro.sim`` LevelDB-vs-FCAE fill sweep.  Modeled results must
    repeat exactly; host speed is what a simulator optimisation may move."""

    name = OFFLOAD_MODEL
    VALUE_LENGTHS = (64, 512, 2048)
    SWEEP_GB = (1, 8, 64)
    SWEEP_VALUE = 512

    def _tables(self, options, comparator, entries) -> list:
        """``entries`` (sorted internal key, value) as a run of SSTables."""
        env = MemEnv()
        tables = []
        builder = dest = None

        def finish() -> None:
            builder.finish()
            dest.close()
            name = f"t{len(tables)}"
            tables.append(TableReader(env.read_file(name), comparator,
                                      options, None, len(tables)))

        for internal_key, value in entries:
            self.ctx.tick()
            if builder is None:
                dest = env.new_writable_file(f"t{len(tables)}")
                builder = TableBuilder(options, dest, comparator)
            builder.add(internal_key, value)
            if builder.file_size >= options.sstable_size:
                finish()
                builder = None
        if builder is not None:
            finish()
        return tables

    def setup(self) -> None:
        ctx = self.ctx
        self.pairs = ctx.scaled(2500, 400)
        rng = random.Random(ctx.seed)
        self.options, self.comparators, self.inputs = {}, {}, {}
        for length in self.VALUE_LENGTHS:
            options = Options(value_length=length, compression="none")
            comparator = InternalKeyComparator(options.comparator)
            self.options[length] = options
            self.comparators[length] = comparator
            # Two sorted runs over one key space; a tenth of the older run's
            # keys are rewritten by the newer one, so the merge drops
            # shadowed versions as a real compaction does.
            older = sorted(rng.sample(range(10 ** 9), self.pairs // 2))
            shadowed = set(rng.sample(older, len(older) // 10))
            fresh = rng.sample(range(10 ** 9, 2 * 10 ** 9),
                               self.pairs - self.pairs // 2 - len(shadowed))
            newer = sorted(shadowed | set(fresh))
            self.inputs[length] = [
                self._tables(options, comparator, (
                    (encode_internal_key(b"%016d" % i, sequence, TYPE_VALUE),
                     value_for(b"%016d" % i, sequence, length))
                    for i in indexes))
                for sequence, indexes in ((1, older), (2, newer))]
        self.devices = {}
        for length, options in self.options.items():
            self.devices["n9", length] = FcaeDevice(N9_CONFIG, options)
            # The 2-input V=64 engine is the paper's Table V column but
            # over the resource model's LUT budget, and FcaeDevice has no
            # switch for the fit check: swap the engine into a device.
            device = FcaeDevice(N9_CONFIG, options)
            device.config = two_input_config(64)
            device.engine = CompactionEngine(device.config, options,
                                             check_resources=False)
            self.devices["n2", length] = device

    def run(self) -> Outcome:
        # Jobs last seconds, so calibration runs beside them, not between.
        with self.ctx.calibrator.in_background():
            return self._run()

    def _run(self) -> Outcome:
        clock = time.perf_counter
        tally = self.ctx.tally
        facts = {}
        self.outputs = {}
        cycles = pcie = offload = 0.0
        start = clock()
        for (label, length), device in self.devices.items():
            try:
                result = device.compact(self.inputs[length])
            except ReproError as error:
                tally.fail(f"compact {label} L{length}: {error!r}")
                continue
            self.outputs[label, length] = result.outputs
            timing = result.engine_result.timing
            cycles += timing.total_cycles
            pcie += result.pcie_seconds
            offload += result.total_seconds
            if label == "n2" or length == 512:
                facts[f"fpga.modeled_mb_per_s.{label}_L{length}"] = (
                    result.engine_result.compaction_speed_mbps)
            if (label, length) == ("n9", 512):
                busy = timing.utilization()
                for module in ("decoder", "comparer", "encoder"):
                    facts[f"fpga.util.{module}"] = busy[module]
        facts["fpga.kernel_cycles"] = cycles
        facts["fpga.pcie_share"] = pcie / offload if offload else 0.0
        facts["e2e.model_error_pct"] = 100 * sum(
            abs(facts.get(f"fpga.modeled_mb_per_s.n2_L{length}", 0.0)
                - PAPER[length][4]) / PAPER[length][4]
            for length in self.VALUE_LENGTHS) / len(self.VALUE_LENGTHS)

        options = Options(value_length=self.SWEEP_VALUE)
        for gigabytes in self.SWEEP_GB:
            size = gigabytes << 30
            try:
                base = simulate_fillrandom(SystemConfig(
                    mode="leveldb", options=options, data_size_bytes=size))
                fcae = simulate_fillrandom(SystemConfig(
                    mode="fcae", options=options, fpga=N9_CONFIG,
                    data_size_bytes=size))
            except ReproError as error:
                tally.fail(f"simulate {gigabytes} GB: {error!r}")
                continue
            tally.check(fcae.throughput_mbps > base.throughput_mbps > 0,
                        f"simulate {gigabytes} GB: FCAE not faster")
            if gigabytes == 8:
                facts["sim.modeled_write_speedup"] = (
                    fcae.throughput_mbps / base.throughput_mbps)
                facts["sim.modeled_write_mb_per_s"] = fcae.throughput_mbps
        return Outcome(ops=len(self.outputs) * self.pairs,
                       wall=clock() - start, facts=facts)

    def verify(self) -> None:
        """Device output must be byte-identical to the CPU reference."""
        oracle = {}
        for (label, length), outputs in self.outputs.items():
            if length not in oracle:
                older, newer = self.inputs[length]
                oracle[length] = [
                    table.data for table in compact(
                        make_compaction_sources(1, newer, older),
                        self.options[length], self.comparators[length],
                        False).outputs]
            self.ctx.tally.check(
                [table.data for table in outputs] == oracle[length],
                f"compact {label} L{length}: output differs from the "
                "CPU merge")


WORKLOADS = {cls.name: cls for cls in (
    FillRandom, ReadRandom, YcsbAService, ReadWhileWriting, OffloadModel)}
