"""WAL sync policy sweep: throughput across the durability spectrum.

Eight concurrent writers hammer one DB per ``wal_sync`` mode over a
:class:`~repro.lsm.env.MemEnv` that charges a 1 ms modeled fsync (a
datacenter SSD flush), so the rows show the real cost structure the
modes trade against:

* ``none``/``flush`` — no fsyncs; the throughput ceiling (and the
  durability floor).
* ``always`` — one fsync per commit, one commit at a time through the
  writer queue: throughput collapses to ~1/fsync latency whatever the
  writer count.
* ``interval`` — periodic fsync; near-ceiling throughput, bounded loss.
* ``group`` — LevelDB-style group commit: the queue leader splices all
  waiting batches into one WAL record and pays one fsync for the whole
  group, so throughput recovers most of the gap to ``none`` while
  keeping ``always``'s guarantee.

The acceptance bar (tracked in the ``vs_always`` column and a note):
group commit sustains **>2×** the throughput of ``always`` at 8
writers.  In-memory + modeled latency keeps the crossover deterministic
in CI — real disks only widen it.
"""

from __future__ import annotations

import threading
import time

from repro.bench.common import ExperimentResult
from repro.lsm.db import LsmDB
from repro.lsm.env import MemEnv
from repro.lsm.options import Options, WAL_SYNC_MODES

WRITERS = 8
OPS_PER_WRITER = 250
VALUE = b"v" * 100
#: Modeled fsync latency (seconds); ~ a datacenter SSD flush.
SYNC_LATENCY = 1e-3


def _run_mode(mode: str, ops_per_writer: int) -> dict:
    env = MemEnv(sync_seconds=SYNC_LATENCY)
    options = Options(
        wal_sync=mode,
        wal_sync_interval_seconds=0.01,
        bloom_bits_per_key=0,
        compression="none",
        write_buffer_size=64 << 20,  # keep flushes out of the number
    )
    db = LsmDB(f"fsync-{mode}", options, env=env)
    barrier = threading.Barrier(WRITERS + 1)

    def worker(t: int) -> None:
        barrier.wait()
        for i in range(ops_per_writer):
            db.put(f"w{t:02d}-{i:08d}".encode(), VALUE)

    threads = [threading.Thread(target=worker, args=(t,))
               for t in range(WRITERS)]
    for thread in threads:
        thread.start()
    barrier.wait()
    start = time.perf_counter()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start

    ops = WRITERS * ops_per_writer
    db.close()
    return {
        "mode": mode,
        "ops": ops,
        "wall": wall,
        "kops": ops / wall / 1e3,
        "syncs": db.stats.wal_syncs,
        "avg_group": db.stats.mean_group_size,
    }


def run(scale: float = 1.0) -> ExperimentResult:
    ops_per_writer = max(10, int(OPS_PER_WRITER * scale))
    result = ExperimentResult(
        name="fsync",
        title=f"WAL sync modes, {WRITERS} writers, "
              f"{SYNC_LATENCY * 1e3:.0f} ms modeled fsync",
        columns=["mode", "ops", "wall_s", "kops_s", "wal_syncs",
                 "avg_group", "vs_always"],
    )
    measured = {mode: _run_mode(mode, ops_per_writer)
                for mode in WAL_SYNC_MODES}
    always_kops = measured["always"]["kops"]
    for mode in WAL_SYNC_MODES:
        row = measured[mode]
        result.add_row(mode, row["ops"], row["wall"], row["kops"],
                       row["syncs"], row["avg_group"],
                       row["kops"] / always_kops)
    group_speedup = measured["group"]["kops"] / always_kops
    result.notes.append(
        f"group commit: {group_speedup:.1f}x the throughput of "
        f"wal_sync=always at {WRITERS} writers "
        f"({measured['group']['avg_group']:.1f} batches/fsync); "
        f"acceptance bar is >2x")
    result.notes.append(
        "durability: none/flush lose unsynced tail on power loss; "
        "interval bounds loss to the sync window; always/group lose "
        "nothing acknowledged (tests/test_durability.py)")
    return result
