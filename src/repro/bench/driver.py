"""Extension bench: who runs maintenance — the writer, or a driver.

The paper's premise is that compaction work on the write path is what
stalls writers (§III's "write pause").  This target measures it directly
on the *functional* store: the same fillrandom workload runs against a
database with no workers (the writer that finds a flush or a merge due
runs it, the seed's behavior) and against the background driver with 1
and 2 compaction units.  The maintenance path is the same; either way a
blocked writer is one ``lsm_write_stall_seconds`` observation per
episode — the time it ran its own steps, or waited for a worker's (imm
backlog / L0 stop) — so the stall columns are directly comparable:
stall time with a driver must come out strictly below the no-workers
row.
"""

from __future__ import annotations

import random
import time

from repro.bench.common import ExperimentResult
from repro.lsm.db import LsmDB
from repro.lsm.options import Options
from repro.obs.registry import MetricsRegistry

#: Small memtable so the workload cycles many flush/compaction rounds.
WRITE_BUFFER = 32 * 1024
VALUE_LENGTH = 256
NUM_KEYS = 4000


def _workload(num_keys: int) -> list[tuple[bytes, bytes]]:
    order = list(range(num_keys))
    random.Random(1234).shuffle(order)
    return [(f"key{i:08d}".encode(),
             f"v{i:06d}".encode() * (VALUE_LENGTH // 8))
            for i in order]


def _run_mode(label: str, pairs: list[tuple[bytes, bytes]],
              **db_kwargs) -> dict:
    registry = MetricsRegistry()
    options = Options(write_buffer_size=WRITE_BUFFER,
                      value_length=VALUE_LENGTH)
    db = LsmDB(f"bench-{label}", options=options, metrics=registry,
               **db_kwargs)
    start = time.perf_counter()
    for key, value in pairs:
        db.put(key, value)
    write_wall = time.perf_counter() - start
    db.compact_range()
    total_wall = time.perf_counter() - start
    row = {
        "write_wall": write_wall,
        "total_wall": total_wall,
        "stall_episodes": db.stats.stall_episodes,
        "stall_seconds": db.stats.stall_seconds,
        "compactions": db.stats.compactions,
        "flushes": db.stats.flushes,
    }
    db.close()
    return row


def run(scale: float = 1.0) -> ExperimentResult:
    num_keys = max(200, int(NUM_KEYS * scale))
    pairs = _workload(num_keys)
    result = ExperimentResult(
        name="Compaction driver",
        title="Write-path stall time: no workers vs background units",
        columns=["system", "write_wall_s", "total_wall_s",
                 "stall_episodes", "stall_s", "stall_share_pct",
                 "flushes", "compactions"],
    )
    systems = (
        ("No workers", {}),
        ("Background (1 unit)", dict(background_compaction=True,
                                     num_units=1)),
        ("Background (2 units)", dict(background_compaction=True,
                                      num_units=2)),
    )
    for label, kwargs in systems:
        row = _run_mode(label, pairs, **kwargs)
        result.add_row(
            label,
            row["write_wall"],
            row["total_wall"],
            row["stall_episodes"],
            row["stall_seconds"],
            100 * row["stall_seconds"] / max(1e-9, row["write_wall"]),
            row["flushes"],
            row["compactions"],
        )
    result.notes.append(
        "with no workers a stall is the writer running the due flush and "
        "merges itself; with a driver it is a real wait (full immutable "
        "memtable or L0 at the stop trigger)")
    return result
