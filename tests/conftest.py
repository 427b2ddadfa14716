"""Shared fixtures: small-geometry options, the comparator, table builders."""

from __future__ import annotations

import random

import pytest

from repro.analysis import watchdog as lockwatch
from repro.lsm.compaction import _BufferFile
from repro.lsm.internal import (
    InternalKeyComparator,
    TYPE_DELETION,
    TYPE_VALUE,
    encode_internal_key,
)
from repro.lsm.options import Options
from repro.lsm.sstable import TableBuilder


#: Concurrency-heavy modules where the lock-order watchdog rides along:
#: every test in these files runs with instrumented locks, and teardown
#: asserts the acquisition graph stayed acyclic.
_WATCHDOG_MODULES = {
    "test_db_edge_cases",
    "test_driver",
    "test_durability",
    "test_obs_concurrency",
    "test_service",
    "test_table_encode",
}


@pytest.fixture(autouse=True)
def _lock_watchdog(request):
    """Enable the runtime lock-order watchdog for concurrency tests.

    The watchdog wrappers are created lazily (``lockwatch.make_lock``),
    so enabling here instruments every DB/server the test builds.
    A detected lock-order cycle fails the test at teardown even if the
    interleaving never actually deadlocked on this run.
    """
    module = request.node.module.__name__.rsplit(".", 1)[-1]
    if module not in _WATCHDOG_MODULES:
        yield
        return
    was_enabled = lockwatch.enabled()
    lockwatch.enable()
    lockwatch.reset()
    try:
        yield
        cycles = lockwatch.get().cycles()
        assert not cycles, (
            f"lock-order cycles detected by watchdog: {cycles}")
    finally:
        lockwatch.reset()
        if not was_enabled:
            lockwatch.disable()


@pytest.fixture
def options():
    """Small blocks/tables so tests exercise rollover paths quickly."""
    return Options(
        block_size=512,
        sstable_size=8 * 1024,
        write_buffer_size=16 * 1024,
        max_level0_size=64 * 1024,
        compression="snappy",
        block_cache_capacity=64 * 1024,
    )


@pytest.fixture
def plain_options():
    """Like ``options`` but uncompressed (faster for engine tests)."""
    return Options(
        block_size=512,
        sstable_size=8 * 1024,
        write_buffer_size=16 * 1024,
        max_level0_size=64 * 1024,
        compression="none",
        bloom_bits_per_key=0,
    )


@pytest.fixture
def icmp(options):
    return InternalKeyComparator(options.comparator)


def make_entries(count: int, seed: int = 0, seq_base: int = 1,
                 value_size: int = 40, delete_every: int = 0,
                 key_space: int = 10 ** 9):
    """Sorted (internal_key, value) entries with unique user keys."""
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(key_space), count))
    entries = []
    for i, raw in enumerate(keys):
        user_key = f"{raw:016d}".encode()
        if delete_every and i % delete_every == 0:
            internal = encode_internal_key(user_key, seq_base + i,
                                           TYPE_DELETION)
            entries.append((internal, b""))
        else:
            internal = encode_internal_key(user_key, seq_base + i, TYPE_VALUE)
            value = (f"v{raw}".encode() * 8)[:value_size]
            entries.append((internal, value))
    return entries


def build_table_image(entries, options, icmp) -> bytes:
    """Serialize sorted entries into an SSTable image."""
    dest = _BufferFile()
    builder = TableBuilder(options, dest, icmp)
    for key, value in entries:
        builder.add(key, value)
    builder.finish()
    return dest.getvalue()


@pytest.fixture
def table_factory(options, icmp):
    def factory(entries):
        return build_table_image(entries, options, icmp)
    return factory
