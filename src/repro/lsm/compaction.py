"""CPU reference compaction — the software merge path.

This is the baseline the paper measures FCAE against, and the functional
oracle the FPGA engine's output is compared to in tests.  Given N input
streams of (internal key, value) pairs sorted newest-source-first, it:

1. merges them (Comparer's *Key Compare* role),
2. drops entries shadowed by a newer version of the same user key and —
   when compacting into the bottommost level — deletion tombstones
   (Comparer's *Validity Check* role),
3. re-encodes survivors into standard SSTables, cutting a new data block
   at ``Options.block_size`` and a new table at ``Options.sstable_size``
   (the Encoder's role).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Iterable, Iterator

from repro.errors import CorruptionError
from repro.lsm.internal import (
    InternalKeyComparator,
    MARK_FIELDS_SIZE,
    MAX_SEQUENCE,
    TYPE_DELETION,
    TYPE_VALUE,
)
from repro.lsm.iterator import KVPair, merging_iterator
from repro.lsm.options import Options
from repro.lsm.sstable import TableStats, _BufferFile, build_tables


@dataclass
class OutputTable:
    """One SSTable produced by a compaction."""

    data: bytes
    smallest: bytes
    largest: bytes
    stats: TableStats


@dataclass
class CompactionStats:
    """Counters shared by the CPU and FPGA compaction paths."""

    input_pairs: int = 0
    output_pairs: int = 0
    dropped_shadowed: int = 0
    dropped_tombstones: int = 0
    input_bytes: int = 0
    output_bytes: int = 0
    outputs: list[OutputTable] = field(default_factory=list)


def merge_entries(sources: Iterable[Iterator[KVPair]],
                  comparator: InternalKeyComparator,
                  drop_deletions: bool,
                  stats: CompactionStats | None = None,
                  smallest_snapshot: int | None = None) -> Iterator[KVPair]:
    """Merge + validity-check: yields surviving (internal key, value).

    Sources must be ordered so that for equal internal-key *user* parts the
    newer entry (higher sequence) is met first — the internal-key order
    guarantees this within and across sorted runs.

    ``smallest_snapshot`` is the oldest live snapshot sequence.  An entry
    is dropped only when a *newer* entry for the same user key is itself
    at-or-below that sequence — i.e. every live snapshot still resolves to
    the same version it saw before the compaction (LevelDB's
    ``last_sequence_for_key`` rule).  ``None`` means no live snapshots:
    only the newest version of each key survives.
    """
    if smallest_snapshot is None:
        # No live snapshots: any real sequence (< MAX_SEQUENCE) shadows
        # older versions, so only the newest survives.
        smallest_snapshot = MAX_SEQUENCE - 1
    last_user_key: bytes | None = None
    # Sequence of the previous (newer) entry for the current user key;
    # MAX_SEQUENCE marks "no newer entry seen yet".
    last_sequence_for_key = MAX_SEQUENCE
    for internal_key, value in merging_iterator(sources, comparator.sort_key):
        if stats is not None:
            stats.input_pairs += 1
            stats.input_bytes += len(internal_key) + len(value)
        # Inlined parse_internal_key: this loop touches every input pair,
        # so the dataclass allocation and double slicing are skipped.
        if len(internal_key) < MARK_FIELDS_SIZE:
            raise CorruptionError("internal key shorter than mark fields")
        user_key = internal_key[:-MARK_FIELDS_SIZE]
        trailer = int.from_bytes(internal_key[-MARK_FIELDS_SIZE:], "little")
        value_type = trailer & 0xFF
        if value_type not in (TYPE_VALUE, TYPE_DELETION):
            raise CorruptionError(f"unknown value type byte {value_type:#x}")
        sequence = trailer >> 8
        if user_key != last_user_key:
            last_user_key = user_key
            last_sequence_for_key = MAX_SEQUENCE
        if last_sequence_for_key <= smallest_snapshot:
            # A newer version visible to the oldest snapshot shadows this
            # one for every reader that can still exist.
            last_sequence_for_key = sequence
            if stats is not None:
                stats.dropped_shadowed += 1
            continue
        last_sequence_for_key = sequence
        if (value_type == TYPE_DELETION and drop_deletions
                and sequence <= smallest_snapshot):
            # Tombstone invisible to no one (bottommost level): drop it.
            if stats is not None:
                stats.dropped_tombstones += 1
            continue
        if stats is not None:
            stats.output_pairs += 1
            stats.output_bytes += len(internal_key) + len(value)
        yield internal_key, value


def build_output_tables(entries: Iterator[KVPair], options: Options,
                        comparator: InternalKeyComparator
                        ) -> list[OutputTable]:
    """Encode merged entries into >= 0 SSTable images, rolling over at
    ``Options.sstable_size`` (cut -> encode -> lay out:
    :func:`repro.lsm.sstable.build_tables`)."""
    return [OutputTable(data=dest.getvalue(), smallest=builder.smallest_key,
                        largest=builder.largest_key, stats=builder.stats)
            for builder, dest in build_tables(
                entries, options, comparator, _BufferFile,
                options.sstable_size)]


def compact(sources: Iterable[Iterator[KVPair]], options: Options,
            comparator: InternalKeyComparator,
            drop_deletions: bool = False,
            smallest_snapshot: int | None = None) -> CompactionStats:
    """Run a full software compaction over ``sources``.

    Returns statistics whose ``outputs`` list holds the new table images
    with their key ranges — the same payload the FPGA's MetaOut memory
    reports back to the host.  ``smallest_snapshot`` preserves versions
    still visible to live snapshots (see :func:`merge_entries`).
    """
    stats = CompactionStats()
    survivors = merge_entries(sources, comparator, drop_deletions, stats,
                              smallest_snapshot=smallest_snapshot)
    stats.outputs = build_output_tables(survivors, options, comparator)
    return stats


def table_sources(tables: Iterable) -> list[Iterator[KVPair]]:
    """Adapt TableReader-like iterables into merge sources.  ``tables``
    arrive newest-first by convention (L0 ordering), which only matters
    for the merging iterator's tie rule — and equal internal keys never
    reach it."""
    return [iter(t) for t in tables]


def concatenating_iterator(tables: Iterable) -> Iterator[KVPair]:
    """Chain sorted, non-overlapping tables into one sorted stream."""
    return chain.from_iterable(tables)


def input_streams(level: int, inputs: list, parents: list) -> list[list]:
    """Split a compaction's tables into merge streams (paper §IV step 2):
    level-0 files may overlap, so each is its own stream; a sorted
    level's files "can be concatenated as a big SSTable, and the number
    of input is one", and so can the parents."""
    streams = [[t] for t in inputs] if level == 0 else [inputs]
    streams.append(parents)
    return [stream for stream in streams if stream]


def make_compaction_sources(
        level: int,
        input_tables: list,
        parent_tables: list) -> list[Iterator[KVPair]]:
    """Merge sources over :func:`input_streams`' split of the tables."""
    return [concatenating_iterator(stream) for stream
            in input_streams(level, input_tables, parent_tables)]


def compact_tables(level: int, input_tables: list, parent_tables: list,
                   options: Options, comparator: InternalKeyComparator,
                   drop_deletions: bool,
                   smallest_snapshot: int | None = None) -> CompactionStats:
    """:func:`compact` over a CompactionSpec's tables — the one CPU merge
    behind both ``LsmDB``'s default executor and the ``cpu`` backend.
    Only ``LsmDB`` passes ``smallest_snapshot``: it keeps snapshot
    merges away from every other executor.  Inputs are read past the
    block cache."""
    return compact(
        make_compaction_sources(
            level, [table.merge_input() for table in input_tables],
            [table.merge_input() for table in parent_tables]),
        options, comparator, drop_deletions,
        smallest_snapshot=smallest_snapshot)
