"""Leveled-version bookkeeping: which SSTables live in which level.

A :class:`Version` is an immutable snapshot of the level structure; the
:class:`VersionSet` owns the current version, applies
:class:`VersionEdit`\\ s produced by flushes and compactions, assigns file
numbers, and picks the next compaction the way LevelDB v1.1 does:

* level 0 compacts when it holds ``L0_COMPACTION_TRIGGER`` files (key
  ranges there may overlap, so *all* overlapping L0 files join);
* level i >= 1 compacts when its byte size exceeds
  ``Options.max_bytes_for_level``; one file is chosen round-robin by a
  per-level compaction pointer, plus every overlapping level-(i+1) file.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass, field
from typing import Optional

from repro.errors import InvalidArgumentError
from repro.lsm.compaction import input_streams
from repro.lsm.internal import InternalKeyComparator, extract_user_key
from repro.lsm.options import (
    L0_COMPACTION_TRIGGER,
    NUM_LEVELS,
    Options,
)
from repro.util.coding import (
    decode_fixed32,
    decode_fixed64,
    encode_fixed32,
    encode_fixed64,
    get_length_prefixed_slice,
    put_length_prefixed_slice,
)


@dataclass(frozen=True)
class FileMetaData:
    """One on-disk SSTable."""

    number: int
    file_size: int
    smallest: bytes  # internal key
    largest: bytes   # internal key

    def user_range(self) -> tuple[bytes, bytes]:
        return extract_user_key(self.smallest), extract_user_key(self.largest)


@dataclass
class VersionEdit:
    """Delta between two versions."""

    added: list[tuple[int, FileMetaData]] = field(default_factory=list)
    deleted: list[tuple[int, int]] = field(default_factory=list)  # (level, number)

    def add_file(self, level: int, meta: FileMetaData) -> None:
        self.added.append((level, meta))

    def delete_file(self, level: int, number: int) -> None:
        self.deleted.append((level, number))


class Version:
    """Immutable snapshot of the level structure: level 0 in file-number
    order, every deeper level sorted by smallest key and disjoint (what
    :meth:`VersionSet.apply` installs).  Lookups go through a search
    index over user keys (compared as ``bytes``) built from those lists
    on first use — safe without a lock, because racing builders compute
    the same value."""

    def __init__(self, files: Optional[list[list[FileMetaData]]] = None):
        self.files: list[list[FileMetaData]] = (
            files if files is not None else [[] for _ in range(NUM_LEVELS)])
        self._index: Optional[tuple] = None

    def num_files(self, level: int) -> int:
        return len(self.files[level])

    def level_bytes(self, level: int) -> int:
        return sum(f.file_size for f in self.files[level])

    def total_bytes(self) -> int:
        return sum(self.level_bytes(level) for level in range(NUM_LEVELS))

    def overlapping_files(self, level: int, smallest_user: Optional[bytes],
                          largest_user: Optional[bytes]) -> list[FileMetaData]:
        """Files in ``level`` whose user-key range intersects
        ``[smallest_user, largest_user]`` (``None`` = unbounded).

        For level 0 the search is *transitive*, like LevelDB: overlapping a
        file widens the range, because L0 files may overlap one another.
        """
        result: list[FileMetaData] = []
        files = list(self.files[level])
        i = 0
        while i < len(files):
            meta = files[i]
            i += 1
            file_small, file_large = meta.user_range()
            if largest_user is not None and file_small > largest_user:
                continue
            if smallest_user is not None and file_large < smallest_user:
                continue
            result.append(meta)
            if level == 0:
                expanded = False
                if smallest_user is not None and file_small < smallest_user:
                    smallest_user = file_small
                    expanded = True
                if largest_user is not None and file_large > largest_user:
                    largest_user = file_large
                    expanded = True
                if expanded:
                    # Restart: the widened range may pull in earlier files.
                    result = []
                    i = 0
        return result

    def approximate_size(self, start: bytes, end: bytes) -> int:
        """Approximate on-disk bytes occupied by user keys in
        ``[start, end)`` (LevelDB's ``GetApproximateSizes``).

        Counts the file-size share of every table whose range intersects
        the query, scaled by the overlap fraction assuming uniform keys
        within a table.
        """
        if start >= end:
            return 0
        total = 0
        for files in self.files:
            for meta in files:
                file_small, file_large = meta.user_range()
                if file_large < start or file_small >= end:
                    continue
                contained = start <= file_small and file_large < end
                if contained:
                    total += meta.file_size
                else:
                    # Partial overlap: charge half as a coarse estimate
                    # (LevelDB uses index-block offsets; half-file keeps
                    # the estimate monotone without opening the table).
                    total += meta.file_size // 2
        return total

    def _build_index(self) -> tuple:
        """Set and return ``_index = (level0, deeper)`` over user keys:
        level 0 newest-first as ``(smallest, largest, (0, file))``, and
        for every non-empty deeper level ``(largests, smallests, (level,
        file) pairs)``."""
        # Newer L0 files have larger file numbers.
        level0 = [(*f.user_range(), (0, f)) for f in sorted(
            self.files[0], key=lambda f: f.number, reverse=True)]
        deeper = []
        for level in range(1, NUM_LEVELS):
            files = self.files[level]
            if files:
                smallests, largests = zip(*(f.user_range() for f in files))
                deeper.append((largests, smallests,
                               [(level, f) for f in files]))
        self._index = (level0, deeper)
        return self._index

    def files_for_key(self, user_key: bytes) -> list[tuple[int, FileMetaData]]:
        """(level, file) pairs possibly containing ``user_key``, in
        newest-first search order: L0 newest→oldest, then deeper levels
        (disjoint: at most one file each, found by binary search)."""
        level0, deeper = self._index or self._build_index()
        result = [hit for small, large, hit in level0
                  if small <= user_key <= large]
        for largests, smallests, hits in deeper:
            i = bisect_left(largests, user_key)
            if i < len(hits) and smallests[i] <= user_key:
                result.append(hits[i])
        return result

    def files_in_range(self, start: Optional[bytes],
                       end: Optional[bytes]) -> list[FileMetaData]:
        """Files that may hold a user key in ``[start, end)`` (``None`` =
        unbounded), in :meth:`files_for_key`'s order."""
        level0, deeper = self._index or self._build_index()
        result = [f for small, large, (_level, f) in level0
                  if (start is None or large >= start)
                  and (end is None or small < end)]
        for largests, smallests, hits in deeper:
            i = 0 if start is None else bisect_left(largests, start)
            while i < len(hits) and (end is None or smallests[i] < end):
                result.append(hits[i][1])
                i += 1
        return result


class VersionSet:
    """Owns the current :class:`Version` and drives compaction picking."""

    def __init__(self, options: Options, comparator: InternalKeyComparator):
        self.options = options
        self.comparator = comparator
        self._install(Version())
        self._next_file_number = 1
        self.compact_pointer: list[bytes] = [b""] * NUM_LEVELS
        self.last_sequence = 0

    def new_file_number(self) -> int:
        number = self._next_file_number
        self._next_file_number += 1
        return number

    def reuse_file_number(self, number: int) -> None:
        """Advance the counter past externally recovered numbers."""
        self._next_file_number = max(self._next_file_number, number + 1)

    def apply(self, edit: VersionEdit) -> Version:
        """Produce and install a new current version."""
        deleted = set(edit.deleted)
        new_files: list[list[FileMetaData]] = []
        for level in range(NUM_LEVELS):
            keep = [f for f in self.current.files[level]
                    if (level, f.number) not in deleted]
            new_files.append(keep)
        for level, meta in edit.added:
            if not 0 <= level < NUM_LEVELS:
                raise InvalidArgumentError(f"bad level {level}")
            new_files[level].append(meta)
        sort_key = self.comparator.sort_key
        for level in range(1, NUM_LEVELS):
            new_files[level].sort(key=lambda f: sort_key(f.smallest))
            self._check_disjoint(new_files[level], level)
        new_files[0].sort(key=lambda f: f.number)
        return self._install(Version(new_files))

    def _install(self, version: Version) -> Version:
        """Make ``version`` current and score it: ``_score`` is the
        (score, level) of its most urgent compaction, due when the score
        is >= 1.  Versions are immutable, so it is computed here once,
        not on every write's :meth:`needs_compaction`."""
        best_score = version.num_files(0) / float(L0_COMPACTION_TRIGGER)
        best_level = 0
        for level in range(1, NUM_LEVELS - 1):
            score = (version.level_bytes(level)
                     / float(self.options.max_bytes_for_level(level)))
            if score > best_score:
                best_score = score
                best_level = level
        self.current = version
        self._score = (best_score, best_level)
        return version

    def encode_snapshot(self) -> bytes:
        """The whole version state as one MANIFEST record: fixed64
        last_sequence, fixed64 next_file_number, fixed32 levels; per
        level a fixed32 count, then per file fixed64 number, fixed64
        size, length-prefixed smallest and largest internal keys."""
        record = bytearray()
        record += encode_fixed64(self.last_sequence)
        record += encode_fixed64(self._next_file_number)
        record += encode_fixed32(NUM_LEVELS)
        for files in self.current.files:
            record += encode_fixed32(len(files))
            for meta in files:
                record += encode_fixed64(meta.number)
                record += encode_fixed64(meta.file_size)
                put_length_prefixed_slice(record, meta.smallest)
                put_length_prefixed_slice(record, meta.largest)
        return bytes(record)

    def restore_snapshot(self, record: bytes) -> None:
        """Install the state :meth:`encode_snapshot` wrote."""
        last_sequence = decode_fixed64(record, 0)
        next_file = decode_fixed64(record, 8)
        num_levels = decode_fixed32(record, 16)
        pos = 20
        edit = VersionEdit()
        for level in range(num_levels):
            count = decode_fixed32(record, pos)
            pos += 4
            for _ in range(count):
                number = decode_fixed64(record, pos)
                size = decode_fixed64(record, pos + 8)
                smallest, pos = get_length_prefixed_slice(record, pos + 16)
                largest, pos = get_length_prefixed_slice(record, pos)
                edit.add_file(level, FileMetaData(number, size, smallest,
                                                  largest))
        self.apply(edit)
        self.last_sequence = last_sequence
        self.reuse_file_number(next_file - 1)

    def _check_disjoint(self, files: list[FileMetaData], level: int) -> None:
        for prev, cur in zip(files, files[1:]):
            if prev.user_range()[1] >= cur.user_range()[0]:
                raise InvalidArgumentError(
                    f"overlapping files in level {level}: "
                    f"#{prev.number} and #{cur.number}")

    # ------------------------------------------------------------------
    # Compaction picking
    # ------------------------------------------------------------------

    def needs_compaction(self) -> bool:
        return self._score[0] >= 1.0

    def pick_compaction(self, level: Optional[int] = None
                        ) -> Optional["CompactionSpec"]:
        """Choose inputs for the next merge compaction, or ``None``.

        With ``level`` the pick is forced to that level regardless of
        scores (the write path uses ``level=0`` to relieve an L0 stall —
        the most urgent compaction elsewhere may not touch L0 at all).
        """
        if level is None:
            score, level = self._score
            if score < 1.0:
                return None
            reason = "files" if level == 0 else "size"
        elif not 0 <= level < NUM_LEVELS - 1:
            raise InvalidArgumentError(f"cannot compact level {level}")
        else:
            reason = f"forced_l{level}"
        version = self.current
        if level == 0:
            base = list(version.files[0])
        else:
            base = self._pick_round_robin(level)
        if not base:
            return None
        # Widen within the level so the chosen set covers a closed range.
        smallest, largest = self._key_range(base)
        base = version.overlapping_files(
            level, extract_user_key(smallest), extract_user_key(largest))
        smallest, largest = self._key_range(base)
        parents = version.overlapping_files(
            level + 1, extract_user_key(smallest), extract_user_key(largest))
        self.compact_pointer[level] = largest
        return CompactionSpec(level=level, inputs=base, parents=parents,
                              reason=reason)

    def _pick_round_robin(self, level: int) -> list[FileMetaData]:
        pointer = self.compact_pointer[level]
        for meta in self.current.files[level]:
            if not pointer or self.comparator.compare(meta.largest, pointer) > 0:
                return [meta]
        files = self.current.files[level]
        return [files[0]] if files else []

    def _key_range(self, files: list[FileMetaData]) -> tuple[bytes, bytes]:
        sort_key = self.comparator.sort_key
        return (min((meta.smallest for meta in files), key=sort_key),
                max((meta.largest for meta in files), key=sort_key))

    def is_bottommost_level_for(self, spec: "CompactionSpec") -> bool:
        """True when no level below the output can contain the compacted
        key range — tombstones may then be dropped."""
        version = self.current
        smallest, largest = self._key_range(spec.inputs + spec.parents
                                            if spec.parents else spec.inputs)
        small_user = extract_user_key(smallest)
        large_user = extract_user_key(largest)
        for level in range(spec.level + 2, NUM_LEVELS):
            if version.overlapping_files(level, small_user, large_user):
                return False
        return True


@dataclass
class CompactionSpec:
    """Inputs of one merge compaction: ``inputs`` from ``level`` and
    ``parents`` from ``level + 1``; outputs land in ``level + 1``."""

    level: int
    inputs: list[FileMetaData]
    parents: list[FileMetaData]
    #: Why this compaction was picked: ``"files"`` (L0 file-count
    #: trigger), ``"size"`` (level over its byte budget) or
    #: ``"forced_l<N>"`` (explicit level request, e.g. L0-stall relief).
    reason: str = ""

    @property
    def output_level(self) -> int:
        return self.level + 1

    @property
    def total_input_bytes(self) -> int:
        return (sum(f.file_size for f in self.inputs)
                + sum(f.file_size for f in self.parents))

    def fpga_input_count(self) -> int:
        """Number of FPGA input streams this compaction needs: the length
        of :func:`~repro.lsm.compaction.input_streams` over its files."""
        return len(input_streams(self.level, self.inputs, self.parents))
