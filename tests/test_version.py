"""Version set: level bookkeeping, overlap queries, compaction picking."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import InvalidArgumentError
from repro.lsm.internal import (
    InternalKeyComparator,
    TYPE_VALUE,
    encode_internal_key,
)
from repro.lsm.options import L0_COMPACTION_TRIGGER, NUM_LEVELS, Options
from repro.lsm.version import (
    FileMetaData,
    Version,
    VersionEdit,
    VersionSet,
)
from repro.util.comparator import BytewiseComparator


def ikey(user: bytes, seq: int = 1) -> bytes:
    return encode_internal_key(user, seq, TYPE_VALUE)


def meta(number: int, small: bytes, large: bytes,
         size: int = 1000) -> FileMetaData:
    return FileMetaData(number, size, ikey(small), ikey(large))


@pytest.fixture
def versions():
    options = Options(max_level0_size=10_000)
    return VersionSet(options, InternalKeyComparator(BytewiseComparator()))


class TestApply:
    def test_add_and_delete(self, versions):
        edit = VersionEdit()
        edit.add_file(1, meta(1, b"a", b"m"))
        edit.add_file(1, meta(2, b"n", b"z"))
        versions.apply(edit)
        assert versions.current.num_files(1) == 2

        edit2 = VersionEdit()
        edit2.delete_file(1, 1)
        versions.apply(edit2)
        assert versions.current.num_files(1) == 1
        assert versions.current.files[1][0].number == 2

    def test_sorted_levels_stay_sorted(self, versions):
        edit = VersionEdit()
        edit.add_file(1, meta(2, b"n", b"z"))
        edit.add_file(1, meta(1, b"a", b"m"))
        versions.apply(edit)
        smalls = [f.user_range()[0] for f in versions.current.files[1]]
        assert smalls == sorted(smalls)

    def test_sorted_levels_follow_the_comparator(self, versions):
        # As raw bytes, "a\x00" + mark fields sorts before "a" + mark
        # fields: a level sorted that way fails its overlap check.
        smalls = [b"a", b"a\x00"]
        edit = VersionEdit()
        for number, small in reversed(list(enumerate(smalls, 1))):
            edit.add_file(1, meta(number, small, small))
        versions.apply(edit)
        assert [f.user_range()[0] for f in versions.current.files[1]] == smalls

    def test_overlap_in_sorted_level_rejected(self, versions):
        edit = VersionEdit()
        edit.add_file(1, meta(1, b"a", b"m"))
        edit.add_file(1, meta(2, b"k", b"z"))  # overlaps
        with pytest.raises(InvalidArgumentError):
            versions.apply(edit)

    def test_l0_overlap_allowed(self, versions):
        edit = VersionEdit()
        edit.add_file(0, meta(1, b"a", b"z"))
        edit.add_file(0, meta(2, b"b", b"y"))
        versions.apply(edit)
        assert versions.current.num_files(0) == 2

    def test_bad_level_rejected(self, versions):
        edit = VersionEdit()
        edit.add_file(99, meta(1, b"a", b"b"))
        with pytest.raises(InvalidArgumentError):
            versions.apply(edit)

    def test_file_numbers_monotonic(self, versions):
        first = versions.new_file_number()
        second = versions.new_file_number()
        assert second == first + 1
        versions.reuse_file_number(100)
        assert versions.new_file_number() == 101


class TestOverlapQueries:
    def _setup(self, versions):
        edit = VersionEdit()
        edit.add_file(1, meta(1, b"a", b"f"))
        edit.add_file(1, meta(2, b"g", b"m"))
        edit.add_file(1, meta(3, b"n", b"z"))
        versions.apply(edit)

    def test_overlapping_files_range(self, versions):
        self._setup(versions)
        hits = versions.current.overlapping_files(1, b"h", b"p")
        assert [f.number for f in hits] == [2, 3]

    def test_overlapping_files_unbounded(self, versions):
        self._setup(versions)
        hits = versions.current.overlapping_files(1, None, None)
        assert len(hits) == 3

    def test_l0_transitive_expansion(self, versions):
        edit = VersionEdit()
        edit.add_file(0, meta(1, b"a", b"c"))
        edit.add_file(0, meta(2, b"b", b"h"))
        edit.add_file(0, meta(3, b"g", b"p"))
        versions.apply(edit)
        # Querying [a, c] must transitively pull in files 2 and 3.
        hits = versions.current.overlapping_files(0, b"a", b"c")
        assert {f.number for f in hits} == {1, 2, 3}

    def test_files_for_key_newest_l0_first(self, versions):
        edit = VersionEdit()
        edit.add_file(0, meta(1, b"a", b"z"))
        edit.add_file(0, meta(5, b"a", b"z"))
        edit.add_file(1, meta(3, b"a", b"z"))
        versions.apply(edit)
        hits = versions.current.files_for_key(b"m")
        assert [(lvl, f.number) for lvl, f in hits] == [
            (0, 5), (0, 1), (1, 3)]


class TestPicking:
    def test_no_compaction_when_small(self, versions):
        assert versions.pick_compaction() is None
        assert not versions.needs_compaction()

    def test_l0_trigger(self, versions):
        edit = VersionEdit()
        for i in range(L0_COMPACTION_TRIGGER):
            edit.add_file(0, meta(10 + i, b"a", b"z"))
        edit.add_file(1, meta(3, b"b", b"c"))
        versions.apply(edit)
        spec = versions.pick_compaction()
        assert spec is not None
        assert spec.level == 0
        assert len(spec.inputs) == L0_COMPACTION_TRIGGER
        assert [f.number for f in spec.parents] == [3]
        assert spec.fpga_input_count() == L0_COMPACTION_TRIGGER + 1

    def test_size_trigger_deeper_level(self, versions):
        edit = VersionEdit()
        edit.add_file(1, meta(1, b"a", b"c", size=20_000))  # over 10k budget
        edit.add_file(2, meta(2, b"b", b"d", size=100))
        versions.apply(edit)
        spec = versions.pick_compaction()
        assert spec.level == 1
        assert [f.number for f in spec.inputs] == [1]
        assert [f.number for f in spec.parents] == [2]
        assert spec.fpga_input_count() == 2

    def test_round_robin_pointer_advances(self, versions):
        edit = VersionEdit()
        edit.add_file(1, meta(1, b"a", b"c", size=11_000))
        edit.add_file(1, meta(2, b"d", b"f", size=11_000))
        versions.apply(edit)
        first = versions.pick_compaction()
        assert [f.number for f in first.inputs] == [1]
        second = versions.pick_compaction()
        assert [f.number for f in second.inputs] == [2]

    def test_bottommost_detection(self, versions):
        edit = VersionEdit()
        edit.add_file(1, meta(1, b"a", b"z", size=20_000))
        versions.apply(edit)
        spec = versions.pick_compaction()
        assert versions.is_bottommost_level_for(spec)

        edit2 = VersionEdit()
        edit2.add_file(3, meta(9, b"a", b"z"))
        versions.apply(edit2)
        spec2 = versions.pick_compaction()
        assert spec2 is not None
        assert not versions.is_bottommost_level_for(spec2)


# ----------------------------------------------------------------------
# files_for_key / files_in_range against the linear scans they replaced
# ----------------------------------------------------------------------

def linear_files_for_key(version, user_key):
    """``Version.files_for_key`` as it was before the search index: the
    oracle, kept here only."""
    level0 = [f for f in version.files[0]
              if f.user_range()[0] <= user_key <= f.user_range()[1]]
    level0.sort(key=lambda f: f.number, reverse=True)
    result = [(0, f) for f in level0]
    for level in range(1, NUM_LEVELS):
        for candidate in version.files[level]:
            small, large = candidate.user_range()
            if small <= user_key <= large:
                result.append((level, candidate))
                break
    return result


def linear_files_in_range(version, start, end):
    """Every file whose user range meets ``[start, end)``, in the order
    ``LsmDB.scan`` used to open them."""
    result = []
    for level, files in enumerate(version.files):
        if level == 0:
            files = sorted(files, key=lambda f: f.number, reverse=True)
        for candidate in files:
            small, large = candidate.user_range()
            if start is not None and large < start:
                continue
            if end is not None and small >= end:
                continue
            result.append(candidate)
    return result


USER_KEYS = st.binary(min_size=0, max_size=3)


@st.composite
def layouts(draw):
    """(files per level, probe keys): overlapping L0 files, sorted
    disjoint deeper levels, and probes that include every boundary plus
    random keys below, between and above them."""
    number = iter(range(1, 1000))
    files = [[] for _ in range(NUM_LEVELS)]
    bounds = set()
    for _ in range(draw(st.integers(0, 4))):
        small, large = sorted(draw(st.tuples(USER_KEYS, USER_KEYS)))
        files[0].append(meta(next(number), small, large))
        bounds.update((small, large))
    for level in range(1, draw(st.integers(1, 4))):
        cuts = sorted(draw(st.sets(USER_KEYS, max_size=8)))
        cuts = cuts[:len(cuts) - len(cuts) % 2]
        widths = draw(st.lists(st.booleans(), min_size=len(cuts) // 2,
                               max_size=len(cuts) // 2))
        for i, single in zip(range(0, len(cuts), 2), widths):
            # Some files hold one key: smallest == largest.
            small, large = cuts[i], cuts[i] if single else cuts[i + 1]
            files[level].append(meta(next(number), small, large))
            bounds.update((small, large))
    probes = sorted(bounds | draw(st.sets(USER_KEYS, max_size=6)))
    return files, probes


class TestSearchIndex:
    @settings(max_examples=150, deadline=None)
    @given(layouts())
    def test_files_for_key_matches_linear_scan(self, layout):
        files, probes = layout
        version = Version(files)
        for probe in probes:
            assert (version.files_for_key(probe)
                    == linear_files_for_key(version, probe))

    @settings(max_examples=100, deadline=None)
    @given(layouts())
    def test_files_in_range_matches_linear_scan(self, layout):
        files, probes = layout
        version = Version(files)
        for start in [None] + probes:
            for end in [None] + probes:
                assert (version.files_in_range(start, end)
                        == linear_files_in_range(version, start, end))

    def test_index_built_once_per_version(self, versions):
        edit = VersionEdit()
        edit.add_file(1, meta(1, b"a", b"m"))
        versions.apply(edit)
        version = versions.current
        version.files_for_key(b"b")
        index = version._index
        version.files_for_key(b"q")
        version.files_in_range(None, None)
        assert version._index is index
        edit = VersionEdit()
        edit.add_file(1, meta(2, b"n", b"z"))
        assert versions.apply(edit)._index is None
