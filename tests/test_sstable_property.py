"""Property tests for the SSTable format: arbitrary sorted entry sets
round-trip through build/read, under both compression modes, and point
lookups find what iteration yields, as far as ``TableReader.get``
promises: it reads one block."""

from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.lsm.internal import (
    InternalKeyComparator,
    TYPE_VALUE,
    encode_internal_key,
)
from repro.lsm.options import Options
from repro.lsm.sstable import TableReader
from repro.util.comparator import BytewiseComparator

from tests.conftest import build_table_image

ICMP = InternalKeyComparator(BytewiseComparator())

_user_keys = st.sets(st.binary(min_size=1, max_size=32), min_size=1,
                     max_size=120)
_compression = st.sampled_from(["snappy", "none"])


def _entries_from(keys):
    entries = []
    for sequence, user in enumerate(sorted(keys), start=1):
        entries.append((encode_internal_key(user, sequence, TYPE_VALUE),
                        user[::-1] * 3))
    return entries


def _options(compression):
    return Options(block_size=256, sstable_size=1 << 20,
                   compression=compression, bloom_bits_per_key=10,
                   block_restart_interval=4)


@settings(max_examples=40, deadline=None)
@given(_user_keys, _compression)
def test_build_read_roundtrip_property(keys, compression):
    options = _options(compression)
    entries = _entries_from(keys)
    reader = TableReader(build_table_image(entries, options, ICMP),
                         ICMP, options)
    assert list(reader) == entries


#: A table and probe where the probe falls between a block's last key
#: (``\xde\x00``) and its shortened separator (``\xdf``).
_BETWEEN_KEYS = {b"\x00", b"\x00" * 15, b"\x01" + b"\x00" * 14,
                 b"\x02\x00\x00", b"\x02\x00\x00\x00\x00", b"\x03",
                 b"\xde\x00", b"\xe0"}


@settings(max_examples=30, deadline=None)
@example(keys=_BETWEEN_KEYS, compression="snappy", probe=b"\xde\x01")
@example(keys=_BETWEEN_KEYS, compression="none", probe=b"\xde\x01")
@given(_user_keys, _compression, st.binary(min_size=1, max_size=32))
def test_point_get_matches_iteration_property(keys, compression, probe):
    """``get`` returns the table's first entry at or after the probe
    whenever the two share a user key; otherwise that entry or None (the
    probe fell between a block's last key and its separator)."""
    options = _options(compression)
    entries = _entries_from(keys)
    reader = TableReader(build_table_image(entries, options, ICMP),
                         ICMP, options)
    target = encode_internal_key(probe, 2 ** 40, TYPE_VALUE)
    expected = next(
        ((k, v) for k, v in entries if ICMP.compare(k, target) >= 0), None)
    found = reader.get(target)
    if expected is None or expected[0][:-8] == probe:
        assert found == expected
    else:
        assert found in (None, expected)


def test_point_get_between_last_key_and_separator_is_none():
    """One entry per block: the index separates ``abcxyz`` from ``abz``
    by ``abd``, so ``abcz`` is sent to the first block, which holds
    nothing at or after it -- though the table's next entry is ``abz``."""
    options = Options(block_size=64, compression="none",
                      bloom_bits_per_key=0)
    entries = [(encode_internal_key(user, sequence, TYPE_VALUE), b"v" * 64)
               for sequence, user in enumerate((b"abcxyz", b"abz"), start=1)]
    reader = TableReader(build_table_image(entries, options, ICMP),
                         ICMP, options)
    separators = [key[:-8] for key, _ in reader.index_entries()]
    assert separators[0] == b"abd"
    target = encode_internal_key(b"abcz", 2 ** 40, TYPE_VALUE)
    assert next(k for k, _ in entries if ICMP.compare(k, target) >= 0) \
        == entries[1][0]
    assert reader.get(target) is None


@settings(max_examples=30, deadline=None)
@given(_user_keys)
def test_bloom_filter_never_rejects_present_property(keys):
    options = _options("none")
    entries = _entries_from(keys)
    reader = TableReader(build_table_image(entries, options, ICMP),
                         ICMP, options)
    for user in keys:
        assert reader.key_may_match(user)
