"""Block checksums through the ``batch`` backend: it has no CRC path of
its own, so its output and its corruption check are the reader's and the
builder's."""

import pytest

from repro.errors import CorruptionError
from repro.host.batch_merge import BatchMergeEngine
from repro.lsm.compaction import compact, table_sources
from repro.lsm.internal import InternalKeyComparator
from repro.lsm.options import Options
from repro.lsm.sstable import TableReader
from repro.util.comparator import BytewiseComparator
from tests.conftest import build_table_image, make_entries

ICMP = InternalKeyComparator(BytewiseComparator())

pytestmark = pytest.mark.skipif(
    not BatchMergeEngine(Options(), ICMP).vectorized,
    reason="numpy absent: the batch backend declines every task")


def overlapping_tables(options: Options, tables: int = 3) -> list[bytes]:
    """Runs over one small key space, newer runs shadowing older ones,
    every seventh entry a tombstone."""
    return [build_table_image(
        make_entries(150, seed=run, seq_base=1 + 1000 * run, value_size=120,
                     delete_every=7, key_space=400), options, ICMP)
        for run in range(tables)]


@pytest.mark.parametrize("compression", ["none", "snappy"])
def test_batch_output_equals_compact_with_paranoid_checks(compression):
    options = Options(compression=compression, block_size=1024,
                      sstable_size=2 * 1024, paranoid_checks=True)
    images = overlapping_tables(options)
    readers = [TableReader(image, ICMP, options) for image in images]
    expected = compact(table_sources(readers), options, ICMP,
                       drop_deletions=True)
    batched = BatchMergeEngine(options, ICMP).compact(
        [[reader] for reader in readers], drop_deletions=True)
    assert len(expected.outputs) > 1
    assert ([bytes(t.data) for t in batched.outputs]
            == [bytes(t.data) for t in expected.outputs])
    # Every checksum the batch engine wrote verifies on a paranoid read.
    for table in batched.outputs:
        assert sum(1 for _ in TableReader(table.data, ICMP, options)) > 0


def test_flipped_bit_in_an_input_block_raises_from_batch_backend():
    options = Options(compression="none", paranoid_checks=True)
    images = overlapping_tables(options, tables=2)
    readers = [TableReader(image, ICMP, options) for image in images]
    _, first_block = readers[1].index_entries()[0]
    damaged = bytearray(images[1])
    damaged[first_block.offset + first_block.size // 2] ^= 0x04
    # Index, filter and footer are intact: the table still opens.
    readers[1] = TableReader(bytes(damaged), ICMP, options)
    with pytest.raises(CorruptionError, match="checksum"):
        BatchMergeEngine(options, ICMP).compact(
            [[reader] for reader in readers], drop_deletions=False)
