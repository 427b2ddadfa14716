"""Functional pipeline modules: decoder chain, comparer, encoders."""

import pytest

from repro.fpga.comparer import Comparer, KeyCompare, ValidityCheck
from repro.fpga.decoder import DecoderChain, SSTableLayout
from repro.fpga.dram import Dram
from repro.fpga.encoder import Encoder
from repro.lsm.internal import (
    InternalKeyComparator,
    TYPE_DELETION,
    TYPE_VALUE,
    encode_internal_key,
)
from repro.util.comparator import BytewiseComparator

from tests.conftest import build_table_image, make_entries

ICMP = InternalKeyComparator(BytewiseComparator())


def load_layout(image: bytes, plain_options):
    """Place an SSTable image + extracted index into a DRAM."""
    from repro.host.memory import extract_index_image
    from repro.lsm.sstable import TableReader

    reader = TableReader(image, ICMP, plain_options)
    index_image = extract_index_image(reader)
    dram = Dram(size=1 << 22)
    dram.write(0, image)
    dram.write(len(image) + 64, index_image)
    layout = SSTableLayout(index_offset=len(image) + 64,
                           index_size=len(index_image),
                           data_offset=0, data_size=len(image))
    return dram, layout


class TestDecoderChain:
    def test_decodes_all_pairs_in_order(self, plain_options):
        entries = make_entries(250, value_size=48)
        image = build_table_image(entries, plain_options, ICMP)
        dram, layout = load_layout(image, plain_options)
        chain = DecoderChain(dram, [layout], ICMP)
        decoded = [pair for block in chain
                   for pair in zip(block.keys, block.values)]
        assert decoded == entries

    def test_new_block_flag_set_once_per_block(self, plain_options):
        entries = make_entries(250, value_size=48)
        image = build_table_image(entries, plain_options, ICMP)
        dram, layout = load_layout(image, plain_options)
        chain = DecoderChain(dram, [layout], ICMP)
        blocks = list(chain)
        boundaries = len(blocks)
        assert boundaries == chain.index_decoder.blocks_decoded
        assert boundaries > 1
        for block in blocks:
            assert block.sort_keys == [ICMP.sort_key(k) for k in block.keys]

    def test_unsorted_input_detected(self, plain_options):
        entries = make_entries(50)
        # Build a technically valid table, then corrupt ordering by
        # concatenating a table whose keys restart from the beginning.
        image = build_table_image(entries, plain_options, ICMP)
        dram, layout = load_layout(image, plain_options)
        chain = DecoderChain(dram, [layout, layout], ICMP)
        from repro.errors import FpgaProtocolError
        with pytest.raises(FpgaProtocolError):
            list(chain)


class TestComparer:
    def test_key_compare_selects_smallest(self):
        compare = KeyCompare()
        heads = [ICMP.sort_key(encode_internal_key(user, seq, TYPE_VALUE))
                 for user, seq in ((b"bbb", 5), (b"aaa", 1), (b"ccc", 9))]
        assert compare.select([0, 1, 2], heads) == 1
        assert compare.rounds == 1
        # Equal heads: the lowest input number wins.
        heads[2] = heads[1]
        assert compare.select([0, 1, 2], heads) == 1

    def test_key_compare_empty_raises(self):
        with pytest.raises(ValueError):
            KeyCompare().select([], [])

    def test_validity_drops_shadowed(self):
        check = ValidityCheck(drop_deletions=False)
        newer = encode_internal_key(b"k", 9, TYPE_VALUE)
        older = encode_internal_key(b"k", 3, TYPE_VALUE)
        assert check.check(ICMP.sort_key(newer)) is False
        assert check.check(ICMP.sort_key(older)) is True
        assert check.dropped_shadowed == 1

    def test_validity_drops_tombstone_at_bottom(self):
        check = ValidityCheck(drop_deletions=True)
        tombstone = encode_internal_key(b"k", 9, TYPE_DELETION)
        assert check.check(ICMP.sort_key(tombstone)) is True
        assert check.dropped_tombstones == 1

    def test_validity_keeps_tombstone_mid_tree(self):
        check = ValidityCheck(drop_deletions=False)
        tombstone = encode_internal_key(b"k", 9, TYPE_DELETION)
        assert check.check(ICMP.sort_key(tombstone)) is False

    def test_composed_round(self):
        comparer = Comparer(drop_deletions=True)
        heads = [ICMP.sort_key(encode_internal_key(b"a", 2, TYPE_VALUE)),
                 ICMP.sort_key(encode_internal_key(b"b", 1, TYPE_VALUE))]
        winner, drop = comparer.round([0, 1], heads)
        assert winner == 0
        assert not drop


class TestEncoder:
    def test_builds_standard_tables(self, plain_options):
        encoder = Encoder(plain_options, ICMP)
        entries = make_entries(300, value_size=64)
        flushes = flushed_bytes = 0
        for key, value in entries:
            flushed = encoder.add(key, value)
            flushes += flushed > 0
            flushed_bytes += flushed
        outputs = encoder.finish()
        assert flushes >= len(outputs) >= 1
        # Blocks flushed by add(), plus the tails finish() wrote.
        assert 0 < flushed_bytes <= sum(o.stats.data_bytes for o in outputs)
        assert sum(o.stats.num_entries for o in outputs) == 300
        # Outputs must parse as standard SSTables.
        from repro.lsm.sstable import TableReader
        recovered = []
        for output in outputs:
            recovered.extend(TableReader(output.data, ICMP, plain_options))
        assert recovered == entries
