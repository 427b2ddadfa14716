"""Options validation, derived level budgets and the one key order."""

import pytest

from repro.errors import InvalidArgumentError
from repro.lsm.internal import InternalKeyComparator
from repro.lsm.options import (
    L0_COMPACTION_TRIGGER,
    L0_SLOWDOWN_TRIGGER,
    L0_STOP_TRIGGER,
    Options,
)
from repro.util.comparator import BytewiseComparator


class TestDefaults:
    def test_paper_table_iv(self):
        options = Options()
        assert options.key_length == 16
        assert options.value_length == 128
        assert options.leveling_ratio == 10
        assert options.block_size == 4096

    def test_leveldb_constants(self):
        assert L0_COMPACTION_TRIGGER == 4
        assert L0_SLOWDOWN_TRIGGER == 8
        assert L0_STOP_TRIGGER == 12
        options = Options()
        assert options.sstable_size == 2 * 1024 * 1024
        assert options.write_buffer_size == 4 * 1024 * 1024


class TestValidation:
    def test_bad_key_length(self):
        with pytest.raises(InvalidArgumentError):
            Options(key_length=0)

    def test_negative_value_length(self):
        with pytest.raises(InvalidArgumentError):
            Options(value_length=-1)

    def test_bad_ratio(self):
        with pytest.raises(InvalidArgumentError):
            Options(leveling_ratio=1)

    def test_tiny_block(self):
        with pytest.raises(InvalidArgumentError):
            Options(block_size=32)

    def test_sstable_smaller_than_block(self):
        with pytest.raises(InvalidArgumentError):
            Options(block_size=8192, sstable_size=4096)

    def test_bad_restart_interval(self):
        with pytest.raises(InvalidArgumentError):
            Options(block_restart_interval=0)

    def test_unknown_compression(self):
        with pytest.raises(InvalidArgumentError):
            Options(compression="lz4")

    def test_zero_value_length_ok(self):
        Options(value_length=0)


class TestLevelBudgets:
    def test_geometric_growth(self):
        options = Options(max_level0_size=10 << 20, leveling_ratio=10)
        assert options.max_bytes_for_level(1) == 10 << 20
        assert options.max_bytes_for_level(2) == 100 << 20
        assert options.max_bytes_for_level(3) == 1000 << 20

    def test_ratio_knob(self):
        options = Options(max_level0_size=10 << 20, leveling_ratio=4)
        assert (options.max_bytes_for_level(2)
                == 4 * options.max_bytes_for_level(1))

    def test_level_zero_has_no_byte_budget(self):
        with pytest.raises(InvalidArgumentError):
            Options().max_bytes_for_level(0)


class TestOneKeyOrder:
    def test_user_keys_order_bytewise_only(self):
        """User keys order as bytes, and every block read checks its CRC:
        neither is a setting.  ``Options().comparator`` still names the
        order, for callers that build an ``InternalKeyComparator`` from
        it."""

        class Reversed(BytewiseComparator):
            def compare(self, a, b):
                return -super().compare(a, b)

        with pytest.raises(TypeError):
            Options(comparator=BytewiseComparator())
        with pytest.raises(TypeError):
            Options(paranoid_checks=False)
        assert type(Options().comparator) is BytewiseComparator
        InternalKeyComparator(Options().comparator)
        for other in (Reversed(), object(), None):
            with pytest.raises(InvalidArgumentError):
                InternalKeyComparator(other)
