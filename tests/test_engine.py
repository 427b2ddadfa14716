"""CompactionEngine: functional equivalence with the CPU path, timing
sanity, input limits, and the merge-correctness property."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FpgaResourceError
from repro.fpga.config import CONFIG_2_INPUT, CONFIG_9_INPUT
from repro.fpga.engine import CompactionEngine
from repro.lsm.compaction import compact
from repro.lsm.internal import (
    InternalKeyComparator,
    TYPE_DELETION,
    TYPE_VALUE,
    encode_internal_key,
)
from repro.lsm.options import Options
from repro.util.comparator import BytewiseComparator

from tests.conftest import build_table_image

ICMP = InternalKeyComparator(BytewiseComparator())


def make_run(seed, count, seq_base, delete_fraction=0.1, key_space=50_000):
    rng = random.Random(seed)
    keys = sorted(rng.sample(range(key_space), count))
    run = []
    for i, raw in enumerate(keys):
        user = f"{raw:016d}".encode()
        if rng.random() < delete_fraction:
            run.append((encode_internal_key(user, seq_base + i,
                                            TYPE_DELETION), b""))
        else:
            value = (f"data{raw}".encode() * 6)[:72]
            run.append((encode_internal_key(user, seq_base + i, TYPE_VALUE),
                        value))
    return run


class TestFunctional:
    def test_matches_cpu_compaction_bytes(self, plain_options):
        newer = make_run(1, 700, 100_000)
        older = make_run(2, 900, 1)
        engine = CompactionEngine(CONFIG_2_INPUT, plain_options)
        images = [[build_table_image(newer, plain_options, ICMP)],
                  [build_table_image(older, plain_options, ICMP)]]
        result = engine.run_on_images(images, drop_deletions=True)
        oracle = compact([iter(newer), iter(older)], plain_options, ICMP,
                         drop_deletions=True)
        assert len(result.outputs) == len(oracle.outputs)
        for ours, theirs in zip(result.outputs, oracle.outputs):
            assert ours.data == theirs.data
            assert ours.smallest == theirs.smallest
            assert ours.largest == theirs.largest

    def test_matches_cpu_with_compression(self, options):
        newer = make_run(3, 200, 10_000)
        older = make_run(4, 250, 1)
        engine = CompactionEngine(CONFIG_2_INPUT, options)
        images = [[build_table_image(newer, options, ICMP)],
                  [build_table_image(older, options, ICMP)]]
        result = engine.run_on_images(images, drop_deletions=False)
        oracle = compact([iter(newer), iter(older)], options, ICMP,
                         drop_deletions=False)
        assert [o.data for o in result.outputs] == [
            o.data for o in oracle.outputs]

    def test_multi_table_input_concatenation(self, plain_options):
        run = make_run(5, 600, 1, delete_fraction=0)
        split = 300
        first, second = run[:split], run[split:]
        other = make_run(6, 100, 50_000, delete_fraction=0)
        engine = CompactionEngine(CONFIG_2_INPUT, plain_options)
        images = [[build_table_image(first, plain_options, ICMP),
                   build_table_image(second, plain_options, ICMP)],
                  [build_table_image(other, plain_options, ICMP)]]
        result = engine.run_on_images(images)
        oracle = compact([iter(run), iter(other)], plain_options, ICMP)
        assert [o.data for o in result.outputs] == [
            o.data for o in oracle.outputs]

    def test_nine_inputs(self, plain_options):
        runs = [make_run(10 + i, 120, 1000 * i + 1, key_space=100_000)
                for i in range(9)]
        engine = CompactionEngine(CONFIG_9_INPUT, plain_options)
        images = [[build_table_image(r, plain_options, ICMP)] for r in runs]
        result = engine.run_on_images(images, drop_deletions=True)
        oracle = compact([iter(r) for r in runs], plain_options, ICMP,
                         drop_deletions=True)
        assert [o.data for o in result.outputs] == [
            o.data for o in oracle.outputs]

    def test_too_many_inputs_rejected(self, plain_options):
        engine = CompactionEngine(CONFIG_2_INPUT, plain_options)
        runs = [make_run(20 + i, 10, 100 * i + 1) for i in range(3)]
        images = [[build_table_image(r, plain_options, ICMP)] for r in runs]
        with pytest.raises(FpgaResourceError):
            engine.run_on_images(images)

    def test_empty_second_input(self, plain_options):
        run = make_run(30, 100, 1, delete_fraction=0)
        engine = CompactionEngine(CONFIG_2_INPUT, plain_options)
        result = engine.run_on_images(
            [[build_table_image(run, plain_options, ICMP)]])
        assert sum(o.stats.num_entries for o in result.outputs) == len(run)


class TestTiming:
    def test_kernel_time_positive_and_scales(self, plain_options):
        engine = CompactionEngine(CONFIG_2_INPUT, plain_options)
        small = make_run(40, 100, 1, delete_fraction=0)
        large = make_run(41, 800, 1, delete_fraction=0)
        r_small = engine.run_on_images(
            [[build_table_image(small, plain_options, ICMP)]])
        r_large = engine.run_on_images(
            [[build_table_image(large, plain_options, ICMP)]])
        assert 0 < r_small.kernel_seconds < r_large.kernel_seconds

    def test_speed_metric_uses_input_bytes(self, plain_options):
        engine = CompactionEngine(CONFIG_2_INPUT, plain_options)
        run = make_run(42, 400, 1, delete_fraction=0)
        result = engine.run_on_images(
            [[build_table_image(run, plain_options, ICMP)]])
        expected = (result.timing.input_bytes
                    / result.kernel_seconds / 1e6)
        assert result.compaction_speed_mbps == pytest.approx(expected)

    def test_meta_out_key_ranges(self, plain_options):
        engine = CompactionEngine(CONFIG_2_INPUT, plain_options)
        run = make_run(43, 500, 1, delete_fraction=0)
        result = engine.run_on_images(
            [[build_table_image(run, plain_options, ICMP)]])
        assert result.outputs[0].smallest == run[0][0]
        assert result.outputs[-1].largest == run[-1][0]


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=0, max_value=10 ** 6),
       st.booleans())
def test_engine_equals_cpu_property(seed, drop_deletions):
    """For random overlapping runs the FPGA output is byte-identical to
    the CPU reference compaction."""
    from repro.lsm.options import Options
    options = Options(block_size=512, sstable_size=4096,
                      compression="none", bloom_bits_per_key=0)
    rng = random.Random(seed)
    runs = [make_run(rng.randrange(10 ** 6), rng.randrange(5, 80),
                     10_000 * (i + 1), key_space=2_000)
            for i in range(rng.randrange(2, 4))]
    engine = CompactionEngine(CONFIG_9_INPUT, options)
    images = [[build_table_image(r, options, ICMP)] for r in runs]
    result = engine.run_on_images(images, drop_deletions=drop_deletions)
    oracle = compact([iter(r) for r in runs], options, ICMP,
                     drop_deletions=drop_deletions)
    assert [o.data for o in result.outputs] == [
        o.data for o in oracle.outputs]
