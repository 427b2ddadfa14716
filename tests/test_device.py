"""FcaeDevice: offload round-trip, timing breakdown, MetaOut."""

import pytest

from repro.fpga.config import CONFIG_2_INPUT
from repro.host.device import FcaeDevice
from repro.host.pcie import PcieModel
from repro.lsm.internal import InternalKeyComparator
from repro.lsm.sstable import TableReader
from repro.util.comparator import BytewiseComparator

from tests.conftest import build_table_image, make_entries

ICMP = InternalKeyComparator(BytewiseComparator())


@pytest.fixture
def device(plain_options):
    return FcaeDevice(CONFIG_2_INPUT, plain_options)


def reader_for(entries, plain_options):
    return TableReader(build_table_image(entries, plain_options, ICMP),
                       ICMP, plain_options)


class TestCompact:
    def test_outputs_parse_and_cover_inputs(self, device, plain_options):
        newer = make_entries(300, seed=1, seq_base=10_000)
        older = make_entries(400, seed=2, seq_base=1)
        result = device.compact([
            [reader_for(newer, plain_options)],
            [reader_for(older, plain_options)],
        ])
        total = sum(o.stats.num_entries for o in result.outputs)
        # All user keys distinct across seeds is unlikely; just check
        # bounds: survivors <= inputs and >= max single input.
        assert total <= 700
        assert total >= 400
        for output in result.outputs:
            assert list(TableReader(output.data, ICMP, plain_options))

    def test_meta_out_matches_outputs(self, device, plain_options):
        entries = make_entries(200, seed=5)
        result = device.compact([[reader_for(entries, plain_options)]])
        assert len(result.meta_out) == len(result.outputs)
        for meta, output in zip(result.meta_out, result.outputs):
            assert meta.data_size == len(output.data)
            assert meta.smallest_key == output.smallest
            assert meta.largest_key == output.largest

    def test_timing_breakdown_positive(self, device, plain_options):
        entries = make_entries(200, seed=6)
        result = device.compact([[reader_for(entries, plain_options)]])
        assert result.host_marshal_seconds > 0
        assert result.pcie_in_seconds > 0
        assert result.kernel_seconds > 0
        assert result.pcie_out_seconds > 0
        assert result.total_seconds == pytest.approx(
            result.host_marshal_seconds + result.pcie_in_seconds
            + result.kernel_seconds + result.pcie_out_seconds)

    def test_pcie_fraction_small_for_compute_bound_kernel(
            self, device, plain_options):
        entries = make_entries(600, seed=7, value_size=100)
        result = device.compact([[reader_for(entries, plain_options)]])
        assert 0 < result.pcie_fraction < 0.3


class TestPcieModel:
    def test_transfer_time_linear(self):
        pcie = PcieModel(bandwidth=10e9, setup_seconds=10e-6)
        small = pcie.transfer_seconds(1 << 20)
        large = pcie.transfer_seconds(1 << 30)
        assert large > small
        assert large == pytest.approx(10e-6 + (1 << 30) / 10e9)

    def test_zero_bytes_free(self):
        assert PcieModel().transfer_seconds(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            PcieModel().transfer_seconds(-1)
