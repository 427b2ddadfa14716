"""Device DRAM model: bounds, sparse regions, traffic accounting."""

import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import FpgaProtocolError
from repro.fpga.config import CONFIG_9_INPUT
from repro.fpga.dram import Dram, DramStats
from repro.fpga.engine import CompactionEngine
from repro.host import device as device_module
from repro.host.device import FcaeDevice
from repro.host.memory import align_up, marshal_inputs, write_outputs
from repro.lsm.internal import InternalKeyComparator
from repro.lsm.options import Options
from repro.lsm.sstable import TableReader
from repro.util.comparator import BytewiseComparator

from tests.conftest import build_table_image, make_entries

ICMP = InternalKeyComparator(BytewiseComparator())


class TestAccess:
    def test_write_read_roundtrip(self):
        dram = Dram(size=1024)
        dram.write(100, b"hello")
        assert dram.read(100, 5) == b"hello"

    def test_unwritten_reads_zero(self):
        dram = Dram(size=1024)
        assert dram.read(0, 4) == b"\x00\x00\x00\x00"

    def test_sparse_overlapping_read(self):
        dram = Dram(size=1 << 20)
        dram.write(10, b"aaaa")
        dram.write(20, b"bbbb")
        data = dram.read(8, 20)
        assert data[2:6] == b"aaaa"
        assert data[12:16] == b"bbbb"

    def test_out_of_bounds_write(self):
        dram = Dram(size=16)
        with pytest.raises(FpgaProtocolError):
            dram.write(10, b"toolongdata")

    def test_out_of_bounds_read(self):
        dram = Dram(size=16)
        with pytest.raises(FpgaProtocolError):
            dram.read(10, 10)

    def test_negative_offset(self):
        dram = Dram(size=16)
        with pytest.raises(FpgaProtocolError):
            dram.read(-1, 2)


class TestStats:
    def test_traffic_counted(self):
        dram = Dram(size=1024)
        dram.write(0, b"12345678")
        dram.read(0, 4)
        dram.read(4, 4)
        assert dram.stats.write_requests == 1
        assert dram.stats.write_bytes == 8
        assert dram.stats.read_requests == 2
        assert dram.stats.read_bytes == 8

    def test_reset(self):
        dram = Dram(size=64)
        dram.write(0, b"x")
        dram.reset_stats()
        assert dram.stats.write_requests == 0


class TestLastWriterWins:
    def test_rewrite_at_an_offset_is_the_newest_region(self):
        dram = Dram(size=1024)
        dram.write(0, b"A" * 100)
        dram.write(50, b"B" * 100)
        dram.write(0, b"C" * 100)
        assert dram.read(40, 20) == b"C" * 20

    @settings(deadline=None)
    @given(st.lists(st.tuples(
               # Few distinct offsets, so rewrites and overlaps are common.
               st.integers(0, 15).map(lambda i: i * 16),
               st.binary(max_size=64), st.booleans()),
               max_size=12),
           st.lists(st.tuples(st.integers(0, 320), st.integers(0, 64)),
                    min_size=1, max_size=8))
    def test_sparse_reads_as_flat(self, writes, reads):
        sparse, flat = Dram(size=320), bytearray(320)
        for offset, data, mutable in writes:
            sparse.write(offset, bytearray(data) if mutable else data)
            flat[offset:offset + len(data)] = data
        read_bytes = 0
        for offset, length in reads:
            length = min(length, 320 - offset)
            assert sparse.read(offset, length) == flat[offset:offset + length]
            read_bytes += length
        assert sparse.stats == DramStats(
            read_requests=len(reads), read_bytes=read_bytes,
            write_requests=len(writes),
            write_bytes=sum(len(data) for _, data, _ in writes))


class TestDmaByReference:
    """A host image written to sparse DRAM is kept, not copied: reading
    a whole region back returns the very object written."""

    @staticmethod
    def _runs(options, pairs):
        runs = []
        for seed in (1, 2):
            entries = [(key, (value * 64)[:2048])
                       for key, value in make_entries(pairs, seed=seed)]
            runs.append([TableReader(build_table_image(
                entries, options, ICMP), ICMP, options)])
        return runs

    def test_inputs_and_outputs_are_the_host_images(self, plain_options):
        inputs = self._runs(plain_options, 40)
        dram = Dram()
        image = marshal_inputs(dram, CONFIG_9_INPUT, inputs)
        for tables, layouts in zip(inputs, image.layouts):
            for reader, layout in zip(tables, layouts):
                assert dram.read(layout.data_offset,
                                 layout.data_size) is reader.image
        outputs = CompactionEngine(CONFIG_9_INPUT, plain_options).run(
            dram, image.layouts).outputs
        base = dram.size // 2
        write_outputs(dram, CONFIG_9_INPUT, outputs, base)
        cursor = align_up(base, CONFIG_9_INPUT.w_out)
        for output in outputs:
            cursor = align_up(cursor, CONFIG_9_INPUT.w_out)
            assert dram.read(cursor, len(output.data)) is output.data
            cursor += len(output.data)

    def test_a_mutable_buffer_is_frozen_at_write(self):
        dram = Dram(size=1024)
        buffer = bytearray(b"before")
        dram.write(8, buffer)
        buffer[:] = b"after!"
        assert dram.read(8, 6) == b"before"

    def test_a_device_compaction_does_not_copy_its_images(self):
        options = Options(value_length=2048, compression="none")
        inputs = self._runs(options, 1000)
        device = FcaeDevice(CONFIG_9_INPUT, options)
        tracemalloc.start()
        try:
            result = device.compact(inputs)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        out_bytes = sum(len(output.data) for output in result.outputs)
        assert out_bytes > 4_000_000
        assert peak <= 1.75 * out_bytes

    def test_device_traffic_is_unchanged(self, plain_options, monkeypatch):
        drams = []

        class Recorded(Dram):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                drams.append(self)

        monkeypatch.setattr(device_module, "Dram", Recorded)
        device = FcaeDevice(CONFIG_9_INPUT, plain_options)
        device.compact(self._runs(plain_options, 300))
        # The counts a copying DRAM model charged for this compaction.
        assert drams[0].stats == DramStats(
            read_requests=602, read_bytes=1273298,
            write_requests=156, write_bytes=2583423)
