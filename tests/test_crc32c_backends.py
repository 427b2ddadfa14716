"""Block checksums through each registered compaction backend: none has a
CRC path of its own, so its output and its corruption check are the
reader's and the builder's."""

import pytest

from repro.errors import CorruptionError
from repro.fpga.config import CONFIG_9_INPUT
from repro.host.accelerator import make_backends
from repro.host.device import FcaeDevice
from repro.lsm.compaction import compact, table_sources
from repro.lsm.internal import InternalKeyComparator
from repro.lsm.options import Options
from repro.lsm.sstable import TableReader
from repro.lsm.version import CompactionSpec, FileMetaData
from repro.util.comparator import BytewiseComparator
from tests.conftest import build_table_image, make_entries

ICMP = InternalKeyComparator(BytewiseComparator())

BACKENDS = ("cpu", "fpga-sim")


def overlapping_tables(options: Options, tables: int = 3) -> list[bytes]:
    """Runs over one small key space, newer runs shadowing older ones,
    every seventh entry a tombstone."""
    return [build_table_image(
        make_entries(150, seed=run, seq_base=1 + 1000 * run, value_size=120,
                     delete_every=7, key_space=400), options, ICMP)
        for run in range(tables)]


def run_backend(name: str, options: Options, images: list[bytes],
                readers: list, drop_deletions: bool):
    """The registry's ``name`` backend over ``readers`` as one L0 task."""
    device = FcaeDevice(CONFIG_9_INPUT, options)
    backend = make_backends(device, options, ICMP, device.cpu_model)[name]
    files = [FileMetaData(number, len(image), b"", b"")
             for number, image in enumerate(images)]
    spec = CompactionSpec(level=0, inputs=files, parents=[])
    assert backend.can_run(spec)
    return backend.run(spec, readers, [], drop_deletions).outputs


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize("compression", ["none", "snappy"])
def test_output_equals_compact_with_paranoid_checks(compression, backend):
    options = Options(compression=compression, block_size=1024,
                      sstable_size=2 * 1024)
    images = overlapping_tables(options)
    readers = [TableReader(image, ICMP, options) for image in images]
    expected = compact(table_sources(readers), options, ICMP,
                       drop_deletions=True)
    readers = [TableReader(image, ICMP, options) for image in images]
    outputs = run_backend(backend, options, images, readers,
                          drop_deletions=True)
    assert len(expected.outputs) > 1
    assert ([bytes(t.data) for t in outputs]
            == [bytes(t.data) for t in expected.outputs])
    # Every checksum the backend wrote verifies on a paranoid read.
    for table in outputs:
        assert sum(1 for _ in TableReader(table.data, ICMP, options)) > 0


@pytest.mark.parametrize("backend", BACKENDS)
def test_flipped_bit_in_an_input_block_raises(backend):
    options = Options(compression="none")
    images = overlapping_tables(options, tables=2)
    readers = [TableReader(image, ICMP, options) for image in images]
    _, first_block = readers[1].index_entries()[0]
    damaged = bytearray(images[1])
    damaged[first_block.offset + first_block.size // 2] ^= 0x04
    # Index, filter and footer are intact: the table still opens.
    readers[1] = TableReader(bytes(damaged), ICMP, options)
    with pytest.raises(CorruptionError, match="block checksum mismatch"):
        run_backend(backend, options, images, readers,
                    drop_deletions=False)
