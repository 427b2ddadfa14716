"""Accelerator backends: cross-backend byte-identity, routing, merge
memory and fault-forced failover.

The core contract under test: both backends (the streaming CPU merge and
the pipeline-sim device) produce **byte-identical** output SSTables for
the same inputs, so routing and fault failover are pure performance
decisions that never change the key space — with numpy, and with the
snappy, CRC32C and bloom kernels on their scalar legs.
"""

import dataclasses
import functools
import hashlib
import importlib
import random
import tracemalloc

import pytest

from hypothesis import given, settings, strategies as st

from repro import obs
from repro.compress import snappy
from repro.errors import InvalidArgumentError
from repro.fpga.config import CONFIG_9_INPUT
from repro.host.accelerator import (
    AcceleratorBackend,
    BackendResult,
    make_backends,
)
from repro.host.device import FcaeDevice
from repro.host.scheduler import CompactionScheduler
from repro.lsm.compaction import (
    _BufferFile,
    build_output_tables,
    compact,
    table_sources,
)
from repro.lsm.internal import (
    InternalKeyComparator,
    TYPE_DELETION,
    TYPE_VALUE,
    encode_internal_key,
)
from repro.lsm import filter as bloom_kernel
from repro.lsm.options import Options
from repro.lsm.sstable import TableBuilder, TableReader
from repro.lsm.version import CompactionSpec, FileMetaData
from repro.obs.events import EventJournal
from repro.obs.registry import MetricsRegistry
from repro.util.comparator import BytewiseComparator

from tests.faulting_backend import FaultingBackend, faulting_registry

ICMP = InternalKeyComparator(BytewiseComparator())
# The package re-exports the function under the module's name.
crc_kernel = importlib.import_module("repro.util.crc32c")

BACKEND_NAMES = ("cpu", "fpga-sim")


def small_options(**overrides) -> Options:
    base = dict(compression="none", bloom_bits_per_key=0,
                sstable_size=32 * 1024, value_length=64)
    base.update(overrides)
    return Options(**base)


# "fallback" names the kernels' scalar fallback legs.
@pytest.fixture(params=[False, True], ids=["numpy", "fallback"])
def no_numpy(request, monkeypatch):
    """Run with numpy as installed (skipped when it is not) and with it
    hidden from the snappy, CRC32C and bloom kernels, which then take
    their scalar legs."""
    if request.param:
        for kernel in (snappy, crc_kernel, bloom_kernel):
            monkeypatch.setattr(kernel, "_np", None)
    elif snappy._np is None:
        pytest.skip("numpy not installed; only the scalar legs exist")
    return request.param


def scheduler_for(name, options, metrics=None, **schedule):
    """A scheduler whose every task goes to backend ``name`` when it can
    run it, else to ``cpu``: ``auto`` for ``cpu``, ``fpga-sim`` mode for
    the device, which ``schedule`` makes fault (see
    :func:`tests.faulting_backend.faulting_registry`).  Returns the
    scheduler and the faulting wrapper."""
    options = dataclasses.replace(
        options, accelerator="auto" if name == "cpu" else "fpga-sim")
    device = FcaeDevice(CONFIG_9_INPUT, options)
    backends, faulting = faulting_registry(device, options, **schedule)
    return CompactionScheduler(device, options, metrics=metrics,
                               backends=backends), faulting


def build_table(entries, options) -> bytes:
    dest = _BufferFile()
    builder = TableBuilder(options, dest, ICMP)
    for key, value in entries:
        builder.add(key, value)
    builder.finish()
    return dest.getvalue()


def overlapping_l0_tables(options, num_tables=3, per_table=120,
                          seed=7) -> list[bytes]:
    """Overlapping runs with shadowed versions and tombstones."""
    rng = random.Random(seed)
    universe = rng.sample(range(100_000), per_table * 2)
    images = []
    sequence = 1
    for _ in range(num_tables):
        picks = sorted(rng.sample(universe, per_table))
        entries = []
        for k in picks:
            kind = TYPE_DELETION if rng.random() < 0.1 else TYPE_VALUE
            value = (b"" if kind == TYPE_DELETION
                     else f"val-{k:08d}".encode().ljust(64, b"."))
            entries.append((encode_internal_key(f"{k:08d}".encode(),
                                                sequence, kind), value))
            sequence += 1
        images.append(build_table(entries, options))
    return images


def file_metas(images, readers, first_number=0) -> list[FileMetaData]:
    files = []
    for number, (image, reader) in enumerate(zip(images, readers),
                                             first_number):
        entries = list(reader)
        files.append(FileMetaData(number=number, file_size=len(image),
                                  smallest=entries[0][0],
                                  largest=entries[-1][0]))
    return files


def spec_for(images, readers, level=0) -> CompactionSpec:
    return CompactionSpec(level=level, inputs=file_metas(images, readers),
                          parents=[])


def output_bytes(outputs) -> list[bytes]:
    return [bytes(table.data) for table in outputs]


class TestCrossBackendEquality:
    """Both backends splice byte-identical output tables."""

    @pytest.mark.parametrize("compression,bloom", [("none", 0),
                                                   ("snappy", 10)])
    def test_backends_byte_identical(self, no_numpy, compression, bloom):
        options = small_options(compression=compression,
                                bloom_bits_per_key=bloom)
        images = overlapping_l0_tables(options)
        outputs = {}
        for name in BACKEND_NAMES:
            readers = [TableReader(img, ICMP, options) for img in images]
            spec = spec_for(images, readers)
            scheduler, _ = scheduler_for(name, options)
            tables, route = scheduler(spec, readers, [],
                                      drop_deletions=True)
            outputs[name] = output_bytes(tables)
            assert route == name
            assert scheduler.stats.backend_tasks[name] == 1
        assert outputs["cpu"] == outputs["fpga-sim"]
        assert outputs["cpu"]  # non-empty

    def test_backends_match_compact_with_parents(self, no_numpy):
        """Two L0 tables over a parent table, tombstones kept: each
        backend writes what the streaming merge over all three writes."""
        options = small_options()
        images = overlapping_l0_tables(options, num_tables=2)
        parent = build_table(
            [(encode_internal_key(f"{k:08d}".encode(), 1, TYPE_VALUE),
              b"old" * 8) for k in range(0, 100_000, 500)], options)

        def readers():
            return ([TableReader(img, ICMP, options) for img in images],
                    [TableReader(parent, ICMP, options)])

        inputs, parents = readers()
        reference = output_bytes(compact(
            table_sources(inputs + parents), options, ICMP,
            drop_deletions=False).outputs)
        for name in BACKEND_NAMES:
            inputs, parents = readers()
            spec = CompactionSpec(
                level=0, inputs=file_metas(images, inputs),
                parents=file_metas([parent], parents, len(images)))
            scheduler, _ = scheduler_for(name, options)
            tables, route = scheduler(spec, inputs, parents,
                                      drop_deletions=False)
            assert route == name
            assert output_bytes(tables) == reference


class TestBulkCodecRoundTrip:
    """Hypothesis: the device's block decode → merge → re-encode agrees
    with the streaming merge on arbitrary entry sets."""

    @staticmethod
    def _entry_lists():
        key = st.binary(min_size=1, max_size=24)
        value = st.binary(min_size=0, max_size=80)
        return st.lists(st.tuples(key, value,
                                  st.sampled_from([TYPE_VALUE,
                                                   TYPE_DELETION])),
                        min_size=1, max_size=60)

    @settings(max_examples=30, deadline=None)
    @given(raw_a=_entry_lists.__func__(), raw_b=_entry_lists.__func__(),
           drop=st.booleans())
    def test_two_stream_merge_round_trip(self, raw_a, raw_b, drop):
        options = small_options()
        sequence = 1
        images = []
        for raw in (raw_a, raw_b):
            entries = []
            for user_key, value, kind in sorted(raw,
                                                key=lambda e: e[0]):
                entries.append((encode_internal_key(user_key, sequence,
                                                    kind),
                                b"" if kind == TYPE_DELETION else value))
                sequence += 1
            # Internal keys with equal user keys sort by descending
            # sequence; builders require strictly ascending adds.
            entries.sort(key=functools.cmp_to_key(
                lambda a, b: ICMP.compare(a[0], b[0])))
            images.append(build_table(entries, options))

        reference = compact(
            table_sources([TableReader(img, ICMP, options)
                           for img in images]),
            options, ICMP, drop_deletions=drop)
        readers = [TableReader(img, ICMP, options) for img in images]
        device = FcaeDevice(CONFIG_9_INPUT, options)
        backend = make_backends(device, options, ICMP,
                                device.cpu_model)["fpga-sim"]
        got = backend.run(spec_for(images, readers), readers, [],
                          drop_deletions=drop)
        assert output_bytes(got.outputs) == output_bytes(
            reference.outputs)


class TestMergeMemory:
    """What one cpu merge allocates while it runs, per raw input byte
    (key plus value bytes): the merge heap streams its inputs, so the
    peak is the tables being written, not an object per entry."""

    #: 1.79 now (2.26 for the retired numpy batch merge).
    PEAK_PER_INPUT_BYTE = 2.2

    @staticmethod
    def _value(key: bytes, version: int) -> bytes:
        """The e2e benchmark's 128 B value: an 8 B version, 60 B of hash
        output and 60 B of one byte (snappy keeps about half)."""
        head = version.to_bytes(8, "big")
        return (head + hashlib.shake_128(head + key).digest(60)
                + bytes([version]) * 60)

    def test_peak_per_input_byte(self):
        options = Options()
        rng = random.Random(5)
        images, sequence = [], 1
        for _ in range(2):
            entries = []
            for k in sorted(rng.sample(range(1_000_000), 6000)):
                key = b"%016d" % k
                entries.append((
                    encode_internal_key(key, sequence, TYPE_VALUE),
                    self._value(key, rng.choice((1, 1, 2, 3)))))
                sequence += 1
            images.append(build_table(entries, options))
        readers = [TableReader(img, ICMP, options) for img in images]

        def merge():
            return compact(table_sources(readers), options, ICMP,
                           drop_deletions=False)

        merge()  # imports, helper
        tracemalloc.start()
        try:
            stats = merge()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert stats.input_pairs == 12_000
        assert stats.input_bytes == 12_000 * (24 + 128)
        assert peak / stats.input_bytes <= self.PEAK_PER_INPUT_BYTE


class TestTableBuildMemory:
    """A finished table image is handed over, not copied: building one
    table of about 1 MiB peaks at its image plus the buffer's slack."""

    #: 1.21 now; 2.09 while the image was copied out of a bytearray.
    PEAK_PER_IMAGE_BYTE = 1.4

    def test_one_table_build_peaks_near_its_image(self):
        # No filter here: the bloom case below holds its hashes too.
        self._assert_build_peak(small_options(sstable_size=8 << 20))

    def test_a_bloom_filtered_build_peaks_near_its_image(self):
        """The builder hashes filter keys a batch at a time into 4 bytes
        each: 2.32 while it kept one key per entry until the table
        ended."""
        self._assert_build_peak(small_options(sstable_size=8 << 20,
                                              bloom_bits_per_key=10))

    def _assert_build_peak(self, options):
        rng = random.Random(3)
        entries = [(encode_internal_key(b"%016d" % k, 1, TYPE_VALUE),
                    rng.randbytes(128))
                   for k in sorted(rng.sample(range(10 ** 9), 6500))]
        build_output_tables(iter(entries[:100]), options, ICMP)  # imports
        tracemalloc.start()
        try:
            [table] = build_output_tables(iter(entries), options, ICMP)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(table.data) > 900_000
        assert peak / len(table.data) < self.PEAK_PER_IMAGE_BYTE


class _StubBackend(AcceleratorBackend):
    def __init__(self, name, capable=True):
        self.name = name
        self._capable = capable

    def can_run(self, spec):
        return self._capable

    def run(self, spec, input_tables, parent_tables, drop_deletions):
        return BackendResult(outputs=[], input_bytes=0, wall_seconds=0.0)


class TestRouting:
    @staticmethod
    def _scheduler(accelerator, capable=None):
        options = small_options(accelerator=accelerator)
        device = FcaeDevice(CONFIG_9_INPUT, options)
        capable = capable or {}
        backends = {name: _StubBackend(name, capable.get(name, True))
                    for name in BACKEND_NAMES}
        return CompactionScheduler(device, options, backends=backends)

    @staticmethod
    def _spec():
        meta = FileMetaData(
            1, 1000,
            encode_internal_key(b"a", 1, TYPE_VALUE),
            encode_internal_key(b"z", 1, TYPE_VALUE))
        return CompactionSpec(level=0, inputs=[meta], parents=[])

    def test_auto_picks_argmin_cost(self):
        """With one in-process merge there is no cost to weigh: ``auto``
        picks ``cpu`` over a registry whose every backend can run the
        task, the device included."""
        scheduler = self._scheduler("auto")
        assert scheduler.backends["fpga-sim"].can_run(self._spec())
        assert scheduler.pick_backend(self._spec()) == "cpu"

    def test_forced_mode_wins_over_cost(self):
        """``fpga-sim`` mode offloads what fits, though in-process the
        device costs more wall time than ``cpu`` (Fig 6's branch)."""
        scheduler = self._scheduler("fpga-sim")
        assert scheduler.pick_backend(self._spec()) == "fpga-sim"

    @pytest.mark.parametrize("mode", ["cpu", "batch"])
    def test_only_auto_and_fpga_sim_are_modes(self, mode):
        with pytest.raises(InvalidArgumentError, match="accelerator"):
            small_options(accelerator=mode)

    def test_forced_fpga_degrades_to_cpu_when_incapable(self):
        scheduler = self._scheduler("fpga-sim", capable={"fpga-sim": False})
        assert scheduler.pick_backend(self._spec()) == "cpu"

    def test_registry_requires_cpu(self):
        options = small_options()
        device = FcaeDevice(CONFIG_9_INPUT, options)
        with pytest.raises(ValueError):
            CompactionScheduler(device, options,
                                backends={"fpga-sim": _StubBackend(
                                    "fpga-sim")})


class TestFaultFallback:
    """A device fault is retried once, then fails over to the CPU merge
    with byte-identical output, tagged with the source backend."""

    # One accelerator; the parameter keeps the node ids.
    @pytest.mark.parametrize("accelerator", ["fpga-sim"])
    def test_fallback_preserves_bytes_and_tags_backend(
            self, no_numpy, accelerator):
        options = small_options()
        images = overlapping_l0_tables(options)

        # Reference: the plain CPU merge.
        readers = [TableReader(img, ICMP, options) for img in images]
        reference = output_bytes(compact(
            table_sources(readers), options, ICMP,
            drop_deletions=True).outputs)

        scheduler, faulting = scheduler_for(accelerator, options,
                                            protocol_error_every=1)
        journal = EventJournal(keep_events=True)
        readers = [TableReader(img, ICMP, options) for img in images]
        spec = spec_for(images, readers)
        with obs.scoped(events=journal):
            tables, route = scheduler(spec, readers, [],
                                      drop_deletions=True)

        assert output_bytes(tables) == reference
        assert route == "fallback"
        assert scheduler.stats.fpga_fallbacks == 1
        assert scheduler.stats.fpga_retries == 1
        assert faulting.faults_by_kind["protocol"] == 2

        fallbacks = [e for e in journal.events
                     if e["type"] == "fallback"]
        assert len(fallbacks) == 1
        assert fallbacks[0]["source"] == accelerator
        assert fallbacks[0]["target"] == "cpu"
        faults = [e for e in journal.events if e["type"] == "fault"]
        assert {e["backend"] for e in faults} == {accelerator}
        retries = [e for e in journal.events if e["type"] == "retry"]
        assert [e["backend"] for e in retries] == [accelerator]

    # One accelerator; the parameter keeps the node ids.
    @pytest.mark.parametrize("accelerator", ["fpga-sim"])
    @pytest.mark.parametrize("kind,schedule", [
        ("protocol", {"protocol_error_every": 1}),
        ("timeout", {"timeout_every": 1}),
        ("dma", {"dma_error_rate": 1.0})], ids=["protocol", "timeout", "dma"])
    def test_each_fault_kind_is_counted(self, accelerator, kind,
                                        schedule):
        """``scheduler_faults_total{kind}`` counts the attempt and its
        retry; the task then falls back with the reference bytes."""
        options = small_options()
        images = overlapping_l0_tables(options)
        readers = [TableReader(img, ICMP, options) for img in images]
        reference = output_bytes(compact(
            table_sources(readers), options, ICMP,
            drop_deletions=True).outputs)
        registry = MetricsRegistry()
        scheduler, faulting = scheduler_for(accelerator, options,
                                            metrics=registry, **schedule)
        readers = [TableReader(img, ICMP, options) for img in images]
        tables, route = scheduler(spec_for(images, readers), readers, [],
                                  drop_deletions=True)
        assert (route, output_bytes(tables)) == ("fallback", reference)
        assert faulting.faults_by_kind[kind] == 2
        [family] = [f for f in registry.collect()
                    if f.name == "scheduler_faults_total"]
        faults = {dict(child.labels)["kind"]: child.value
                  for child in family.children.values()}
        assert faults == {**dict.fromkeys(faults, 0), kind: 2}
        assert scheduler.stats.fpga_retries == 1
        assert scheduler.stats.fpga_fallbacks == 1

    def test_fault_free_batch_route_counts(self, no_numpy):
        """A fault-free ``auto`` task the device could take runs on
        ``cpu``, with numpy or without; the backend counters read 0 for
        every backend that did not run, ``batch`` included."""
        options = small_options(accelerator="auto")
        images = overlapping_l0_tables(options)
        scheduler = CompactionScheduler(FcaeDevice(CONFIG_9_INPUT, options),
                                        options)
        readers = [TableReader(img, ICMP, options) for img in images]
        spec = spec_for(images, readers)
        assert scheduler.backends["fpga-sim"].can_run(spec)
        _, route = scheduler(spec, readers, [], drop_deletions=True)
        assert route == "cpu"
        stats = scheduler.stats
        assert stats.backend_tasks == {"cpu": 1, "fpga-sim": 0}
        assert stats.backend_tasks["batch"] == 0
        assert stats.backend_input_bytes["cpu"] == sum(map(len, images))
        assert stats.backend_seconds["cpu"] > 0
        # The paper's fpga/software split: an in-process merge is
        # software.
        assert (stats.software_tasks, stats.fpga_tasks) == (1, 0)

    def test_paper_split_is_a_view_of_the_backend_counters(self):
        """One fpga-sim task, one cpu task (``auto``) and one
        fault-forced fallback through one scheduler: the fpga /
        software fields equal the per-backend counters."""
        options = small_options()
        images = overlapping_l0_tables(options)
        device = FcaeDevice(CONFIG_9_INPUT, options)
        backends = make_backends(device, options, ICMP, device.cpu_model)
        fpga = backends["fpga-sim"] = FaultingBackend(backends["fpga-sim"])
        scheduler = CompactionScheduler(device, options, backends=backends)

        def run(accelerator):
            scheduler.options = dataclasses.replace(
                options, accelerator=accelerator)
            readers = [TableReader(img, ICMP, options) for img in images]
            _, route = scheduler(spec_for(images, readers), readers, [],
                                 drop_deletions=True)
            return route

        assert run("fpga-sim") == "fpga-sim"
        assert run("auto") == "cpu"
        fpga.timeout_every = 1  # the attempt and its retry fault
        assert run("fpga-sim") == "fallback"

        stats = scheduler.stats
        tasks, nbytes = stats.backend_tasks, stats.backend_input_bytes
        assert tasks == {"fpga-sim": 2, "cpu": 1}
        assert stats.fpga_fallbacks == 1
        assert stats.fpga_tasks == tasks["fpga-sim"]
        assert stats.software_tasks == tasks["cpu"]
        assert stats.fpga_input_bytes == nbytes["fpga-sim"] > 0
        assert stats.software_input_bytes == nbytes["cpu"]
        # The fallback's bytes ran on cpu, so they count as software.
        assert nbytes["cpu"] > sum(map(len, images))
        assert (stats.fpga_tasks + stats.software_tasks
                == sum(tasks.values()))
