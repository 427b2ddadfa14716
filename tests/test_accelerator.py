"""Accelerator backends: cross-backend byte-identity, bulk-codec
round-trips, cost-model routing and fault-forced failover.

The core contract under test: every backend (streaming CPU merge,
pipeline-sim device, LUDA-style batched merge) produces
**byte-identical** output SSTables for the same inputs, so routing and
fault failover are pure performance decisions that never change the key
space.  Without numpy the batch backend declines and its tasks run on
``cpu`` — same bytes again.
"""

import dataclasses
import functools
import hashlib
import random
import tracemalloc

import pytest

from hypothesis import given, settings, strategies as st

import repro.host.batch_merge as batch_merge
from repro import obs
from repro.errors import InvalidArgumentError
from repro.fpga.config import CONFIG_9_INPUT
from repro.host.accelerator import (
    AcceleratorBackend,
    BackendResult,
    make_backends,
)
from repro.host.batch_merge import BatchMergeEngine
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
from repro.lsm.options import Options
from repro.lsm.sstable import TableBuilder, TableReader
from repro.lsm.version import CompactionSpec, FileMetaData
from repro.obs import Tracer
from repro.obs.events import EventJournal
from repro.obs.registry import MetricsRegistry
from repro.util.comparator import BytewiseComparator

from tests.faulting_backend import FaultingBackend, pinned_registry

ICMP = InternalKeyComparator(BytewiseComparator())

BACKEND_NAMES = ("cpu", "fpga-sim", "batch")


def small_options(**overrides) -> Options:
    base = dict(compression="none", bloom_bits_per_key=0,
                sstable_size=32 * 1024, value_length=64)
    base.update(overrides)
    return Options(**base)


# The ids predate the decline-to-cpu rule; kept so node ids stay stable.
@pytest.fixture(params=[False, True], ids=["numpy", "fallback"])
def no_numpy(request, monkeypatch):
    """Run with numpy as installed (skipped when it is not) and with it
    hidden from the batch engine, which then declines every task."""
    if request.param:
        monkeypatch.setattr(batch_merge, "_np", None)
    elif batch_merge._np is None:
        pytest.skip("numpy not installed; only the decline path exists")
    return request.param


def routed_to(name: str, no_numpy: bool) -> str:
    """Backend a task pinned to ``name`` actually runs on."""
    return "cpu" if name == "batch" and no_numpy else name


def pinned_scheduler(name, options, metrics=None, **schedule):
    """A scheduler whose every task goes to ``name`` when it can run it,
    else to ``cpu``; ``schedule`` makes ``name`` fault (see
    :func:`tests.faulting_backend.pinned_registry`).  Returns the
    scheduler and the faulting wrapper."""
    options = dataclasses.replace(options, accelerator="auto")
    device = FcaeDevice(CONFIG_9_INPUT, options)
    backends, faulting = pinned_registry(device, options, name,
                                         **schedule)
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


def spec_for(images, readers, level=0) -> CompactionSpec:
    files = []
    for number, (image, reader) in enumerate(zip(images, readers)):
        entries = list(reader)
        files.append(FileMetaData(number=number, file_size=len(image),
                                  smallest=entries[0][0],
                                  largest=entries[-1][0]))
    return CompactionSpec(level=level, inputs=files, parents=[])


def output_bytes(outputs) -> list[bytes]:
    return [bytes(table.data) for table in outputs]


class TestCrossBackendEquality:
    """All three backends splice byte-identical output tables."""

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
            scheduler, _ = pinned_scheduler(name, options)
            tables, route = scheduler(spec, readers, [],
                                      drop_deletions=True)
            outputs[name] = output_bytes(tables)
            ran_on = routed_to(name, no_numpy)
            assert route == ran_on
            assert scheduler.stats.backend_tasks[ran_on] == 1
        assert outputs["cpu"] == outputs["fpga-sim"] == outputs["batch"]
        assert outputs["cpu"]  # non-empty

    def test_batch_engine_matches_compact_with_parents(self, no_numpy):
        options = small_options()
        images = overlapping_l0_tables(options, num_tables=2)
        parent = build_table(
            [(encode_internal_key(f"{k:08d}".encode(), 1, TYPE_VALUE),
              b"old" * 8) for k in range(0, 100_000, 500)], options)

        readers = [TableReader(img, ICMP, options) for img in images]
        parent_reader = TableReader(parent, ICMP, options)
        reference = compact(
            table_sources(readers + [parent_reader]), options, ICMP,
            drop_deletions=False)

        readers = [TableReader(img, ICMP, options) for img in images]
        streams = [[r] for r in readers] + [[TableReader(parent, ICMP,
                                                         options)]]
        engine = BatchMergeEngine(options, ICMP)
        if not engine.vectorized:
            # Nothing else to run: the engine says so instead of merging
            # some other way.
            with pytest.raises(InvalidArgumentError, match="numpy"):
                engine.compact(streams, drop_deletions=False)
            return
        got = engine.compact(streams, drop_deletions=False)
        assert output_bytes(got.outputs) == output_bytes(
            reference.outputs)
        assert got.input_pairs == reference.input_pairs
        assert got.dropped_shadowed == reference.dropped_shadowed


@pytest.mark.skipif(batch_merge._np is None,
                    reason="drives the batch engine directly; needs numpy")
class TestBulkCodecRoundTrip:
    """Hypothesis: the batch engine's bulk decode → merge-order → bulk
    re-encode agrees with the streaming merge on arbitrary entry sets."""

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
        got = BatchMergeEngine(options, ICMP).compact(
            [[TableReader(img, ICMP, options)] for img in images],
            drop_deletions=drop)
        assert output_bytes(got.outputs) == output_bytes(
            reference.outputs)


@pytest.mark.skipif(batch_merge._np is None,
                    reason="drives the batch engine directly; needs numpy")
class TestMergeMemory:
    """What one batch merge allocates while it runs, per raw input byte
    (key plus value bytes): the decode buffer, the offset arrays and the
    tables being written, not an object per entry."""

    #: 2.26 now; 3.87 while every key and value was a ``bytes`` object.
    PEAK_PER_INPUT_BYTE = 3.0

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
        streams = [[TableReader(img, ICMP, options)] for img in images]
        engine = BatchMergeEngine(options, ICMP)
        engine.compact(streams, drop_deletions=False)  # imports, helper
        tracemalloc.start()
        try:
            stats = engine.compact(streams, drop_deletions=False)
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
        # No filter: its per-entry keys are a cost of their own.
        options = small_options(sstable_size=8 << 20)
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
    def __init__(self, name, estimate, capable=True):
        self.name = name
        self._estimate = estimate
        self._capable = capable
        self.ran = 0

    def can_run(self, spec):
        return self._capable

    def estimate_seconds(self, spec):
        return self._estimate

    def run(self, spec, input_tables, parent_tables, drop_deletions):
        self.ran += 1
        return BackendResult(outputs=[], input_bytes=0, wall_seconds=0.0)


class TestRouting:
    @staticmethod
    def _scheduler(accelerator, estimates, capable=None):
        options = small_options(accelerator=accelerator)
        device = FcaeDevice(CONFIG_9_INPUT, options)
        capable = capable or {}
        backends = {name: _StubBackend(name, estimate,
                                       capable.get(name, True))
                    for name, estimate in estimates.items()}
        return CompactionScheduler(device, options, backends=backends)

    @staticmethod
    def _spec():
        meta = FileMetaData(
            1, 1000,
            encode_internal_key(b"a", 1, TYPE_VALUE),
            encode_internal_key(b"z", 1, TYPE_VALUE))
        return CompactionSpec(level=0, inputs=[meta], parents=[])

    def test_auto_picks_argmin_cost(self):
        scheduler = self._scheduler("auto", {"cpu": 3.0,
                                             "fpga-sim": 2.0,
                                             "batch": 1.0})
        assert scheduler.pick_backend(self._spec()) == "batch"

    def test_auto_skips_incapable_backend(self):
        scheduler = self._scheduler(
            "auto", {"cpu": 3.0, "fpga-sim": 2.0, "batch": 1.0},
            capable={"batch": False, "fpga-sim": False})
        assert scheduler.pick_backend(self._spec()) == "cpu"

    def test_forced_mode_wins_over_cost(self):
        scheduler = self._scheduler("fpga-sim", {"cpu": 1.0,
                                                 "fpga-sim": 99.0,
                                                 "batch": 1.0})
        assert scheduler.pick_backend(self._spec()) == "fpga-sim"

    @pytest.mark.parametrize("mode", ["cpu", "batch"])
    def test_only_auto_and_fpga_sim_are_modes(self, mode):
        with pytest.raises(InvalidArgumentError, match="accelerator"):
            small_options(accelerator=mode)

    def test_forced_fpga_degrades_to_cpu_when_incapable(self):
        scheduler = self._scheduler(
            "fpga-sim", {"cpu": 1.0, "fpga-sim": 1.0, "batch": 1.0},
            capable={"fpga-sim": False})
        assert scheduler.pick_backend(self._spec()) == "cpu"

    def test_registry_requires_cpu(self):
        options = small_options()
        device = FcaeDevice(CONFIG_9_INPUT, options)
        with pytest.raises(ValueError):
            CompactionScheduler(device, options,
                                backends={"batch": _StubBackend(
                                    "batch", 1.0)})

    @pytest.mark.parametrize("accelerator", ["batch", "auto"])
    def test_without_numpy_batch_declines_to_cpu(self, monkeypatch,
                                                 accelerator):
        """``auto`` over the standard registry, and a registry pinned
        to ``batch``: either way the declined task runs on ``cpu``."""
        monkeypatch.setattr(batch_merge, "_np", None)
        options = small_options(accelerator="auto")
        images = overlapping_l0_tables(options)
        readers = [TableReader(img, ICMP, options) for img in images]
        reference = output_bytes(compact(
            table_sources(readers), options, ICMP,
            drop_deletions=True).outputs)

        if accelerator == "batch":
            scheduler, _ = pinned_scheduler("batch", options)
        else:
            scheduler = CompactionScheduler(
                FcaeDevice(CONFIG_9_INPUT, options), options)
        readers = [TableReader(img, ICMP, options) for img in images]
        spec = spec_for(images, readers)
        assert not scheduler.backends["batch"].can_run(spec)
        tables, route = scheduler(spec, readers, [], drop_deletions=True)
        assert output_bytes(tables) == reference
        assert route == "cpu"
        assert scheduler.stats.backend_tasks == {
            "cpu": 1, "fpga-sim": 0, "batch": 0}
        assert scheduler.stats.fpga_fallbacks == 0


class TestFaultFallback:
    """A fault on any accelerator is retried once, then fails over to
    the CPU merge with byte-identical output, tagged with the source
    backend."""

    @pytest.mark.parametrize("accelerator", ["fpga-sim", "batch"])
    def test_fallback_preserves_bytes_and_tags_backend(
            self, no_numpy, accelerator):
        options = small_options()
        images = overlapping_l0_tables(options)

        # Reference: the plain CPU merge.
        readers = [TableReader(img, ICMP, options) for img in images]
        reference = output_bytes(compact(
            table_sources(readers), options, ICMP,
            drop_deletions=True).outputs)

        scheduler, faulting = pinned_scheduler(accelerator, options,
                                               protocol_error_every=1)
        journal = EventJournal(keep_events=True)
        readers = [TableReader(img, ICMP, options) for img in images]
        spec = spec_for(images, readers)
        with obs.scoped(events=journal):
            tables, route = scheduler(spec, readers, [],
                                      drop_deletions=True)

        assert output_bytes(tables) == reference
        if routed_to(accelerator, no_numpy) == "cpu":
            # Declined before it ran: nothing to fault, nothing to fail
            # over from.
            assert route == "cpu"
            assert scheduler.stats.fpga_fallbacks == 0
            assert faulting.injected_faults == 0
            assert not [e for e in journal.events
                        if e["type"] in ("fault", "retry", "fallback")]
            return
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

    @pytest.mark.parametrize("accelerator", ["fpga-sim", "batch"])
    @pytest.mark.parametrize("kind,schedule", [
        ("protocol", {"protocol_error_every": 1}),
        ("timeout", {"timeout_every": 1}),
        ("dma", {"dma_error_rate": 1.0})], ids=["protocol", "timeout", "dma"])
    def test_each_fault_kind_is_counted(self, accelerator, kind,
                                        schedule):
        """``scheduler_faults_total{kind}`` counts the attempt and its
        retry; the task then falls back with the reference bytes."""
        if accelerator == "batch" and batch_merge._np is None:
            pytest.skip("without numpy the batch backend declines")
        options = small_options()
        images = overlapping_l0_tables(options)
        readers = [TableReader(img, ICMP, options) for img in images]
        reference = output_bytes(compact(
            table_sources(readers), options, ICMP,
            drop_deletions=True).outputs)
        registry = MetricsRegistry()
        scheduler, faulting = pinned_scheduler(accelerator, options,
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
        options = small_options()
        images = overlapping_l0_tables(options)
        scheduler, _ = pinned_scheduler("batch", options)
        readers = [TableReader(img, ICMP, options) for img in images]
        spec = spec_for(images, readers)
        scheduler(spec, readers, [], drop_deletions=True)
        stats = scheduler.stats
        ran_on = routed_to("batch", no_numpy)
        idle = ({"cpu", "batch"} - {ran_on}).pop()
        assert stats.backend_tasks[ran_on] == 1
        assert stats.backend_tasks[idle] == 0
        assert stats.backend_input_bytes[ran_on] == sum(
            len(img) for img in images)
        assert stats.backend_seconds[ran_on] > 0
        # Either way it is an in-process merge: the software side of the
        # paper's fpga/software split.
        assert stats.software_tasks == 1
        assert stats.fpga_tasks == 0

    @pytest.mark.skipif(batch_merge._np is None,
                        reason="without numpy the batch backend declines")
    def test_batch_merge_puts_nothing_on_the_modeled_clock(self):
        """A batch merge is measured wall time, not a modeled interval:
        under a tracer it records no modeled span and leaves the modeled
        cursor where it was; its seconds stay in the backend family."""
        options = small_options()
        images = overlapping_l0_tables(options)
        tracer = Tracer()
        with obs.scoped(tracer=tracer):
            scheduler, _ = pinned_scheduler("batch", options)
        readers = [TableReader(img, ICMP, options) for img in images]
        _, route = scheduler(spec_for(images, readers), readers, [],
                             drop_deletions=True)
        assert route == "batch"
        assert tracer.sim_cursor == 0.0
        assert [s.name for s in tracer.spans if s.track is not None] == []
        assert scheduler.stats.backend_seconds["batch"] > 0

    def test_paper_split_is_a_view_of_the_backend_counters(self):
        """One fpga-sim task, one batch (or, without numpy, cpu) task and
        one fault-forced fallback through one scheduler: the fpga /
        software fields equal sums over the per-backend counters.
        ``auto`` never picks fpga-sim here (its cost model is above
        cpu's), so it runs the in-process merge."""
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
        in_process = run("auto")
        assert in_process in ("batch", "cpu")
        fpga.timeout_every = 1  # the attempt and its retry fault
        assert run("fpga-sim") == "fallback"

        stats = scheduler.stats
        tasks, nbytes = stats.backend_tasks, stats.backend_input_bytes
        assert tasks["fpga-sim"] == 2 and tasks[in_process] == 1
        assert stats.fpga_fallbacks == 1
        assert stats.fpga_tasks == tasks["fpga-sim"]
        assert stats.software_tasks == tasks["cpu"] + tasks["batch"]
        assert stats.fpga_input_bytes == nbytes["fpga-sim"] > 0
        assert stats.software_input_bytes == nbytes["cpu"] + nbytes["batch"]
        # The fallback's bytes ran on cpu, so they count as software.
        assert nbytes["cpu"] > 0
        assert (stats.fpga_tasks + stats.software_tasks
                == sum(tasks.values()))
