"""Model-based test: LsmDB must behave exactly like a dict under any
interleaving of puts, deletes, gets, scans, flushes, compactions and
reopens — with either the CPU or the FPGA compaction executor — and a
scan left suspended across any of them still yields the snapshot it
started from, as does a snapshot held across them.  Tables of one block
make every merge under a held snapshot cut its output."""

import pytest
from hypothesis import settings
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)
from hypothesis import strategies as st

from repro.errors import NotFoundError
from repro.fpga.config import CONFIG_9_INPUT
from repro.host import CompactionScheduler, FcaeDevice
from repro.lsm import LsmDB, Options
from repro.lsm.env import MemEnv

#: A few hot keys among arbitrary ones, so that a held snapshot pins
#: older versions of keys that are rewritten after it.
KEYS = st.sampled_from([b"hot%d" % i for i in range(3)]) | st.binary(
    min_size=1, max_size=24)
VALUES = st.binary(max_size=120)


def _options():
    return Options(write_buffer_size=1024, sstable_size=64,
                   max_level0_size=16 * 1024, block_size=64,
                   compression="snappy", bloom_bits_per_key=8,
                   block_cache_capacity=16 * 1024)


class DbMachine(RuleBasedStateMachine):
    use_fpga = False

    @initialize()
    def open_db(self):
        self.options = _options()
        self.env = MemEnv()
        self.model: dict[bytes, bytes] = {}
        self.iterator = None
        self._open()

    def _executor(self):
        if not self.use_fpga:
            return None
        device = FcaeDevice(CONFIG_9_INPUT, self.options)
        return CompactionScheduler(device, self.options)

    def _open(self):
        self.db = LsmDB("mbdb", self.options, env=self.env,
                        compaction_executor=self._executor())
        #: Live snapshots with the model each must keep seeing; one is
        #: taken at open so that merges start out under a snapshot.
        self.snaps: list = []
        self.hold_snapshot()

    @rule(key=KEYS, value=VALUES)
    def put(self, key, value):
        self.db.put(key, value)
        self.model[key] = value

    @rule(key=KEYS)
    def delete(self, key):
        self.db.delete(key)
        self.model.pop(key, None)

    @rule(key=KEYS)
    def get(self, key):
        if key in self.model:
            assert self.db.get(key) == self.model[key]
        else:
            with pytest.raises(NotFoundError):
                self.db.get(key)

    @rule()
    def flush(self):
        self.db.flush()

    @rule()
    def compact(self):
        self.db.compact_range()

    @rule()
    def compact_level0(self):
        """Flush, then merge level 0 into level 1 however few files it
        holds."""
        self.db.flush()
        self.db.compact_once(level_hint=0)

    @rule()
    def reopen(self):
        self._release_all()
        self.db.close()
        self._open()

    @precondition(lambda self: self.iterator is None and self.model)
    @rule()
    def open_iterator(self):
        """Start a scan and leave it suspended: whatever the later rules
        flush, compact away (deleting the files it reads) or reopen, it
        must go on to yield the snapshot it started from."""
        self.iterator = self.db.scan()
        self.snapshot = sorted(self.model.items())
        assert next(self.iterator) == self.snapshot[0]

    @precondition(lambda self: self.iterator is not None)
    @rule()
    def drain_iterator(self):
        assert list(self.iterator) == self.snapshot[1:]
        self.iterator = None

    @rule()
    def hold_snapshot(self):
        self.snaps.append((self.db.snapshot(), dict(self.model)))

    @precondition(lambda self: self.snaps)
    @rule(pick=st.integers(min_value=0))
    def release_snapshot(self, pick):
        snap, _ = self.snaps.pop(pick % len(self.snaps))
        snap.close()

    def _release_all(self):
        for snap, _ in self.snaps:
            snap.close()

    @invariant()
    def scan_matches_model(self):
        assert dict(self.db.scan()) == self.model
        for snap, then in self.snaps:
            assert dict(self.db.scan(snapshot=snap)) == then

    def teardown(self):
        if self.iterator is not None:
            self.drain_iterator()
        self._release_all()
        self.db.close()


class CpuDbMachine(DbMachine):
    use_fpga = False


class FpgaDbMachine(DbMachine):
    use_fpga = True


TestCpuDbModel = pytest.mark.filterwarnings("ignore")(
    settings(max_examples=25, stateful_step_count=30,
             deadline=None)(CpuDbMachine).TestCase)

TestFpgaDbModel = pytest.mark.filterwarnings("ignore")(
    settings(max_examples=10, stateful_step_count=25,
             deadline=None)(FpgaDbMachine).TestCase)
