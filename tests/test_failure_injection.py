"""Failure injection: corrupted files, protocol violations, bad inputs
must surface as typed errors, never as silent wrong answers."""

import pytest

from repro.errors import (
    CorruptionError,
    FpgaProtocolError,
    NotFoundError,
    ReproError,
)
from repro.fpga.config import CONFIG_2_INPUT
from repro.fpga.decoder import SSTableLayout
from repro.fpga.dram import Dram
from repro.fpga.engine import CompactionEngine
from repro.lsm import LsmDB
from repro.lsm.env import MemEnv
from repro.lsm.filenames import table_file_name
from repro.lsm.internal import InternalKeyComparator
from repro.util.comparator import BytewiseComparator

from tests.conftest import build_table_image, make_entries

ICMP = InternalKeyComparator(BytewiseComparator())


def _flip_byte(env, path: str, offset: int) -> None:
    data = bytearray(env.read_file(path))
    data[offset] ^= 0xFF
    handle = env.new_writable_file(path)
    handle.append(bytes(data))
    handle.close()


class TestCorruptedTables:
    def _db_with_table(self, options):
        env = MemEnv()
        db = LsmDB("cdb", options, env=env)
        for i in range(300):
            db.put(f"k{i:010d}".encode(), b"v" * 40)
        db.flush()
        number = db.versions.current.files[0][0].number
        return db, env, table_file_name("cdb", number)

    def test_corrupt_data_block_detected_on_read(self, options):
        db, env, path = self._db_with_table(options)
        db.close()
        _flip_byte(env, path, 100)   # inside the first data block
        # Index and filter still check out, so the reopen succeeds; the
        # damaged block is caught when a get reads it from "disk".
        db = LsmDB("cdb", options, env=env)
        with pytest.raises(ReproError):
            # Either the CRC or the key lookup notices; never a wrong value.
            db.get(b"k0000000005")

    def test_corrupt_footer_detected_at_open(self, options):
        db, env, path = self._db_with_table(options)
        db.close()
        size = env.file_size(path)
        _flip_byte(env, path, size - 2)  # magic number
        with pytest.raises(CorruptionError):
            LsmDB("cdb", options, env=env)

    def test_all_errors_are_repro_errors(self):
        assert issubclass(CorruptionError, ReproError)
        assert issubclass(NotFoundError, ReproError)
        assert issubclass(FpgaProtocolError, ReproError)


class TestCorruptedManifest:
    def test_flipped_manifest_record_ignored(self, options):
        env = MemEnv()
        db = LsmDB("mdb", options, env=env)
        for i in range(200):
            db.put(f"k{i:08d}".encode(), b"x" * 30)
        db.flush()
        db.close()
        manifest = next(n for n in env.list_dir("mdb")
                        if n.startswith("MANIFEST"))
        # Damage the manifest's CRC: recovery must treat it as empty
        # rather than load garbage metadata.
        _flip_byte(env, f"mdb/{manifest}", 20)
        db2 = LsmDB("mdb", options, env=env)
        # The store opens (no crash); flushed data referenced only by the
        # damaged manifest is unreachable — a detected, not silent, loss.
        assert db2.versions.current.total_bytes() == 0


class TestEngineProtocol:
    def test_data_block_outside_region_rejected(self, plain_options):
        entries = make_entries(100)
        image = build_table_image(entries, plain_options, ICMP)
        engine = CompactionEngine(CONFIG_2_INPUT, plain_options)
        dram = Dram(size=1 << 22)
        dram.write(0, image)
        # Lie about the data region size: handles now point past it.
        from repro.host.memory import extract_index_image
        from repro.lsm.sstable import TableReader
        reader = TableReader(image, ICMP, plain_options)
        index = extract_index_image(reader)
        dram.write(len(image) + 64, index)
        bad_layout = SSTableLayout(index_offset=len(image) + 64,
                                   index_size=len(index),
                                   data_offset=0, data_size=128)
        with pytest.raises(FpgaProtocolError):
            engine.run(dram, [[bad_layout]])

    def test_corrupt_block_crc_detected_in_decoder(self, plain_options):
        entries = make_entries(200)
        image = bytearray(build_table_image(entries, plain_options, ICMP))
        image[50] ^= 0xFF
        engine = CompactionEngine(CONFIG_2_INPUT, plain_options)
        with pytest.raises(ReproError):
            engine.run_on_images([[bytes(image)]])


class TestWalTornWrite:
    def test_mid_record_truncation_keeps_prefix(self, options):
        env = MemEnv()
        db = LsmDB("wdb", options, env=env)
        for i in range(20):
            db.put(f"k{i:04d}".encode(), f"v{i}".encode())
        db.close()
        log = next(n for n in env.list_dir("wdb") if n.endswith(".log"))
        data = env.read_file(f"wdb/{log}")
        handle = env.new_writable_file(f"wdb/{log}")
        handle.append(data[:len(data) // 2])
        handle.close()
        db2 = LsmDB("wdb", options, env=env)
        # Some prefix of the writes survives, in order, no corruption.
        survivors = dict(db2.scan())
        count = len(survivors)
        assert 0 < count < 20
        for i in range(count):
            assert survivors[f"k{i:04d}".encode()] == f"v{i}".encode()
