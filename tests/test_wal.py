"""WAL record format: fragmentation, padding, recovery semantics."""

import pytest

from repro.errors import CorruptionError
from repro.lsm.env import MemEnv
from repro.lsm.wal import BLOCK_SIZE, HEADER_SIZE, LogReader, LogWriter


def write_records(records):
    env = MemEnv()
    dest = env.new_writable_file("log")
    writer = LogWriter(dest)
    for record in records:
        writer.add_record(record)
    return env.read_file("log")


class TestRoundtrip:
    def test_single_record(self):
        data = write_records([b"hello"])
        assert list(LogReader(data)) == [b"hello"]

    def test_empty_record(self):
        data = write_records([b""])
        assert list(LogReader(data)) == [b""]

    def test_many_records(self):
        records = [f"record-{i}".encode() * (i + 1) for i in range(50)]
        data = write_records(records)
        assert list(LogReader(data)) == records

    def test_record_spanning_blocks(self):
        big = b"x" * (BLOCK_SIZE * 2 + 12345)
        data = write_records([b"before", big, b"after"])
        assert list(LogReader(data)) == [b"before", big, b"after"]

    def test_record_exactly_filling_block(self):
        payload = b"y" * (BLOCK_SIZE - HEADER_SIZE)
        data = write_records([payload, b"next"])
        assert list(LogReader(data)) == [payload, b"next"]

    def test_block_tail_padding(self):
        # Leave < HEADER_SIZE room at a block end; writer must pad.
        first = b"z" * (BLOCK_SIZE - HEADER_SIZE - 3)
        data = write_records([first, b"second"])
        assert list(LogReader(data)) == [first, b"second"]


class TestRecovery:
    def test_truncated_tail_is_clean_eof(self):
        data = write_records([b"good", b"partial"])
        truncated = data[:-3]
        assert list(LogReader(truncated)) == [b"good"]

    def test_corrupt_crc_stops_replay(self):
        data = bytearray(write_records([b"first", b"second"]))
        # Flip a payload byte of the second record.
        data[-1] ^= 0xFF
        assert list(LogReader(bytes(data))) == [b"first"]

    def test_corrupt_crc_strict_raises(self):
        data = bytearray(write_records([b"only"]))
        data[-1] ^= 0xFF
        with pytest.raises(CorruptionError):
            list(LogReader(bytes(data), strict=True))

    def test_zeroed_region_is_eof(self):
        data = write_records([b"rec"]) + b"\x00" * 64
        assert list(LogReader(data)) == [b"rec"]

    def test_empty_log(self):
        assert list(LogReader(b"")) == []

    def test_unknown_record_type_strict(self):
        from repro.util.coding import encode_fixed32
        from repro.util.crc32c import crc32c, mask_crc
        payload = b"zz"
        bad_type = 9
        crc = mask_crc(crc32c(bytes([bad_type]) + payload))
        frame = (encode_fixed32(crc) + len(payload).to_bytes(2, "little")
                 + bytes([bad_type]) + payload)
        with pytest.raises(CorruptionError):
            list(LogReader(frame, strict=True))


class TestAppendSeeding:
    """Regression: a LogWriter opened on a non-empty log assumed it was
    at a block boundary (``_block_offset = 0``), so records appended
    near a real block tail produced misaligned fragments that replay
    dropped or mis-framed."""

    @pytest.mark.parametrize(
        "first_len",
        [1, 100, BLOCK_SIZE - HEADER_SIZE - 3, BLOCK_SIZE - HEADER_SIZE,
         BLOCK_SIZE, BLOCK_SIZE * 2 + 7],
    )
    def test_append_to_existing_log_replays_all(self, first_len):
        env = MemEnv()
        dest = env.new_writable_file("log")
        first = b"a" * first_len
        LogWriter(dest).add_record(first)
        dest.close()

        dest = env.new_appendable_file("log")
        writer = LogWriter(dest)
        appended = [b"b" * 10, b"c" * (BLOCK_SIZE + 5), b"d"]
        for record in appended:
            writer.add_record(record)
        dest.close()

        assert list(LogReader(env.read_file("log"))) == [first] + appended

    def test_block_offset_seeded_from_dest_size(self):
        env = MemEnv()
        dest = env.new_writable_file("log")
        dest.append(b"x" * (BLOCK_SIZE + 123))
        writer = LogWriter(dest)
        assert writer._block_offset == 123


class TestBatchedWrites:
    def test_interleaved_sizes(self):
        records = [bytes([i % 256]) * (i * 97 % 5000) for i in range(1, 80)]
        data = write_records(records)
        assert list(LogReader(data)) == records
