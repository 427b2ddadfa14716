"""Searches by native sort key: blocks and tables against linear
references, under the bytewise and internal-key orders."""

from __future__ import annotations

import functools
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CorruptionError
from repro.lsm import LsmDB
from repro.lsm.block import Block, BlockBuilder
from repro.lsm.env import MemEnv
from repro.lsm.internal import (
    InternalKeyComparator,
    MARK_FIELDS_SIZE,
    MAX_SEQUENCE,
    TYPE_DELETION,
    TYPE_VALUE,
    encode_internal_key,
    make_lookup_key,
)
from repro.lsm.options import Options
from repro.lsm.sstable import TableReader
from repro.util.coding import encode_fixed32
from repro.util.comparator import BytewiseComparator
from repro.util.crc32c import crc32c, mask_crc
from tests.conftest import build_table_image

BYTEWISE = BytewiseComparator()
ICMP = InternalKeyComparator(BYTEWISE)

#: Few distinct bytes, so keys share prefixes, are proper prefixes of one
#: another and carry ``\x00`` / ``\xff`` anywhere.
USER_KEYS = st.lists(st.sampled_from([0x00, 0x01, 0x61, 0xFE, 0xFF]),
                     max_size=5).map(bytes)
#: Few sequences, so one user key appears at several of them.
SEQUENCES = [0, 1, 2, 255, 256, MAX_SEQUENCE]
INTERNAL_KEYS = st.builds(encode_internal_key, USER_KEYS,
                          st.sampled_from(SEQUENCES),
                          st.sampled_from([TYPE_VALUE, TYPE_DELETION]))


@st.composite
def orders(draw):
    """``(comparator, key strategy)``: the bytewise order over user
    keys, or the internal-key order over internal keys."""
    if draw(st.booleans()):
        return BYTEWISE, USER_KEYS
    return ICMP, INTERNAL_KEYS


def sorted_by(comparator, keys):
    return sorted(keys, key=functools.cmp_to_key(comparator.compare))


def suffix_from(comparator, entries, target):
    """Linear reference: the entries whose key is >= ``target``."""
    return [(k, v) for k, v in entries if comparator.compare(k, target) >= 0]


class TestComparatorSortKey:
    @settings(max_examples=100, deadline=None)
    @given(orders(), st.data())
    def test_native_order_is_compare(self, order, data):
        comparator, keys = order
        a, b = data.draw(keys), data.draw(keys)
        order = comparator.compare(a, b)
        key_a, key_b = comparator.sort_key(a), comparator.sort_key(b)
        assert (key_a < key_b) == (order < 0)
        assert (key_a == key_b) == (order == 0)
        assert (key_a > key_b) == (order > 0)

    def test_bytewise_sort_key_is_the_key(self):
        assert BYTEWISE.sort_key(b"\x00\xff") == b"\x00\xff"


class TestBlockSearch:
    @settings(max_examples=100, deadline=None)
    @given(orders(), st.data(), st.sampled_from([1, 16]))
    def test_seek_and_iter_from_match_linear_scan(self, order, data,
                                                  restart_interval):
        comparator, keys = order
        ordered = sorted_by(comparator, data.draw(
            st.sets(keys, min_size=1, max_size=40)))
        entries = [(k, b"v%d" % i) for i, k in enumerate(ordered)]
        builder = BlockBuilder(restart_interval)
        for key, value in entries:
            builder.add(key, value)
        block = Block(builder.finish())
        targets = set(ordered) | data.draw(st.sets(keys, max_size=8))
        for target in targets:
            expected = suffix_from(comparator, entries, target)
            assert block.seek(target, comparator) == (
                expected[0] if expected else None)
            assert list(block.iter_from(target, comparator)) == expected


def table_options(restart_interval: int) -> Options:
    """Blocks of a few entries each, so every table spans many."""
    return Options(block_size=64, block_restart_interval=restart_interval,
                   compression="none", bloom_bits_per_key=0)


#: A user key after every drawn one: longer than any ``\xff`` run drawn.
PAST_LAST = b"\xff" * 6


class TestTableSearch:
    @settings(max_examples=80, deadline=None)
    @given(st.data(), st.sampled_from([1, 16]))
    def test_get_and_iter_from_match_first_entry_at_or_after(
            self, data, restart_interval):
        options = table_options(restart_interval)
        ordered = sorted_by(ICMP, data.draw(
            st.sets(INTERNAL_KEYS, min_size=1, max_size=60)))
        entries = [(k, b"value-%d" % i) for i, k in enumerate(ordered)]
        reader = TableReader(build_table_image(entries, options, ICMP), ICMP,
                             options)
        assert list(reader) == entries
        # Every stored key, lookup keys for stored and drawn user keys at
        # several snapshots, and one key past the last.
        user_keys = {k[:-MARK_FIELDS_SIZE] for k in ordered}
        user_keys |= data.draw(st.sets(USER_KEYS, max_size=4))
        targets = set(ordered) | {make_lookup_key(u, s)
                                  for u in user_keys for s in SEQUENCES}
        targets.add(encode_internal_key(PAST_LAST, 0, TYPE_DELETION))
        for target in targets:
            expected = suffix_from(ICMP, entries, target)
            assert list(reader.iter_from(target)) == expected
            # ``get`` reads one block: it may miss the first entry >=
            # ``target`` only when that entry has a later user key.
            found = reader.get(target)
            if found is None and expected:
                assert (expected[0][0][:-MARK_FIELDS_SIZE]
                        != target[:-MARK_FIELDS_SIZE])
            else:
                assert found == (expected[0] if expected else None)

    def test_target_past_last_key(self):
        options = table_options(16)
        entries = [(encode_internal_key(b"k%03d" % i, 1, TYPE_VALUE), b"v")
                   for i in range(100)]
        reader = TableReader(build_table_image(entries, options, ICMP), ICMP,
                             options)
        assert len(reader.index_entries()) > 10
        past = make_lookup_key(b"l", MAX_SEQUENCE)
        assert reader.get(past) is None
        assert list(reader.iter_from(past)) == []


def _image(entries: bytes, restarts) -> bytes:
    return entries + struct.pack(f"<{len(restarts) + 1}I", *restarts,
                                 len(restarts))


def _entry(shared: int, key_delta: bytes, value: bytes) -> bytes:
    return bytes([shared, len(key_delta), len(value)]) + key_delta + value


class TestCorruption:
    """Malformed images raise the same errors, word for word, as the
    comparator-callback search did."""

    #: case: (image, target, the error's message)
    CASES = {
        "restart entry with shared bytes": (
            _image(_entry(0, b"a", b"1") + _entry(1, b"b", b"2")
                   + _entry(0, b"c", b"3"), [0, 5, 10]),
            b"c", "restart entry has shared bytes"),
        "entry overruns the restart array": (
            _image(_entry(0, b"a", b"1") + bytes([1, 1, 40]) + b"bxx", [0]),
            b"ab", "block entry overruns restart array"),
        # The value length is a varint that never ends.
        "truncated entry": (
            _image(_entry(0, b"a", b"1") + bytes([0, 1]) + b"\x80" * 5, [0]),
            b"b", "truncated or overlong varint"),
        "shared prefix longer than the previous key": (
            _image(_entry(0, b"a", b"1") + _entry(5, b"b", b"2"), [0]),
            b"b", "shared prefix longer than previous key"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_seek_and_iter_from_raise(self, case):
        image, target, message = self.CASES[case]
        block = Block(image)
        with pytest.raises(CorruptionError, match=f"^{message}$"):
            block.seek(target, BYTEWISE)
        with pytest.raises(CorruptionError, match=f"^{message}$"):
            list(block.iter_from(target, BYTEWISE))

    def test_unknown_value_type_is_corruption_on_get(self):
        options = table_options(16)
        env = MemEnv()
        with LsmDB("typedb", options, env=env) as db:
            db.put(b"key", b"value")
            # A later sequence, so the lookup key sorts before the stored
            # one whatever its type byte.
            db.put(b"later", b"value")
            db.flush()
        [table] = [name for name in env.list_dir("typedb")
                   if name.endswith(".ldb")]
        path = f"typedb/{table}"
        image = bytearray(env.read_file(path))
        # The mark fields' low byte, set to a type no writer emits; the
        # block's CRC is re-stamped, so the type check is what raises.
        at = image.index(encode_internal_key(b"key", 1, TYPE_VALUE))
        image[at + len(b"key")] = 0x05
        [handle] = [handle for _, handle in TableReader(
            bytes(image), ICMP, options).index_entries()
            if handle.offset <= at < handle.offset + handle.size]
        end = handle.offset + handle.size
        image[end + 1:end + 5] = encode_fixed32(
            mask_crc(crc32c(bytes(image[handle.offset:end + 1]))))
        out = env.new_writable_file(path)
        out.append(bytes(image))
        out.close()
        with LsmDB("typedb", options, env=env) as db:
            with pytest.raises(CorruptionError,
                               match="unknown value type byte 0x5"):
                db.get(b"key")

