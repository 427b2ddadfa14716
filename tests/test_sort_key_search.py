"""Searches by native sort key: blocks, tables and the DB against linear
references, under bytewise, reversed and internal-key orders."""

from __future__ import annotations

import functools
import random
import struct
from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import CorruptionError, NotFoundError
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
from repro.util.comparator import BytewiseComparator
from tests.conftest import ReverseComparator, build_table_image

BYTEWISE = BytewiseComparator()
REVERSE = ReverseComparator()
USER_COMPARATORS = [BYTEWISE, REVERSE]

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
    """``(comparator, key strategy)``: a user order over user keys, or
    the internal-key order over either user order."""
    user_comparator = draw(st.sampled_from(USER_COMPARATORS))
    if draw(st.booleans()):
        return user_comparator, USER_KEYS
    return InternalKeyComparator(user_comparator), INTERNAL_KEYS


def sorted_by(comparator, keys):
    return sorted(keys, key=functools.cmp_to_key(comparator.compare))


def suffix_from(comparator, entries, target):
    """Linear reference: the entries whose key is >= ``target``."""
    return [(k, v) for k, v in entries if comparator.compare(k, target) >= 0]


class TestComparatorSortKey:
    @settings(max_examples=100, deadline=None)
    @given(st.sampled_from(USER_COMPARATORS), USER_KEYS, USER_KEYS)
    def test_native_order_is_compare(self, comparator, a, b):
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


#: A user key after every drawn one: longer than any ``\xff`` run drawn
#: (bytewise), or the empty key (reversed).
PAST_LAST = {BYTEWISE.name: b"\xff" * 6, REVERSE.name: b""}


class TestTableSearch:
    @settings(max_examples=80, deadline=None)
    @given(st.sampled_from(USER_COMPARATORS), st.data(),
           st.sampled_from([1, 16]))
    def test_get_and_iter_from_match_first_entry_at_or_after(
            self, user_comparator, data, restart_interval):
        icmp = InternalKeyComparator(user_comparator)
        options = table_options(restart_interval)
        ordered = sorted_by(icmp, data.draw(
            st.sets(INTERNAL_KEYS, min_size=1, max_size=60)))
        entries = [(k, b"value-%d" % i) for i, k in enumerate(ordered)]
        reader = TableReader(build_table_image(entries, options, icmp), icmp,
                             options)
        assert list(reader) == entries
        # Every stored key, lookup keys for stored and drawn user keys at
        # several snapshots, and one key past the last.
        user_keys = {k[:-MARK_FIELDS_SIZE] for k in ordered}
        user_keys |= data.draw(st.sets(USER_KEYS, max_size=4))
        targets = set(ordered) | {make_lookup_key(u, s)
                                  for u in user_keys for s in SEQUENCES}
        targets.add(encode_internal_key(PAST_LAST[user_comparator.name], 0,
                                        TYPE_DELETION))
        for target in targets:
            expected = suffix_from(icmp, entries, target)
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
        icmp = InternalKeyComparator(BYTEWISE)
        options = table_options(16)
        entries = [(encode_internal_key(b"k%03d" % i, 1, TYPE_VALUE), b"v")
                   for i in range(100)]
        reader = TableReader(build_table_image(entries, options, icmp), icmp,
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
        options = replace(table_options(16), paranoid_checks=False)
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
        # The mark fields' low byte, set to a type no writer emits.
        image[image.index(encode_internal_key(b"key", 1, TYPE_VALUE))
              + len(b"key")] = 0x05
        out = env.new_writable_file(path)
        out.append(bytes(image))
        out.close()
        with LsmDB("typedb", options, env=env) as db:
            with pytest.raises(CorruptionError,
                               match="unknown value type byte 0x5"):
                db.get(b"key")


def test_reverse_ordered_db_across_flushes_and_merges():
    options = Options(block_size=512, sstable_size=8 * 1024,
                      write_buffer_size=16 * 1024, max_level0_size=64 * 1024,
                      block_cache_capacity=64 * 1024, comparator=REVERSE)
    rng = random.Random(5)
    model: dict[bytes, bytes] = {}

    def check(db):
        for key in (b"%05d" % n for n in range(800)):
            if key in model:
                assert db.get(key) == model[key]
            else:
                with pytest.raises(NotFoundError):
                    db.get(key)
        assert [k for k, _ in db.scan()] == sorted(model, reverse=True)

    with LsmDB("reversedb", options, env=MemEnv()) as db:
        for i in range(3000):
            key = b"%05d" % rng.randrange(800)
            if i % 7 == 0:
                db.delete(key)
                model.pop(key, None)
            else:
                model[key] = b"%d" % i * 12
                db.put(key, model[key])
            if i == 1500:
                check(db)
        db.compact_range()
        assert sum(db.level_file_counts()[1:]) > 0
        check(db)
