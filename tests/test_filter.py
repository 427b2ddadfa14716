"""Bloom filter: no false negatives, bounded false positives."""

import hashlib
import random
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.lsm import filter as filter_module
from repro.lsm.filter import BloomFilterPolicy, _leveldb_hash


class TestHash:
    def test_deterministic(self):
        assert _leveldb_hash(b"abc") == _leveldb_hash(b"abc")

    def test_spread(self):
        values = {_leveldb_hash(f"key{i}".encode()) for i in range(1000)}
        assert len(values) > 990

    def test_empty_input(self):
        assert isinstance(_leveldb_hash(b""), int)


class TestPolicy:
    def test_no_false_negatives(self):
        policy = BloomFilterPolicy(10)
        keys = [f"user{i:06d}".encode() for i in range(500)]
        filter_data = policy.create_filter(keys)
        for key in keys:
            assert policy.key_may_match(key, filter_data)

    def test_false_positive_rate_bounded(self):
        policy = BloomFilterPolicy(10)
        keys = [f"present{i}".encode() for i in range(1000)]
        filter_data = policy.create_filter(keys)
        false_positives = sum(
            policy.key_may_match(f"absent{i}".encode(), filter_data)
            for i in range(2000))
        # 10 bits/key gives ~1% theoretical; allow generous slack.
        assert false_positives / 2000 < 0.05

    def test_more_bits_fewer_false_positives(self):
        keys = [f"k{i}".encode() for i in range(500)]
        probes = [f"missing{i}".encode() for i in range(2000)]

        def fp_rate(bits):
            policy = BloomFilterPolicy(bits)
            data = policy.create_filter(keys)
            return sum(policy.key_may_match(p, data) for p in probes)

        assert fp_rate(16) <= fp_rate(4)

    def test_empty_key_set(self):
        policy = BloomFilterPolicy(10)
        filter_data = policy.create_filter([])
        # Minimum-size filter exists and rejects typical probes.
        assert len(filter_data) >= 9

    def test_trailing_byte_records_k(self):
        policy = BloomFilterPolicy(10)
        filter_data = policy.create_filter([b"a"])
        assert filter_data[-1] == policy._k

    def test_tiny_filter_data_rejects(self):
        assert not BloomFilterPolicy.key_may_match(b"x", b"")
        assert not BloomFilterPolicy.key_may_match(b"x", b"\x01")

    def test_reserved_k_returns_true(self):
        # k > 30 is a reserved encoding: must not reject.
        assert BloomFilterPolicy.key_may_match(b"x", b"\x00\x00\x00\x1f")

    def test_invalid_bits_per_key(self):
        with pytest.raises(ValueError):
            BloomFilterPolicy(0)


@settings(max_examples=40, deadline=None)
@given(st.sets(st.binary(min_size=1, max_size=24), min_size=1, max_size=200))
def test_membership_property(keys):
    policy = BloomFilterPolicy(10)
    filter_data = policy.create_filter(keys)
    assert all(policy.key_may_match(k, filter_data) for k in keys)


def _golden_corpus():
    rng = random.Random(0xB100F)
    for count in (0, 1, 7, 8, 9, 190, 5000):
        yield [rng.randbytes(16) for _ in range(count)]
    yield [rng.randbytes(rng.randrange(1, 24)) for _ in range(600)]
    yield [b""]
    yield [b"", b"a", b"", b"ab", b"abc"] * 5


@pytest.mark.parametrize("bulk_min", [1, 12, 1 << 30],
                         ids=["bulk", "default", "scalar"])
def test_filter_bytes_golden(monkeypatch, bulk_min):
    """Filters are on-disk bytes.  The digest is of the scalar loop's
    output at the commit before the numpy leg existed; both legs, and
    the default crossover between them, must reproduce it.  Without
    numpy all three run the scalar loop."""
    monkeypatch.setattr(filter_module, "_BULK_MIN_KEYS", bulk_min)
    digest = hashlib.sha256()
    for bits_per_key in (1, 10, 16):
        policy = BloomFilterPolicy(bits_per_key)
        for keys in _golden_corpus():
            digest.update(policy.create_filter(keys))
    assert digest.hexdigest() == (
        "59d625e5e4d912e38765f455bf227970e97b9c2f844dbaf5c0e0e91978c81ac3")


def test_filter_accepts_any_iterable():
    keys = [b"k%d" % i for i in range(40)]
    policy = BloomFilterPolicy(10)
    assert policy.create_filter(iter(keys)) == policy.create_filter(keys)


@pytest.mark.parametrize("bulk_min", [1, 12, 1 << 30],
                         ids=["bulk", "default", "scalar"])
def test_filter_from_batched_hashes_is_the_filter_of_all_keys(monkeypatch,
                                                              bulk_min):
    """A table builder hashes its filter keys a batch at a time and
    builds the filter from the joined hashes: the same bytes as one
    ``create_filter`` over every key, on either leg."""
    monkeypatch.setattr(filter_module, "_BULK_MIN_KEYS", bulk_min)
    rng = random.Random(5)
    keys = [rng.randbytes(rng.randrange(1, 24)) for _ in range(700)]
    policy = BloomFilterPolicy(10)
    hashes = array("I")
    for start in range(0, len(keys), 64):
        hashes += filter_module.hash_keys(keys[start:start + 64])
    assert policy.filter_from_hashes(hashes) == policy.create_filter(keys)
