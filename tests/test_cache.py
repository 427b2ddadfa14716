"""LRU cache: eviction order, byte accounting, hit/miss counters."""

import pytest

from repro.lsm.cache import LRUCache


class TestBasics:
    def test_put_get(self):
        cache = LRUCache(100)
        cache.put("a", b"12345")
        assert cache.get("a") == b"12345"

    def test_miss_returns_none(self):
        cache = LRUCache(100)
        assert cache.get("missing") is None

    def test_usage_tracks_bytes(self):
        cache = LRUCache(100)
        cache.put("a", b"x" * 30)
        cache.put("b", b"y" * 20)
        assert cache.usage == 50
        assert len(cache) == 2

    def test_overwrite_replaces_bytes(self):
        cache = LRUCache(100)
        cache.put("a", b"x" * 30)
        cache.put("a", b"y" * 10)
        assert cache.usage == 10
        assert cache.get("a") == b"y" * 10

    def test_clear(self):
        cache = LRUCache(100)
        cache.put("a", b"abc")
        cache.clear()
        assert len(cache) == 0
        assert cache.usage == 0


class TestEviction:
    def test_lru_order(self):
        cache = LRUCache(30)
        cache.put("a", b"x" * 10)
        cache.put("b", b"x" * 10)
        cache.put("c", b"x" * 10)
        cache.put("d", b"x" * 10)  # evicts "a"
        assert cache.get("a") is None
        assert cache.get("b") is not None

    def test_get_refreshes_recency(self):
        cache = LRUCache(30)
        cache.put("a", b"x" * 10)
        cache.put("b", b"x" * 10)
        cache.put("c", b"x" * 10)
        cache.get("a")             # a is now most recent
        cache.put("d", b"x" * 10)  # evicts "b"
        assert cache.get("a") is not None
        assert cache.get("b") is None

    def test_oversized_entry_evicts_everything_else(self):
        cache = LRUCache(50)
        cache.put("a", b"x" * 20)
        cache.put("big", b"y" * 45)
        assert cache.get("a") is None
        assert cache.get("big") is not None

    def test_entry_larger_than_capacity(self):
        cache = LRUCache(10)
        cache.put("huge", b"z" * 100)
        # Nothing can hold it; the put is rejected outright.
        assert cache.get("huge") is None
        assert cache.usage == 0
        assert len(cache) == 0

    def test_oversized_put_keeps_existing_entries(self):
        """Regression: an oversized value used to evict the whole cache
        (and then itself) — it must leave resident entries alone."""
        cache = LRUCache(50)
        cache.put("a", b"x" * 20)
        cache.put("b", b"y" * 20)
        cache.put("huge", b"z" * 100)
        assert cache.get("a") == b"x" * 20
        assert cache.get("b") == b"y" * 20
        assert cache.get("huge") is None
        assert cache.usage == 40
        assert len(cache) == 2

    def test_zero_capacity_stores_nothing(self):
        cache = LRUCache(0)
        cache.put("a", b"data")
        assert cache.get("a") is None

    def test_negative_capacity_rejected(self):
        with pytest.raises(ValueError):
            LRUCache(-1)


class TestCounters:
    def test_hits_and_misses(self):
        cache = LRUCache(100)
        cache.put("a", b"1")
        cache.get("a")
        cache.get("a")
        cache.get("b")
        assert cache.hits == 2
        assert cache.misses == 1


class TestThreadSafety:
    def test_concurrent_put_get_erase(self):
        """The cache is shared by readers and flush/merge steps on other
        threads; hammer it from several threads, erasing everything now
        and then with ``clear``, and check it stays consistent."""
        import threading

        cache = LRUCache(4096)
        errors = []

        def worker(seed):
            try:
                for i in range(400):
                    k = f"k{(seed * 31 + i) % 64}"
                    cache.put(k, bytes(32))
                    cache.get(k)
                    if i % 50 == 0:
                        cache.clear()
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        threads = [threading.Thread(target=worker, args=(s,))
                   for s in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert errors == []
        assert 0 <= cache.usage <= 4096
        assert len(cache) <= 64
