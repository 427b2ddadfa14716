"""LRU block cache.

Caches decompressed data blocks keyed by ``(file_number, block_offset)``.
Capacity is accounted in bytes of cached payload.  Eviction is strict LRU,
implemented over an ordered dict; hit/miss counters are exposed because
the read-path experiments report them.

The cache is thread-safe: readers and the threads running flush and
merge steps beside them share one instance, so every structural
operation, the ``hits`` / ``misses`` tallies included, holds a private
lock (the bound obs counters carry their own registry lock).
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Hashable, Optional


class LRUCache:
    """Byte-capacity-bounded LRU map.

    ``hit_counter`` / ``miss_counter`` / ``usage_gauge`` are optional
    :mod:`repro.obs` metrics the owning store can bind, so cache traffic
    flows into its registry without this module importing it.
    """

    def __init__(self, capacity: int, hit_counter=None, miss_counter=None,
                 usage_gauge=None):
        if capacity < 0:
            raise ValueError("capacity must be >= 0")
        self.capacity = capacity
        self._entries: OrderedDict[Hashable, bytes] = OrderedDict()
        self._usage = 0
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self._hit_counter = hit_counter
        self._miss_counter = miss_counter
        self._usage_gauge = usage_gauge

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def usage(self) -> int:
        """Bytes currently cached."""
        return self._usage

    def get(self, key: Hashable) -> Optional[bytes]:
        with self._lock:
            value = self._entries.get(key)
            if value is None:
                self.misses += 1
            else:
                self.hits += 1
                self._entries.move_to_end(key)
        if value is None:
            if self._miss_counter is not None:
                self._miss_counter.inc()
            return None
        if self._hit_counter is not None:
            self._hit_counter.inc()
        return value

    def put(self, key: Hashable, value: bytes) -> None:
        if self.capacity == 0:
            return
        if len(value) > self.capacity:
            # An oversized value can never be resident: admitting it used
            # to evict the whole cache and then the value itself.  Reject
            # it up front without disturbing resident entries.
            return
        with self._lock:
            if key in self._entries:
                self._usage -= len(self._entries.pop(key))
            self._entries[key] = value
            self._usage += len(value)
            while self._usage > self.capacity and self._entries:
                _, evicted = self._entries.popitem(last=False)
                self._usage -= len(evicted)
            usage = self._usage
        if self._usage_gauge is not None:
            self._usage_gauge.set(usage)

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._usage = 0
        if self._usage_gauge is not None:
            self._usage_gauge.set(0)
