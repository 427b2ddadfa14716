"""Probabilistic skiplist, the memtable's ordered index.

Same structure LevelDB uses (and the paper's Fig 1 shows for the
MemTable): a multi-level linked list where each node's tower height is
geometric with branching factor 4.  Insertion and search are O(log n)
expected.  The implementation is deterministic given the seed, which keeps
tests and the simulators reproducible.

Keys order by their own ``<`` — there is no comparator callback — so a
descent is native comparisons only.  The memtable stores each internal
key's sort key (:meth:`repro.lsm.internal.InternalKeyComparator.sort_key`).
"""

from __future__ import annotations

import random
from typing import Any, Iterator, Optional

MAX_HEIGHT = 12
#: Branching factor 4: a tower grows one level per two zero random bits.
_BRANCHING_BITS = 2


class _Node:
    __slots__ = ("key", "item", "next")

    def __init__(self, key: Any, item: Any, height: int):
        self.key = key
        self.item = item
        self.next: list[Optional[_Node]] = [None] * height


class SkipList:
    """Ordered map from a natively comparable key to an item.

    Lookups and iteration return the items.  Duplicate keys raise
    ``ValueError`` — the memtable guarantees uniqueness by embedding the
    sequence number in each key.  Insert-only: a node is linked only
    after its own pointers are set, bottom level first, so one writer and
    any number of unlocked readers may share a list.
    """

    def __init__(self, seed: int = 0xDECAF):
        self._head = _Node(None, None, MAX_HEIGHT)
        self._max_height = 1
        self._random = random.Random(seed)
        self._size = 0

    def __len__(self) -> int:
        return self._size

    def _random_height(self) -> int:
        height = 1
        while (height < MAX_HEIGHT
               and not self._random.getrandbits(_BRANCHING_BITS)):
            height += 1
        return height

    def _find_greater_or_equal(
            self, key: Any, prev: Optional[list[_Node]] = None) -> Optional[_Node]:
        node = self._head
        level = self._max_height - 1
        while True:
            nxt = node.next[level]
            if nxt is not None and nxt.key < key:
                node = nxt
            else:
                if prev is not None:
                    prev[level] = node
                if level == 0:
                    return nxt
                level -= 1

    def insert(self, key: Any, item: Any) -> None:
        """Map ``key`` to ``item``; raises ``ValueError`` if ``key`` is
        already present."""
        prev: list[_Node] = [self._head] * MAX_HEIGHT
        node = self._find_greater_or_equal(key, prev)
        if node is not None and node.key == key:
            raise ValueError("duplicate key inserted into skiplist")
        height = self._random_height()
        if height > self._max_height:
            self._max_height = height  # prev is already head up there
        new_node = _Node(key, item, height)
        for level in range(height):
            new_node.next[level] = prev[level].next[level]
            prev[level].next[level] = new_node
        self._size += 1

    def seek(self, key: Any) -> Any:
        """Item of the smallest stored key >= ``key``, or ``None``."""
        node = self._find_greater_or_equal(key)
        return node.item if node is not None else None

    def __iter__(self) -> Iterator[Any]:
        return self.iter_from()

    def iter_from(self, key: Any = None) -> Iterator[Any]:
        """Items of the keys >= ``key`` (of all keys if None), in key
        order."""
        node = (self._head.next[0] if key is None
                else self._find_greater_or_equal(key))
        while node is not None:
            yield node.item
            node = node.next[0]
