"""Iterator utilities: k-way merging over sorted (key, value) streams.

The merging iterator is the heart of CPU compaction and of multi-source
reads: given N iterators each yielding internal keys in ascending order,
it yields the globally smallest next key each round — the same job the
FPGA Comparer module performs in hardware.  Ties (equal internal keys
cannot happen; equal *user* keys differ in sequence) are resolved by the
internal-key order itself, which places newer entries first.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Iterable, Iterator

KVPair = tuple[bytes, bytes]


def merging_iterator(sources: Iterable[Iterator[KVPair]],
                     sort_key: Callable[[bytes], Any]
                     ) -> Iterator[KVPair]:
    """Merge ascending (key, value) streams into one ascending stream.

    ``sort_key(key)`` is computed once per entry and its native ``<`` is
    the order of the streams (``InternalKeyComparator.sort_key``), so the
    heap compares in C.  When two sources hold keys whose sort keys are
    equal, the *earlier* source wins that round (it is emitted first);
    callers exploit this by ordering sources newest-first.
    """
    return heapq.merge(*sources, key=lambda entry: sort_key(entry[0]))
