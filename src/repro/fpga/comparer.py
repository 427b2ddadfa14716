"""Comparer: Key Compare + Validity Check (paper §V-A).

Each selection round reads the head key of every input's key FIFO,
selects the smallest through a ``ceil(log2 N)``-deep compare tree, then
checks the winner's mark fields:

* an entry whose user key equals one already emitted is *shadowed* (an
  older version) — Drop;
* a deletion tombstone is Drop'd when the engine compacts into the
  bottommost level (no older data below could resurface);
* otherwise Keep, and the winner's ``Input No.`` plus the Drop flag go to
  the Key-Value Transfer module.

The round costs ``(2 + ceil(log2 N)) * L_key`` cycles — key read,
compare tree, existence check (Table II/III) — charged by the engine's
pipeline simulator.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.lsm.internal import (
    InternalKeyComparator,
    extract_user_key,
    parse_internal_key,
)


@dataclass(slots=True)
class Selection:
    """Outcome of one Comparer round."""

    input_no: int
    internal_key: bytes
    drop: bool
    reason: str  # "keep" | "shadowed" | "tombstone"


class KeyCompare:
    """Selects the smallest head key among inputs."""

    def __init__(self, comparator: InternalKeyComparator):
        self._comparator = comparator
        self.rounds = 0

    def select(self, heads: dict[int, bytes]) -> int:
        """Given ``input_no -> head key`` for non-exhausted inputs, return
        the winning input number."""
        if not heads:
            raise ValueError("select with no live inputs")
        self.rounds += 1
        best_input, best_key = None, None
        for input_no in sorted(heads):
            key = heads[input_no]
            if best_key is None or self._comparator.compare(key, best_key) < 0:
                best_input, best_key = input_no, key
        return best_input


class ValidityCheck:
    """Drops shadowed versions and (at the bottom level) tombstones."""

    def __init__(self, comparator: InternalKeyComparator,
                 drop_deletions: bool):
        self._user_compare = comparator.user_comparator.compare
        self._drop_deletions = drop_deletions
        self._last_user_key: bytes | None = None
        self.dropped_shadowed = 0
        self.dropped_tombstones = 0

    def check(self, internal_key: bytes) -> tuple[bool, str]:
        """Return ``(drop, reason)`` and update the duplicate tracker."""
        user_key = extract_user_key(internal_key)
        if (self._last_user_key is not None
                and self._user_compare(user_key, self._last_user_key) == 0):
            self.dropped_shadowed += 1
            return True, "shadowed"
        self._last_user_key = user_key
        if self._drop_deletions and parse_internal_key(internal_key).is_deletion:
            self.dropped_tombstones += 1
            return True, "tombstone"
        return False, "keep"


class Comparer:
    """Key Compare and Validity Check composed, as in Fig 2."""

    def __init__(self, comparator: InternalKeyComparator,
                 drop_deletions: bool):
        self.key_compare = KeyCompare(comparator)
        self.validity = ValidityCheck(comparator, drop_deletions)

    def round(self, heads: dict[int, bytes]) -> Selection:
        input_no = self.key_compare.select(heads)
        internal_key = heads[input_no]
        drop, reason = self.validity.check(internal_key)
        return Selection(input_no=input_no, internal_key=internal_key,
                         drop=drop, reason=reason)
