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

Both work on :meth:`InternalKeyComparator.sort_key` values, computed
once per key by the Decoder: ``(user key, -trailer)``, whose native
order is the internal-key order.  User keys compare as bytes, as the
hardware's compare tree does over ``L_key``-byte keys; two are the same
key exactly when their bytes are equal.

The round costs ``(2 + ceil(log2 N)) * L_key`` cycles — key read,
compare tree, existence check (Table II/III) — charged by the engine's
pipeline simulator.
"""

from __future__ import annotations

from repro.errors import CorruptionError
from repro.lsm.internal import TYPE_DELETION, TYPE_VALUE


class KeyCompare:
    """Selects the smallest head key among inputs."""

    def __init__(self):
        self.rounds = 0

    def select(self, live: list[int], heads: list) -> int:
        """Given the non-exhausted inputs in ascending order and
        ``heads[i]``, input *i*'s head sort key, return the winning input
        number; equal keys go to the lowest input number."""
        if not live:
            raise ValueError("select with no live inputs")
        self.rounds += 1
        return min(live, key=heads.__getitem__)


class ValidityCheck:
    """Drops shadowed versions and (at the bottom level) tombstones."""

    def __init__(self, drop_deletions: bool):
        self._drop_deletions = drop_deletions
        self._last_user = None
        self.dropped_shadowed = 0
        self.dropped_tombstones = 0

    def check(self, sort_key: tuple) -> bool:
        """True to Drop the pair whose sort key is ``sort_key``; updates
        the duplicate tracker."""
        user, negated_trailer = sort_key
        if self._last_user is not None and user == self._last_user:
            self.dropped_shadowed += 1
            return True
        self._last_user = user
        if self._drop_deletions:
            value_type = -negated_trailer & 0xFF
            if value_type == TYPE_DELETION:
                self.dropped_tombstones += 1
                return True
            if value_type != TYPE_VALUE:
                raise CorruptionError(
                    f"unknown value type byte {value_type:#x}")
        return False


class Comparer:
    """Key Compare and Validity Check composed, as in Fig 2."""

    def __init__(self, drop_deletions: bool):
        self.key_compare = KeyCompare()
        self.validity = ValidityCheck(drop_deletions)

    def round(self, live: list[int], heads: list) -> tuple[int, bool]:
        """One selection round: ``(winner, drop)``."""
        winner = self.key_compare.select(live, heads)
        return winner, self.validity.check(heads[winner])
