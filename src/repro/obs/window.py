"""Sliding-window histograms: tail latency per interval, not per run.

The cumulative histograms in :mod:`repro.obs.registry` answer "what was
p99 over the whole run"; ``lsm top`` and SLO accounting need "what is
p99 *right now*".  A :class:`WindowedHistogram` keeps a ring of
time-sliced fixed-bucket histograms over a clock (wall by default, a
simulated clock in the discrete-event simulators): observations land in
the slice covering ``now``, reads merge the slices still inside the
window, and slices older than the window are recycled in place — memory
is O(slices × buckets) regardless of rate.  A read may ask for a
trailing sub-window (the SLO engine's burn windows).

Percentiles are computed from the merged cumulative bucket counts with
linear interpolation inside the winning bucket, so for a fixed window
content ``percentile(q)`` is monotone in ``q`` by construction.

:func:`publish_window` exposes selected quantiles as lazily-evaluated
registry gauges (:meth:`MetricsRegistry.callback_gauge`), so Prometheus
scrapes pay the merge cost, not the hot path.
"""

from __future__ import annotations

import math
import threading
import time
from bisect import bisect_left
from typing import Optional, Sequence

from repro.errors import InvalidArgumentError
from repro.obs.registry import SECONDS_BUCKETS, MetricsRegistry

#: Ring slices of a window given by its width alone: expiry resolution
#: is ``window / SLICES``.
SLICES = 6

#: Quantiles published by default and their label values.
DEFAULT_QUANTILES = (0.5, 0.95, 0.99, 0.999)

_QUANTILE_LABELS = {0.5: "p50", 0.95: "p95", 0.99: "p99", 0.999: "p999"}


def quantile_label(q: float) -> str:
    """``0.99 -> "p99"`` (falls back to ``p<percent>`` for odd values)."""
    label = _QUANTILE_LABELS.get(q)
    if label is not None:
        return label
    return "p" + f"{q * 100:g}".replace(".", "_")


class _Slice:
    """One time slice of the ring: bucket counts plus sum/count."""

    __slots__ = ("slot", "counts", "sum", "count")

    def __init__(self, n_buckets: int):
        self.slot = -1
        self.counts = [0] * (n_buckets + 1)  # last slot is +Inf
        self.sum = 0.0
        self.count = 0

    def reset(self, slot: int) -> None:
        self.slot = slot
        for i in range(len(self.counts)):
            self.counts[i] = 0
        self.sum = 0.0
        self.count = 0


class WindowedHistogram:
    """Fixed-bucket histogram over a sliding time window.

    Parameters
    ----------
    window_seconds:
        Width of the window observations remain visible for.
    slice_seconds:
        Slice width given directly: the ring then holds one slice more
        than the window, so a caller's slot boundaries are exactly its
        own.
    buckets:
        Ascending upper bounds (defaults to the registry's
        ``SECONDS_BUCKETS``).
    clock:
        Callable returning seconds; defaults to ``time.monotonic``.
        Simulators pass a reader of their virtual clock so windows slide
        on modeled time.
    """

    def __init__(self, window_seconds: float = 60.0,
                 buckets: Optional[Sequence[float]] = None, clock=None,
                 slice_seconds: Optional[float] = None):
        if window_seconds <= 0 or (slice_seconds is not None
                                   and slice_seconds <= 0):
            raise InvalidArgumentError("window and slice must be positive")
        self.window_seconds = float(window_seconds)
        self.buckets = tuple(buckets if buckets is not None
                             else SECONDS_BUCKETS)
        if any(b2 <= b1 for b1, b2 in zip(self.buckets, self.buckets[1:])):
            raise InvalidArgumentError("buckets must be strictly ascending")
        if slice_seconds is None:
            slices = SLICES
            self._slice_seconds = self.window_seconds / SLICES
        else:
            self._slice_seconds = float(slice_seconds)
            slices = math.ceil(self.window_seconds / slice_seconds) + 1
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        self._ring = [_Slice(len(self.buckets)) for _ in range(slices)]

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------

    def _slice_for(self, slot: int) -> _Slice:
        entry = self._ring[slot % len(self._ring)]
        if entry.slot != slot:
            entry.reset(slot)
        return entry

    def observe(self, value: float) -> None:
        slot = int(self._clock() / self._slice_seconds)
        index = bisect_left(self.buckets, value)  # upper bounds (le)
        with self._lock:
            entry = self._slice_for(slot)
            entry.counts[index] += 1
            entry.sum += value
            entry.count += 1

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------

    def _live_slices(self, window_seconds: Optional[float]
                     ) -> list[_Slice]:
        now_slot = int(self._clock() / self._slice_seconds)
        span = len(self._ring)
        if window_seconds is not None:
            span = min(span, math.ceil(window_seconds / self._slice_seconds))
        oldest = now_slot - span + 1
        return [entry for entry in self._ring
                if oldest <= entry.slot <= now_slot]

    def snapshot(self, window_seconds: Optional[float] = None
                 ) -> tuple[list[int], float, int]:
        """Merged ``(bucket_counts, sum, count)`` of the live window, or
        of its trailing ``window_seconds`` (whole slices)."""
        with self._lock:
            merged = [0] * (len(self.buckets) + 1)
            total_sum, total_count = 0.0, 0
            for entry in self._live_slices(window_seconds):
                for i, n in enumerate(entry.counts):
                    merged[i] += n
                total_sum += entry.sum
                total_count += entry.count
        return merged, total_sum, total_count

    @property
    def count(self) -> int:
        return self.snapshot()[2]

    @property
    def sum(self) -> float:
        return self.snapshot()[1]

    def percentile(self, q: float) -> float:
        """Windowed quantile ``q`` in ``[0, 1]``; 0.0 when empty.

        Linear interpolation inside the winning bucket; observations in
        the overflow bucket report the largest finite bound."""
        if not 0.0 <= q <= 1.0:
            raise InvalidArgumentError(f"quantile {q} outside [0, 1]")
        counts, _, total = self.snapshot()
        if total == 0:
            return 0.0
        rank = q * total
        running = 0
        for i, n in enumerate(counts):
            if n == 0:
                continue
            prev = running
            running += n
            if running >= rank:
                if i >= len(self.buckets):
                    return self.buckets[-1]
                lower = self.buckets[i - 1] if i > 0 else 0.0
                upper = self.buckets[i]
                fraction = (rank - prev) / n if n else 1.0
                return lower + (upper - lower) * min(max(fraction, 0.0), 1.0)
        return self.buckets[-1]


def nearest_rank(values: Sequence[float], percentile: float) -> float:
    """Percentile ``percentile`` in ``[0, 100]`` of a raw sample: the
    value at rank ``int(p/100 * n)`` of the sorted sample; 0.0 when
    empty.  The exact counterpart of :meth:`WindowedHistogram.percentile`
    for callers that keep every observation."""
    if not 0 <= percentile <= 100:
        raise InvalidArgumentError("percentile must be in [0, 100]")
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = int(percentile / 100.0 * len(ordered))
    return ordered[min(rank, len(ordered) - 1)]


def publish_window(registry: MetricsRegistry, name: str, help_text: str,
                   window: WindowedHistogram,
                   quantiles: Sequence[float] = DEFAULT_QUANTILES,
                   **labels) -> None:
    """Expose ``window``'s quantiles as callback gauges named ``name``
    with a ``quantile`` label (``p50``/``p95``/``p99``/``p999``).

    An *empty* window publishes no samples at all (the callbacks return
    ``None`` and exposition skips them) rather than a phantom 0.0, so
    dashboards and burn-rate math never mistake an idle period for a
    zero-latency one."""
    for q in quantiles:
        registry.callback_gauge(
            name, help_text,
            callback=lambda q=q: (window.percentile(q)
                                  if window.count else None),
            quantile=quantile_label(q), **labels)


def open_op_window(registry: MetricsRegistry, name: str, help_text: str,
                   window_seconds: float, op: str,
                   tenant: Optional[str] = None, clock=None,
                   **labels) -> WindowedHistogram:
    """Create and publish one operation-latency window.

    Its quantiles publish as ``name`` labelled ``op`` (and ``tenant``
    when given) plus ``labels``.  Shared by the store (wall clock) and
    the open-loop simulator (``clock`` reads simulated time)."""
    window = WindowedHistogram(window_seconds=window_seconds, clock=clock)
    if tenant is not None:
        labels["tenant"] = tenant
    publish_window(registry, name, help_text, window, op=op, **labels)
    return window
