"""Thread-safe metrics registry: counters, gauges, fixed-bucket histograms.

The registry is the single accumulation point for the paper's evaluation
metrics (Tables V-VIII, Figs 9-16): the LSM store, the compaction
scheduler, the PCIe model and the FPGA pipeline simulator all publish
here, and the stats dataclasses (`DbStats`, `SchedulerStats`) are thin
read-only views over it.  Exposition (Prometheus text format, the
human-readable ``repro.stats`` report) renders from :meth:`collect`.

Metric families follow the Prometheus data model: a family has a name,
a kind (counter/gauge/histogram) and help text; children are addressed
by a label set.  ``registry.counter(name, **labels)`` is get-or-create,
so instrumented code can cache the child object and increment it without
further lookups.
"""

from __future__ import annotations

import itertools
import re
import threading
from bisect import bisect_left
from typing import Optional, Sequence

from repro.analysis import watchdog as lockwatch
from repro.errors import InvalidArgumentError

_NAME_RE = re.compile(r"^[a-zA-Z_:][a-zA-Z0-9_:]*$")
_LABEL_RE = re.compile(r"^[a-zA-Z_][a-zA-Z0-9_]*$")

#: Default histogram buckets for durations in seconds (kernel runs,
#: compaction phases): 100 us .. 100 s, roughly log-spaced.
SECONDS_BUCKETS = (1e-4, 2.5e-4, 1e-3, 2.5e-3, 1e-2, 2.5e-2, 0.1, 0.25,
                   1.0, 2.5, 10.0, 25.0, 100.0)

#: Default histogram buckets for byte volumes (SSTable/compaction sizes):
#: 4 KB .. 4 GB in powers of four.
BYTES_BUCKETS = tuple(4 ** n * 1024 for n in range(1, 11))


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise InvalidArgumentError(f"invalid metric name {name!r}")
    return name


def _label_key(labels: dict) -> tuple[tuple[str, str], ...]:
    for key in labels:
        if not _LABEL_RE.match(key):
            raise InvalidArgumentError(f"invalid label name {key!r}")
    return tuple(sorted((k, str(v)) for k, v in labels.items()))


class Counter:
    """Monotonically non-decreasing accumulator (int or float)."""

    __slots__ = ("labels", "_lock", "_value")

    def __init__(self, labels: tuple[tuple[str, str], ...],
                 lock: threading.Lock):
        self.labels = labels
        self._lock = lock
        self._value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise InvalidArgumentError("counters can only increase")
        with self._lock:
            self._value += amount

    @property
    def value(self) -> float:
        return self._value


class Gauge:
    """Point-in-time value; supports set/inc/dec and high-water updates."""

    __slots__ = ("labels", "_lock", "_value")

    def __init__(self, labels: tuple[tuple[str, str], ...],
                 lock: threading.Lock):
        self.labels = labels
        self._lock = lock
        self._value = 0.0

    def set(self, value: float) -> None:
        with self._lock:
            self._value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value += amount

    def dec(self, amount: float = 1.0) -> None:
        with self._lock:
            self._value -= amount

    def set_max(self, value: float) -> None:
        """High-water-mark update (FIFO occupancy, BRAM usage)."""
        with self._lock:
            self._value = max(self._value, float(value))

    @property
    def value(self) -> float:
        return self._value


class CallbackGauge:
    """Gauge whose value is computed on demand at collection time.

    Used for derived series that would be wasteful to refresh on the hot
    path — windowed percentiles, ratios — so the cost is paid at scrape
    time, not per operation.

    A callback may return ``None`` to signal "no sample right now"
    (e.g. an empty latency window): exposition then omits the series
    instead of publishing a phantom 0.0."""

    __slots__ = ("labels", "_callback")

    def __init__(self, labels: tuple[tuple[str, str], ...], callback):
        self.labels = labels
        self._callback = callback

    @property
    def value(self) -> Optional[float]:
        value = self._callback()
        return None if value is None else float(value)


class Histogram:
    """Fixed-bucket histogram with cumulative counts, Prometheus-style."""

    __slots__ = ("labels", "buckets", "_lock", "_counts", "_sum", "_count")

    def __init__(self, labels: tuple[tuple[str, str], ...],
                 lock: threading.Lock, buckets: Sequence[float]):
        self.labels = labels
        self.buckets = tuple(buckets)
        self._lock = lock
        self._counts = [0] * (len(self.buckets) + 1)  # last slot is +Inf
        self._sum = 0.0
        self._count = 0

    def observe(self, value: float) -> None:
        index = bisect_left(self.buckets, value)
        with self._lock:
            self._counts[index] += 1
            self._sum += value
            self._count += 1

    @property
    def sum(self) -> float:
        return self._sum

    @property
    def count(self) -> int:
        return self._count

    def cumulative_counts(self) -> list[tuple[float, int]]:
        """``(le, cumulative_count)`` pairs ending with ``(inf, count)``."""
        out, running = [], 0
        with self._lock:
            for bound, n in zip(self.buckets, self._counts):
                running += n
                out.append((bound, running))
            out.append((float("inf"), self._count))
        return out


class MetricFamily:
    """One named family: kind, help text and labeled children."""

    __slots__ = ("name", "kind", "help", "buckets", "children")

    def __init__(self, name: str, kind: str, help_text: str,
                 buckets: Optional[Sequence[float]] = None):
        self.name = name
        self.kind = kind
        self.help = help_text
        self.buckets = tuple(buckets) if buckets is not None else None
        self.children: dict[tuple[tuple[str, str], ...], object] = {}


class MetricsRegistry:
    """Get-or-create registry of metric families.

    Thread-safe: family/child creation takes the registry lock, and every
    child shares that lock for its mutations (uncontended in the
    single-threaded simulators, correct when a real server wraps the
    store in threads).
    """

    def __init__(self) -> None:
        self._lock = lockwatch.make_lock("obs.registry")
        self._families: dict[str, MetricFamily] = {}  # guarded_by: _lock, reads
        self._instances = itertools.count()

    # ------------------------------------------------------------------
    # Family / child creation
    # ------------------------------------------------------------------

    def _family_locked(self, name: str, kind: str, help_text: str,
                       buckets: Optional[Sequence[float]] = None
                       ) -> MetricFamily:
        _check_name(name)
        family = self._families.get(name)
        if family is None:
            family = MetricFamily(name, kind, help_text, buckets)
            self._families[name] = family
        elif family.kind != kind:
            raise InvalidArgumentError(
                f"metric {name!r} already registered as {family.kind}, "
                f"requested {kind}")
        else:
            if help_text and not family.help:
                family.help = help_text
        return family

    def counter(self, name: str, help: str = "", **labels) -> Counter:
        with self._lock:
            family = self._family_locked(name, "counter", help)
            key = _label_key(labels)
            child = family.children.get(key)
            if child is None:
                child = Counter(key, self._lock)
                family.children[key] = child
            return child  # type: ignore[return-value]

    def gauge(self, name: str, help: str = "", **labels) -> Gauge:
        with self._lock:
            family = self._family_locked(name, "gauge", help)
            key = _label_key(labels)
            child = family.children.get(key)
            if child is None:
                child = Gauge(key, self._lock)
                family.children[key] = child
            return child  # type: ignore[return-value]

    def callback_gauge(self, name: str, help: str = "", callback=None,
                       **labels) -> CallbackGauge:
        """Register a lazily-evaluated gauge child.  Re-registering the
        same (name, labels) rebinds the callback (windows republish when
        re-wired)."""
        if callback is None:
            raise InvalidArgumentError("callback_gauge requires a callback")
        with self._lock:
            family = self._family_locked(name, "gauge", help)
            key = _label_key(labels)
            child = family.children.get(key)
            if isinstance(child, CallbackGauge):
                child._callback = callback
            else:
                child = CallbackGauge(key, callback)
                family.children[key] = child
            return child

    def histogram(self, name: str, help: str = "",
                  buckets: Optional[Sequence[float]] = None,
                  **labels) -> Histogram:
        with self._lock:
            family = self._family_locked(name, "histogram", help,
                                  buckets or SECONDS_BUCKETS)
            key = _label_key(labels)
            child = family.children.get(key)
            if child is None:
                child = Histogram(key, self._lock, family.buckets)
            family.children[key] = child
            return child  # type: ignore[return-value]

    def describe(self, name: str, kind: str, help: str = "",
                 buckets: Optional[Sequence[float]] = None) -> None:
        """Pre-register a family (HELP/TYPE exposition with no samples
        yet) so dumps always advertise the full metric surface."""
        if kind not in ("counter", "gauge", "histogram"):
            raise InvalidArgumentError(f"unknown metric kind {kind!r}")
        with self._lock:
            self._family_locked(name, kind, help, buckets)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def instance_label(self) -> str:
        """Sequential per-registry id, used to keep same-named components
        (two DBs called "db") from aliasing each other's children."""
        return str(next(self._instances))

    def collect(self) -> list[MetricFamily]:
        """Families sorted by name; children in insertion order."""
        with self._lock:
            return [self._families[name] for name in sorted(self._families)]

    def get_value(self, name: str, **labels) -> float:
        """Value of one counter/gauge child (0.0 when absent)."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return 0.0
            child = family.children.get(_label_key(labels))
            if child is None:
                return 0.0
            value = child.value  # type: ignore[union-attr]
            return 0.0 if value is None else value

    def sum_family(self, name: str) -> float:
        """Sum of all children of a counter/gauge family."""
        with self._lock:
            family = self._families.get(name)
            if family is None:
                return 0.0
            values = [child.value  # type: ignore[union-attr]
                      for child in family.children.values()]
        return sum(v for v in values if v is not None)

    def snapshot(self) -> dict:
        """Plain-dict dump ``{family: {label_tuple: value}}`` for tests
        and merging; histograms dump ``(sum, count)``.  Callback gauges
        reporting "no sample" (``None``) are skipped, matching the
        exposition behavior."""
        out: dict = {}
        with self._lock:
            for name in sorted(self._families):
                family = self._families[name]
                entries = {}
                for key, child in family.children.items():
                    if family.kind == "histogram":
                        entries[key] = (child.sum, child.count)  # type: ignore[union-attr]
                    else:
                        value = child.value  # type: ignore[union-attr]
                        if value is None:
                            continue
                        entries[key] = value
                out[family.name] = entries
        return out

