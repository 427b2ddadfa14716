"""SLO engine: declarative objectives, error budgets, burn-rate alerts.

This module turns the raw observability substrate (metrics registry,
windowed histograms, flight-recorder journal) into an opinionated
answer to "are we violating the SLO, and how fast?":

* :class:`SloSpec` — a declarative objective: *latency* ("99% of gets
  under 5 ms") or *availability* ("99.9% of ops succeed"), scoped to an
  operation and a tenant (``"*"`` wildcards).
* :class:`SloEngine` — per-(spec, tenant) good/bad accounting over
  :mod:`repro.obs.window`'s sliding slot ring, Google-SRE-style
  **multi-window multi-burn-rate** alerting (the default policies pair
  a 5m/1h fast burn at 14.4x with a 1h/6h slow burn at 6x), and
  error-budget-remaining gauges.  Alert transitions are emitted as
  ``slo_alert`` events into the journal; tail violations that carry a
  trace id are emitted as ``exemplar`` events, closing the loop from
  "p99 violated" to the compaction or stall span that caused it.

The engine runs on a pluggable clock: wall time by default, simulated
time in the open-loop simulator (``fcae-bench slo``) — burn windows
slide on modeled seconds, so a 5-minute fast burn can be exercised in
milliseconds of real time.

Burn rate follows the SRE workbook definition::

    burn = (bad_fraction over window) / (1 - target)

A burn rate of 1.0 consumes exactly the error budget over the SLO
period; an alert policy fires when *both* its short and long windows
burn at >= ``factor`` (the short window makes the alert fast, the long
window makes it not flap).
"""

from __future__ import annotations

import threading
import time
from typing import Optional, Sequence

from repro.errors import InvalidArgumentError
from repro.obs.events import record
from repro.obs.window import WindowedHistogram

__all__ = [
    "BurnPolicy", "DEFAULT_POLICIES", "SloSpec", "SloEngine",
    "parse_slo_specs",
]

#: Good/bad as a two-bucket window: a good operation observes 0.0 (the
#: first bucket), a bad one 1.0 (the overflow bucket).
_GOOD_BAD_BUCKETS = (0.0,)


class BurnPolicy:
    """One multi-window burn-rate alerting rule.

    Fires when the burn rate over *both* ``short_seconds`` and
    ``long_seconds`` is at least ``factor``.  The canonical fast-burn
    policy (5m/1h at 14.4x) pages on a budget that would be gone in two
    hours; the slow-burn policy (1h/6h at 6x) tickets on sustained
    slow bleed."""

    __slots__ = ("name", "short_seconds", "long_seconds", "factor")

    def __init__(self, name: str, short_seconds: float,
                 long_seconds: float, factor: float):
        if short_seconds <= 0 or long_seconds <= 0:
            raise InvalidArgumentError("burn windows must be positive")
        if long_seconds < short_seconds:
            raise InvalidArgumentError(
                f"policy {name!r}: long window {long_seconds} shorter "
                f"than short window {short_seconds}")
        if factor <= 0:
            raise InvalidArgumentError("burn factor must be positive")
        self.name = str(name)
        self.short_seconds = float(short_seconds)
        self.long_seconds = float(long_seconds)
        self.factor = float(factor)

    def __repr__(self) -> str:
        return (f"BurnPolicy({self.name!r}, {self.short_seconds}, "
                f"{self.long_seconds}, {self.factor})")


#: Google-SRE-workbook default pairing: fast page, slow ticket.
DEFAULT_POLICIES = (
    BurnPolicy("fast", 300.0, 3600.0, 14.4),
    BurnPolicy("slow", 3600.0, 21600.0, 6.0),
)

_OBJECTIVES = ("latency", "availability")


class SloSpec:
    """One declarative objective.

    Parameters
    ----------
    name:
        Unique id, used in metric labels and journal events.
    objective:
        ``"latency"`` — an op is *bad* when it fails or exceeds
        ``threshold_seconds``; ``"availability"`` — bad only on failure.
    target:
        Fraction of ops that must be good, in (0, 1); the error budget
        is ``1 - target``.
    threshold_seconds:
        Latency threshold (required for latency objectives).
    op:
        Operation this spec scores (``"get"``, ``"put"``, ...) or
        ``"*"`` for all.
    tenant:
        Tenant this spec scores, or ``"*"`` to account each tenant
        against its own budget.
    policies:
        Burn-rate alert policies (defaults to :data:`DEFAULT_POLICIES`).
    """

    __slots__ = ("name", "objective", "target", "threshold_seconds",
                 "op", "tenant", "policies")

    def __init__(self, name: str, objective: str = "latency",
                 target: float = 0.99,
                 threshold_seconds: Optional[float] = None,
                 op: str = "*", tenant: str = "*",
                 policies: Sequence[BurnPolicy] = DEFAULT_POLICIES):
        if not name:
            raise InvalidArgumentError("SLO spec needs a name")
        if objective not in _OBJECTIVES:
            raise InvalidArgumentError(
                f"unknown objective {objective!r} (expected one of "
                f"{_OBJECTIVES})")
        if not 0.0 < target < 1.0:
            raise InvalidArgumentError(
                f"SLO target must be in (0, 1), got {target}")
        if objective == "latency":
            if threshold_seconds is None or threshold_seconds <= 0:
                raise InvalidArgumentError(
                    "latency objective requires threshold_seconds > 0")
        if not policies:
            raise InvalidArgumentError("SLO spec needs >= 1 burn policy")
        self.name = str(name)
        self.objective = objective
        self.target = float(target)
        self.threshold_seconds = (None if threshold_seconds is None
                                  else float(threshold_seconds))
        self.op = str(op)
        self.tenant = str(tenant)
        # Accept dict policies so call sites can write literal policy
        # tables inline.
        self.policies = tuple(
            p if isinstance(p, BurnPolicy) else BurnPolicy(
                p["name"], p["short_seconds"], p["long_seconds"],
                p["factor"])
            for p in policies)

    @property
    def error_budget(self) -> float:
        """Allowed bad fraction: ``1 - target``."""
        return 1.0 - self.target

    def matches(self, op: str, tenant: str) -> bool:
        return (self.op in ("*", op)) and (self.tenant in ("*", tenant))

    def __repr__(self) -> str:
        return (f"SloSpec({self.name!r}, {self.objective!r}, "
                f"target={self.target}, op={self.op!r}, "
                f"tenant={self.tenant!r})")


def parse_slo_specs(specs) -> tuple:
    """``specs`` (:class:`SloSpec` instances) as a tuple, checking that
    their names are unique."""
    out = tuple(specs)
    seen = set()
    for spec in out:
        if spec.name in seen:
            raise InvalidArgumentError(
                f"duplicate SLO spec name {spec.name!r}")
        seen.add(spec.name)
    return out


# ----------------------------------------------------------------------
# The engine
# ----------------------------------------------------------------------


class SloEngine:
    """Error-budget accounting and burn-rate alerting over live traffic.

    The hot-path entry point is :meth:`record` — classify one operation
    against every matching spec and bucket it good/bad.  Evaluation
    (:meth:`evaluate`) recomputes burn rates, updates the gauges, and
    emits ``slo_alert`` journal events on firing/resolved transitions;
    :meth:`record` self-triggers it every :attr:`EVAL_INTERVAL` clock
    seconds at most, so callers never need a background thread.

    Parameters
    ----------
    specs:
        ``SloSpec`` instances (names checked by :func:`parse_slo_specs`).
    registry:
        Optional :class:`~repro.obs.registry.MetricsRegistry`; when set,
        the engine publishes ``slo_events_total``, ``slo_burn_rate``,
        ``slo_error_budget_remaining`` and ``slo_alerts_total``.
    journals:
        Tuple of journals for ``slo_alert`` / ``exemplar`` events
        (empty: not recorded).
    clock:
        Seconds callable (defaults to ``time.monotonic``); simulators
        pass their virtual clock.
    """

    #: Minimum clock seconds between self-triggered evaluations.
    EVAL_INTERVAL = 1.0

    #: Per-(spec, tenant) rate limit, in clock seconds, on ``exemplar``
    #: journal events so a storm of violations does not flood the
    #: journal.
    EXEMPLAR_MIN_INTERVAL = 1.0

    def __init__(self, specs, registry=None, journals=(), clock=None):
        self.specs = parse_slo_specs(specs)
        if not self.specs:
            raise InvalidArgumentError("SloEngine needs >= 1 spec")
        self._registry = registry
        self._journals = tuple(journals)
        self._clock = clock if clock is not None else time.monotonic
        self._lock = threading.Lock()
        shortest = min(p.short_seconds for s in self.specs
                       for p in s.policies)
        self._horizon = max(p.long_seconds for s in self.specs
                            for p in s.policies)
        self._slice_seconds = shortest / 5.0
        # (spec index, tenant) -> good/bad ring
        self._rings: dict[tuple[int, str], WindowedHistogram] = {}
        # (spec index, tenant, policy name) -> currently firing?
        self._alert_state: dict[tuple[int, str, str], bool] = {}
        self._last_eval = float("-inf")
        self._last_exemplar: dict[tuple[int, str], float] = {}
        # Cached metric children (get-or-create once, inc forever).
        self._event_children: dict = {}
        self._alert_children: dict = {}
        #: Every alert transition ever emitted, in order — the in-memory
        #: mirror of the ``slo_alert`` journal stream, for callers
        #: (simulators, tests) that have no journal attached.
        self.alert_log: list = []

    # -- recording ------------------------------------------------------

    def _ring_for(self, index: int, tenant: str) -> WindowedHistogram:
        """The ``(spec, tenant)`` good/bad ring: it covers the longest
        burn window at the resolution of the shortest, and every policy
        window is read out of it."""
        key = (index, tenant)
        ring = self._rings.get(key)
        if ring is None:
            ring = WindowedHistogram(
                self._horizon, buckets=_GOOD_BAD_BUCKETS, clock=self._clock,
                slice_seconds=self._slice_seconds)
            self._rings[key] = ring
        return ring

    def _count_event(self, spec: SloSpec, tenant: str,
                     outcome: str) -> None:
        if self._registry is None:
            return
        key = (spec.name, tenant, outcome)
        child = self._event_children.get(key)
        if child is None:
            child = self._registry.counter(
                "slo_events_total",
                "Operations classified against an SLO, by outcome.",
                slo=spec.name, tenant=tenant, outcome=outcome)
            self._event_children[key] = child
        child.inc()

    def record(self, op: str, seconds: float, ok: bool = True,
               tenant: str = "default",
               trace_id: Optional[str] = None) -> None:
        """Score one operation against every matching spec."""
        emit_exemplars = []
        with self._lock:
            for index, spec in enumerate(self.specs):
                if not spec.matches(op, tenant):
                    continue
                if spec.objective == "latency":
                    bad = (not ok) or seconds > spec.threshold_seconds
                else:
                    bad = not ok
                self._ring_for(index, tenant).observe(
                    1.0 if bad else 0.0)
                self._count_event(spec, tenant,
                                  "bad" if bad else "good")
                if (bad and trace_id is not None
                        and spec.objective == "latency"):
                    now = self._clock()
                    key = (index, tenant)
                    last = self._last_exemplar.get(key, float("-inf"))
                    if now - last >= self.EXEMPLAR_MIN_INTERVAL:
                        self._last_exemplar[key] = now
                        emit_exemplars.append(
                            {"slo": spec.name, "tenant": tenant,
                             "op": op, "trace": trace_id,
                             "value": seconds,
                             "threshold": spec.threshold_seconds})
        for fields in emit_exemplars:
            record(self._journals, "exemplar", **fields)
        now = self._clock()
        if now - self._last_eval >= self.EVAL_INTERVAL:
            self.evaluate()

    # -- evaluation -----------------------------------------------------

    def _burn_rate(self, ring: WindowedHistogram, spec: SloSpec,
                   window_seconds: float) -> Optional[float]:
        (_, bad), _, total = ring.snapshot(window_seconds)
        if total == 0:
            return None
        return bad / total / spec.error_budget

    def _count_alert(self, spec: SloSpec, tenant: str, policy: str,
                     state: str) -> None:
        if self._registry is None:
            return
        key = (spec.name, tenant, policy, state)
        child = self._alert_children.get(key)
        if child is None:
            child = self._registry.counter(
                "slo_alerts_total",
                "Burn-rate alert transitions.",
                slo=spec.name, tenant=tenant, policy=policy, state=state)
            self._alert_children[key] = child
        child.inc()

    def evaluate(self) -> list[dict]:
        """Recompute burn rates, publish gauges, emit alert transitions.

        Returns the ``slo_alert`` records emitted by this evaluation
        (empty when no state changed)."""
        transitions = []
        with self._lock:
            self._last_eval = self._clock()
            for (index, tenant), ring in self._rings.items():
                spec = self.specs[index]
                longest = max(p.long_seconds for p in spec.policies)
                long_burn = self._burn_rate(ring, spec, longest)
                if self._registry is not None and long_burn is not None:
                    self._registry.gauge(
                        "slo_error_budget_remaining",
                        "Fraction of the error budget left over the "
                        "longest policy window.",
                        slo=spec.name, tenant=tenant,
                    ).set(max(0.0, 1.0 - long_burn))
                for policy in spec.policies:
                    burn_short = self._burn_rate(ring, spec,
                                                 policy.short_seconds)
                    burn_long = self._burn_rate(ring, spec,
                                                policy.long_seconds)
                    if self._registry is not None:
                        for window, burn in (("short", burn_short),
                                             ("long", burn_long)):
                            if burn is None:
                                continue
                            self._registry.gauge(
                                "slo_burn_rate",
                                "Error-budget burn rate (1.0 consumes "
                                "the budget exactly over the SLO "
                                "period).",
                                slo=spec.name, tenant=tenant,
                                policy=policy.name, window=window,
                            ).set(burn)
                    firing = (burn_short is not None
                              and burn_long is not None
                              and burn_short >= policy.factor
                              and burn_long >= policy.factor)
                    key = (index, tenant, policy.name)
                    was_firing = self._alert_state.get(key, False)
                    if firing == was_firing:
                        continue
                    self._alert_state[key] = firing
                    state = "firing" if firing else "resolved"
                    self._count_alert(spec, tenant, policy.name, state)
                    transitions.append(
                        {"slo": spec.name, "tenant": tenant,
                         "policy": policy.name, "state": state,
                         "burn_short": 0.0 if burn_short is None
                         else burn_short,
                         "burn_long": 0.0 if burn_long is None
                         else burn_long,
                         "factor": policy.factor})
        self.alert_log.extend(transitions)
        for fields in transitions:
            record(self._journals, "slo_alert", **fields)
        return transitions

    # -- introspection --------------------------------------------------

    def firing(self) -> list[tuple[str, str, str]]:
        """``(slo, tenant, policy)`` triples currently in firing state."""
        with self._lock:
            return sorted(
                (self.specs[index].name, tenant, policy)
                for (index, tenant, policy), live
                in self._alert_state.items() if live)


def build_engine(specs, registry=None, journals=(), clock=None
                 ) -> Optional[SloEngine]:
    """``SloEngine`` when ``specs`` is non-empty, else ``None`` — the
    shape instrumented code wants (one ``is None`` check on the hot
    path when SLOs are not configured)."""
    specs = tuple(specs or ())
    if not specs:
        return None
    return SloEngine(specs, registry=registry, journals=journals,
                     clock=clock)
