"""Per-operation telemetry of one store, outside its mutex.

:class:`OpObserver` is everything :class:`repro.lsm.db.LsmDB` records
*per foreground operation* rather than per maintenance event: the
sliding latency windows behind ``lsm_op_latency_window_seconds`` (one
per op, plus one per (op, tenant) published on first use), the
``lsm_tenant_ops_total`` counters, SLO scoring, and the attribution of a
tail-latency exemplar to the write stall that caused it.  None of it
reads or writes state the DB mutex guards, so the store runs each
operation through :meth:`OpObserver.timed` — observed after the mutex is
released — and holds ``None`` instead of an observer when both
``Options.latency_window_seconds`` and ``Options.slo_specs`` are off:
the disabled hot path is one check.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.errors import NotFoundError
from repro.obs.slo import SloEngine, build_engine
from repro.obs.window import WindowedHistogram, open_op_window

#: Ops with an aggregate (all-tenant) window; ``delete`` is windowed per
#: tenant only — in aggregate it is a ``write``.
WINDOWED_OPS = ("get", "put", "write")


class OpObserver:
    """Latency windows, tenant op counters and SLO scoring for one DB."""

    def __init__(self, registry, labels: dict, tracer,
                 window_seconds: float, slo: Optional[SloEngine]):
        self.slo = slo
        self._registry = registry
        self._labels = labels
        self._tracer = tracer
        self._window_seconds = window_seconds
        #: (op, tenant or None) -> window; tenant windows appear lazily.
        self._windows: dict[tuple, WindowedHistogram] = {}
        if window_seconds > 0:
            for op in WINDOWED_OPS:
                self._windows[(op, None)] = self._open_window(op, None)
        #: (op, tenant) -> lazily-created ``lsm_tenant_ops_total`` child.
        self._tenant_ops: dict[tuple[str, str], object] = {}
        #: Trace id of the last write-stall episode: an op with no
        #: active span of its own attributes its exemplar to the stall
        #: that delayed it.
        self._stall_trace = None
        #: Per thread: is an enclosing :meth:`timed` op running?
        self._nesting = threading.local()

    @classmethod
    def build(cls, options, registry, labels: dict, tracer,
              journals: tuple) -> Optional["OpObserver"]:
        """The observer ``options`` asks for, or None when per-op
        telemetry is off entirely."""
        slo = build_engine(options.slo_specs, registry=registry,
                           journals=journals)
        if slo is None and options.latency_window_seconds <= 0:
            return None
        return cls(registry, labels, tracer,
                   options.latency_window_seconds, slo)

    def _open_window(self, op: str,
                     tenant: Optional[str]) -> WindowedHistogram:
        return open_op_window(
            self._registry, "lsm_op_latency_window_seconds",
            "Sliding-window operation latency quantiles.",
            self._window_seconds, op, tenant=tenant, slo=self.slo,
            **self._labels)

    def note_stall(self, trace_id) -> None:
        """Remember the stall episode the next untraced op waited on."""
        self._stall_trace = trace_id

    def timed(self, op: str, tenant: Optional[str], call, *args):
        """Run ``call(*args)`` as foreground operation ``op`` and
        :meth:`observe` it once it returns or raises.

        Ops nest (a ``put`` is timed around the ``write`` it makes): a
        success counts for each, a failure once, for the outermost —
        a failed ``put`` is a bad ``put``, not also a bad ``write``."""
        nesting = self._nesting
        outermost = not getattr(nesting, "active", False)
        nesting.active = True
        start = time.perf_counter()
        try:
            result = call(*args)
        except BaseException as exc:
            # An absent key is a successful lookup, not an availability
            # failure.
            found_nothing = isinstance(exc, NotFoundError)
            if outermost or found_nothing:
                self.observe(op, time.perf_counter() - start, tenant,
                             ok=found_nothing)
            raise
        finally:
            if outermost:
                nesting.active = False
        self.observe(op, time.perf_counter() - start, tenant)
        return result

    def observe(self, op: str, seconds: float, tenant: Optional[str],
                ok: bool = True) -> None:
        """Fold one finished foreground operation into the windows, the
        tenant counters and the SLO engine."""
        ctx = self._tracer.current_context()
        if ctx is not None:
            trace = str(ctx.trace_id)
        elif self._stall_trace is not None:
            trace = str(self._stall_trace)
        else:
            trace = None
        self._stall_trace = None
        if self._window_seconds > 0:
            window = self._windows.get((op, None))
            if window is not None:
                window.observe(seconds, trace_id=trace)
            if tenant is not None:
                window = self._windows.get((op, tenant))
                if window is None:
                    window = self._windows[(op, tenant)] = \
                        self._open_window(op, tenant)
                window.observe(seconds, trace_id=trace)
        if tenant is not None:
            counter = self._tenant_ops.get((op, tenant))
            if counter is None:
                counter = self._tenant_ops[(op, tenant)] = \
                    self._registry.counter(
                        "lsm_tenant_ops_total",
                        "Operations by tenant and op.",
                        tenant=tenant, op=op, **self._labels)
            counter.inc()
        if self.slo is not None:
            self.slo.record(op, seconds, ok=ok,
                            tenant=tenant if tenant is not None
                            else "default",
                            trace_id=trace)

    def window(self, op: str) -> Optional[WindowedHistogram]:
        """The aggregate window of ``op`` (None when windows are off)."""
        return self._windows.get((op, None))

    def tenant_op_counts(self) -> dict:
        """``{tenant: {op: count}}`` for every tenant-attributed op."""
        out: dict = {}
        for (op, tenant), counter in self._tenant_ops.items():
            out.setdefault(tenant, {})[op] = int(counter.value)
        return out
