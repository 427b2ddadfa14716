"""Per-operation latency windows of one store, outside its mutex.

:class:`OpObserver` is what :class:`repro.lsm.db.LsmDB` records *per
foreground operation* rather than per maintenance event: the sliding
latency windows behind ``lsm_op_latency_window_seconds``, one per
``get`` / ``put`` / ``write``.  None of it reads or writes state the DB
mutex guards, so the store runs each operation through
:meth:`OpObserver.timed` — observed after the mutex is released — and
holds ``None`` instead of an observer when
``Options.latency_window_seconds`` is 0: the disabled hot path is one
check.
"""

from __future__ import annotations

import threading
import time
from typing import Optional

from repro.obs.window import WindowedHistogram, open_op_window

#: Ops with a window; a ``delete`` is a ``write``.
WINDOWED_OPS = ("get", "put", "write")


class OpObserver:
    """The ``get`` / ``put`` / ``write`` latency windows of one DB."""

    def __init__(self, registry, labels: dict, window_seconds: float):
        self._windows = {
            op: open_op_window(
                registry, "lsm_op_latency_window_seconds",
                "Sliding-window operation latency quantiles.",
                window_seconds, op, **labels)
            for op in WINDOWED_OPS}
        #: Per thread: is an enclosing :meth:`timed` op running?
        self._nesting = threading.local()

    @classmethod
    def build(cls, options, registry,
              labels: dict) -> Optional["OpObserver"]:
        """The observer ``options`` asks for, or None when the windows
        are off."""
        if options.latency_window_seconds <= 0:
            return None
        return cls(registry, labels, options.latency_window_seconds)

    def timed(self, op: str, call, *args):
        """Run ``call(*args)`` as foreground operation ``op`` and
        observe its latency once it returns or raises.

        Ops nest (a ``put`` is timed around the ``write`` it makes): a
        success counts for each, a failure once, for the outermost —
        a failed ``put`` is one more ``put``, not also a ``write``."""
        nesting = self._nesting
        outermost = not getattr(nesting, "active", False)
        nesting.active = True
        start = time.perf_counter()
        try:
            result = call(*args)
        except BaseException:
            if outermost:
                self._windows[op].observe(time.perf_counter() - start)
            raise
        finally:
            if outermost:
                nesting.active = False
        self._windows[op].observe(time.perf_counter() - start)
        return result

    def window(self, op: str) -> Optional[WindowedHistogram]:
        """The window of ``op``."""
        return self._windows.get(op)
