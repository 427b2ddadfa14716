"""Fault injection for the FPGA offload path.

A :class:`FaultInjector` attaches to :class:`repro.host.device.FcaeDevice`
and makes ``compact`` fail in controlled ways, so the scheduler's retry /
software-fallback machinery (and its "never surface a device fault to a
writer" guarantee) can be exercised deterministically:

* ``protocol_error_every=N`` — every Nth offload raises
  :class:`~repro.errors.FpgaProtocolError` (a MetaOut contract
  violation);
* ``timeout_every=N`` — every Nth offload raises
  :class:`~repro.errors.FpgaTimeoutError` (hung kernel / lost
  completion);
* ``dma_error_rate=p`` — each offload additionally fails with
  probability ``p`` with :class:`~repro.errors.FpgaDmaError` (flaky
  link), from a seeded RNG so runs replay.

Counters distinguish deterministic schedules from the random DMA faults;
``injected_faults`` is the total, which fault-injection tests compare to
``scheduler_fallbacks_total``.

One injector can serve several accelerator backends (the scheduler
shares the device's injector with the batch backend): each ``check``
call carries a ``backend`` tag, ``faults_by_backend`` splits the injected
totals per backend, and the raised error remembers its source backend in
``error.backend`` so fallback events can record the source→target pair.
"""

from __future__ import annotations

import random
import threading

from repro.errors import FpgaDmaError, FpgaProtocolError, FpgaTimeoutError


class FaultInjector:
    """Deterministic fault schedule for one device.

    The ``every`` counters are 1-based on the device's task counter: with
    ``protocol_error_every=3`` tasks 3, 6, 9, ... fail.  A task that
    matches several schedules raises the first in (protocol, timeout,
    dma) order — one fault per task, so callers can equate injected
    faults with failed attempts.
    """

    def __init__(self, protocol_error_every: int = 0,
                 timeout_every: int = 0,
                 dma_error_rate: float = 0.0,
                 seed: int = 0):
        if protocol_error_every < 0 or timeout_every < 0:
            raise ValueError("fault periods must be >= 0")
        if not 0.0 <= dma_error_rate <= 1.0:
            raise ValueError("dma_error_rate must be in [0, 1]")
        self.protocol_error_every = protocol_error_every
        self.timeout_every = timeout_every
        self.dma_error_rate = dma_error_rate
        self._rng = random.Random(seed)
        self._lock = threading.Lock()
        self.tasks_seen = 0
        self.injected_faults = 0
        self.faults_by_kind = {"protocol": 0, "timeout": 0, "dma": 0}
        self.faults_by_backend: dict[str, int] = {}

    def check(self, input_bytes: int = 0,
              backend: str = "fpga-sim") -> None:
        """Called by a backend at the start of each offload; raises the
        scheduled fault, if any, tagged with the offloading backend."""
        with self._lock:
            self.tasks_seen += 1
            task = self.tasks_seen
            if (self.protocol_error_every
                    and task % self.protocol_error_every == 0):
                kind, error = "protocol", FpgaProtocolError(
                    f"injected protocol error on task {task} "
                    f"({backend})")
            elif self.timeout_every and task % self.timeout_every == 0:
                kind, error = "timeout", FpgaTimeoutError(
                    f"injected timeout on task {task} ({backend})")
            elif (self.dma_error_rate
                    and self._rng.random() < self.dma_error_rate):
                kind, error = "dma", FpgaDmaError(
                    f"injected DMA failure on task {task} "
                    f"({input_bytes} bytes, {backend})")
            else:
                return
            self.injected_faults += 1
            self.faults_by_kind[kind] += 1
            self.faults_by_backend[backend] = (
                self.faults_by_backend.get(backend, 0) + 1)
        error.backend = backend
        raise error

    def __repr__(self) -> str:
        return (f"FaultInjector(seen={self.tasks_seen}, "
                f"injected={self.injected_faults}, "
                f"by_kind={self.faults_by_kind}, "
                f"by_backend={self.faults_by_backend})")
