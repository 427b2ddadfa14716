"""A compaction backend that faults on a schedule, for the scheduler's
retry / fallback tests.

The program has no fault hooks: a test wraps the registry's ``fpga-sim``
backend in :class:`FaultingBackend` and hands the registry to
``CompactionScheduler(backends=...)`` — the seam the routing tests use
for their stub backends — so faults come from the backend that ran.
"""

from __future__ import annotations

import random
import threading

from repro.errors import FpgaDmaError, FpgaProtocolError, FpgaTimeoutError
from repro.host.accelerator import AcceleratorBackend, make_backends
from repro.lsm.internal import InternalKeyComparator


class FaultingBackend(AcceleratorBackend):
    """Runs ``inner`` after raising this run's scheduled fault, if any.

    The ``*_every`` periods count this backend's runs, 1-based: with
    ``protocol_error_every=3`` runs 3, 6, 9, ... fail.  A run matching
    several schedules raises the first of (protocol, timeout, dma) — one
    fault per run, so injected faults equal failed attempts.  DMA faults
    come from a fixed-seed RNG, so runs replay.
    """

    def __init__(self, inner: AcceleratorBackend,
                 protocol_error_every: int = 0, timeout_every: int = 0,
                 dma_error_rate: float = 0.0):
        self.inner = inner
        self.name = inner.name
        self.protocol_error_every = protocol_error_every
        self.timeout_every = timeout_every
        self.dma_error_rate = dma_error_rate
        self._rng = random.Random(0)
        self._lock = threading.Lock()
        self.runs = 0
        self.faults_by_kind = {"protocol": 0, "timeout": 0, "dma": 0}

    @property
    def injected_faults(self) -> int:
        return sum(self.faults_by_kind.values())

    def can_run(self, spec) -> bool:
        return self.inner.can_run(spec)

    def run(self, spec, input_tables, parent_tables, drop_deletions):
        self._check(spec.total_input_bytes)
        return self.inner.run(spec, input_tables, parent_tables,
                              drop_deletions)

    def _check(self, input_bytes: int) -> None:
        with self._lock:
            self.runs += 1
            run = self.runs
            where = f"run {run} of {self.name}"
            if (self.protocol_error_every
                    and run % self.protocol_error_every == 0):
                kind, error = "protocol", FpgaProtocolError(
                    f"injected protocol error on {where}")
            elif self.timeout_every and run % self.timeout_every == 0:
                kind, error = "timeout", FpgaTimeoutError(
                    f"injected timeout on {where}")
            elif (self.dma_error_rate
                    and self._rng.random() < self.dma_error_rate):
                kind, error = "dma", FpgaDmaError(
                    f"injected DMA failure on {where} "
                    f"({input_bytes} bytes)")
            else:
                return
            self.faults_by_kind[kind] += 1
        raise error


def faulting_registry(device, options,
                      **schedule) -> tuple[dict, FaultingBackend]:
    """The standard registry with its ``fpga-sim`` backend wrapped in a
    :class:`FaultingBackend` with ``schedule``: a scheduler in
    ``fpga-sim`` mode routes every task the device can run to it, and
    the rest to ``cpu``.  Returns the registry and the wrapper."""
    backends = make_backends(device, options,
                             InternalKeyComparator(options.comparator),
                             device.cpu_model)
    faulting = backends["fpga-sim"] = FaultingBackend(backends["fpga-sim"],
                                                      **schedule)
    return backends, faulting
