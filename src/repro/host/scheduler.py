"""Compaction-thread workflow (paper Fig 6).

The scheduler is an :class:`LsmDB`-compatible compaction executor that
routes each merge compaction to one of the registered
:mod:`repro.host.accelerator` backends per ``Options.accelerator``, and
returns the output tables with the route that ran them:

* ``"fpga-sim"`` (default) keeps the paper's Fig 6 policy: offload to
  the pipeline-sim device when the compaction's input-stream count fits
  the engine (``fpga_input_count() <= N``) — for level >= 1 that count
  is at most 2 (the sorted level concatenates into one input); for
  level 0 it is the number of overlapping L0 files plus one — and run
  the software merge otherwise ("when S_0 > N - 1, the compaction task
  will be processed completely by the software");
* ``"auto"`` runs every merge on the ``cpu`` backend, the reference
  merge.

Device results are verified against the storage contract (sorted,
disjoint output ranges), and recoverable device faults get one retry
before failing over to the CPU merge — output bytes are identical
either way, so fallback never changes the key space.  The
``fault`` / ``retry`` / ``fallback`` journal lines go where
:func:`repro.obs.journals` says: into the journals of the DB whose
compaction raised them.  Statistics land in a
:class:`repro.obs.MetricsRegistry` — the per-backend
``scheduler_backend_*`` families, per-phase time, the PCIe share — with
:class:`SchedulerStats` as a read-only view.  Each routed task also
emits a ``compaction.route`` trace span with the modeled phases as
children (marshal → pcie_in → kernel → pcie_out, or software), so a
JSONL trace reconstructs exactly where offload time went.
"""

from __future__ import annotations

from collections import Counter
from typing import Optional

from repro import obs
from repro.errors import FpgaDmaError, FpgaProtocolError, FpgaTimeoutError
from repro.host.accelerator import (
    AcceleratorBackend,
    BackendResult,
    make_backends,
)
from repro.host.device import FcaeDevice
from repro.lsm.compaction import OutputTable
from repro.lsm.internal import InternalKeyComparator
from repro.lsm.options import Options
from repro.lsm.version import CompactionSpec
from repro.obs import resolve_registry, resolve_tracer
from repro.obs.events import record
from repro.obs.names import SchedulerMetrics
from repro.obs.registry import MetricsRegistry


class SchedulerStats:
    """Routing and timing view over the scheduler's registry metrics.

    Routing is accounted once, per *backend* (cpu | fpga-sim):
    :attr:`backend_tasks` / :attr:`backend_input_bytes` /
    :attr:`backend_seconds` mirror the ``scheduler_backend_*`` metric
    families, each a :class:`collections.Counter`, so a backend that
    never ran (or is not registered) reads 0.  The paper's fpga/software
    split (Fig 6, Table VIII) is a view of them — fpga = the fpga-sim
    backend, software = the cpu merge; values are re-read from the
    registry on each access.  ``as_dict`` lets exposition iterate fields
    instead of hand-copying them.
    """

    #: Integer routing fields and float phase-timing fields, in
    #: reporting order.
    INT_FIELDS = ("fpga_tasks", "software_tasks", "fpga_input_bytes",
                  "software_input_bytes", "fpga_faults", "fpga_retries",
                  "fpga_fallbacks")
    FLOAT_FIELDS = ("fpga_kernel_seconds", "fpga_pcie_seconds",
                    "fpga_marshal_seconds", "software_seconds")
    FIELDS = INT_FIELDS + FLOAT_FIELDS

    def __init__(self, metrics: SchedulerMetrics):
        self._metrics = metrics

    # -- per-backend family --------------------------------------------

    @property
    def backend_tasks(self) -> Counter:
        """Tasks executed per backend (``scheduler_backend_tasks_total``)."""
        return Counter({backend: int(counter.value) for backend, counter
                        in self._metrics.backend_tasks.items()})

    @property
    def backend_input_bytes(self) -> Counter:
        return Counter({backend: int(counter.value) for backend, counter
                        in self._metrics.backend_input_bytes.items()})

    @property
    def backend_seconds(self) -> Counter:
        """Measured wall seconds per backend."""
        return Counter({backend: counter.value for backend, counter
                        in self._metrics.backend_seconds.items()})

    # -- the paper's split (fpga = fpga-sim, software = cpu) -----------

    @property
    def fpga_tasks(self) -> int:
        return self.backend_tasks["fpga-sim"]

    @property
    def software_tasks(self) -> int:
        return self.backend_tasks["cpu"]

    @property
    def fpga_input_bytes(self) -> int:
        return self.backend_input_bytes["fpga-sim"]

    @property
    def software_input_bytes(self) -> int:
        return self.backend_input_bytes["cpu"]

    @property
    def fpga_faults(self) -> int:
        return int(sum(c.value for c in self._metrics.faults.values()))

    @property
    def fpga_retries(self) -> int:
        return int(self._metrics.retries.value)

    @property
    def fpga_fallbacks(self) -> int:
        return int(self._metrics.fallbacks.value)

    @property
    def fpga_kernel_seconds(self) -> float:
        return self._metrics.phase_seconds["kernel"].value

    @property
    def fpga_pcie_seconds(self) -> float:
        return (self._metrics.phase_seconds["pcie_in"].value
                + self._metrics.phase_seconds["pcie_out"].value)

    @property
    def fpga_marshal_seconds(self) -> float:
        return self._metrics.phase_seconds["marshal"].value

    @property
    def software_seconds(self) -> float:
        return self._metrics.phase_seconds["software"].value

    # -- derived -------------------------------------------------------

    @property
    def total_offload_seconds(self) -> float:
        return (self.fpga_kernel_seconds + self.fpga_pcie_seconds
                + self.fpga_marshal_seconds)

    @property
    def pcie_fraction_of_offload(self) -> float:
        total = self.total_offload_seconds
        return self.fpga_pcie_seconds / total if total > 0 else 0.0

    # -- exposition ----------------------------------------------------

    def as_dict(self) -> dict[str, float]:
        """All fields as a plain dict, in :data:`FIELDS` order."""
        return {field: getattr(self, field)
                for field in SchedulerStats.FIELDS}

    def __repr__(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.as_dict().items())
        return f"SchedulerStats({inner})"


class CompactionScheduler:
    """Pluggable executor for :class:`repro.lsm.db.LsmDB`.

    Pass an instance as ``LsmDB(compaction_executor=scheduler)``; it then
    receives every merge compaction the database picks and returns
    ``(outputs, route)``: the output tables and the backend that ran
    them (``"cpu"``, ``"fpga-sim"``), or ``"fallback"`` when a faulting
    device degraded to the CPU merge.
    """

    #: Device faults the retry/fallback machinery absorbs.  Anything
    #: else (corruption, resource misconfiguration) still propagates.
    RECOVERABLE_FAULTS = (FpgaProtocolError, FpgaTimeoutError)
    #: Retries of a faulting accelerator before the CPU fallback.
    MAX_RETRIES = 1

    def __init__(self, device: FcaeDevice, options: Options | None = None,
                 metrics: Optional[MetricsRegistry] = None,
                 tracer=None,
                 backends: Optional[dict[str, AcceleratorBackend]] = None):
        self.device = device
        self.options = options or device.options
        self.comparator = InternalKeyComparator(self.options.comparator)
        self.tracer = resolve_tracer(tracer)
        self.backends = backends or make_backends(
            device, self.options, self.comparator, device.cpu_model,
            tracer=self.tracer)
        if "cpu" not in self.backends:
            raise ValueError("backend registry must include 'cpu' "
                             "(the terminal fallback target)")
        self.metrics = resolve_registry(metrics)
        self._m = SchedulerMetrics(self.metrics,
                                   inst=self.metrics.instance_label())
        self.stats = SchedulerStats(self._m)

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------

    def pick_backend(self, spec: CompactionSpec) -> str:
        """Backend ``spec`` will route to under ``Options.accelerator``.

        ``"fpga-sim"`` returns the device, or ``"cpu"`` when the
        input-stream count exceeds the engine's N (Fig 6's branch);
        ``"auto"`` returns ``"cpu"``.
        """
        if (self.options.accelerator == "fpga-sim"
                and self.backends["fpga-sim"].can_run(spec)):
            return "fpga-sim"
        return "cpu"

    def __call__(self, spec: CompactionSpec, input_tables: list,
                 parent_tables: list,
                 drop_deletions: bool) -> tuple[list[OutputTable], str]:
        name = self.pick_backend(spec)
        backend = self.backends[name]
        self._m.backend_tasks[name].inc()
        self._m.task_input_bytes.observe(spec.total_input_bytes)
        with self.tracer.span(
                "compaction.route", route=name, level=spec.level,
                input_streams=spec.fpga_input_count()) as span:
            if name == "cpu":
                # The reference merge has no device faults to absorb.
                return self._run_backend(
                    backend, spec, input_tables, parent_tables,
                    drop_deletions), name
            return self._run_with_recovery(
                backend, spec, input_tables, parent_tables,
                drop_deletions, span)

    def _run_with_recovery(self, backend: AcceleratorBackend,
                           spec: CompactionSpec,
                           input_tables: list, parent_tables: list,
                           drop_deletions: bool,
                           span) -> tuple[list[OutputTable], str]:
        """Offload with :data:`MAX_RETRIES` retries; degrade to the CPU
        merge when the device keeps failing (Fig 6's software path).
        Every backend produces byte-identical tables, so failover
        preserves the key space exactly."""
        for attempt in range(1, self.MAX_RETRIES + 2):
            try:
                return self._run_backend(
                    backend, spec, input_tables, parent_tables,
                    drop_deletions), backend.name
            except self.RECOVERABLE_FAULTS as error:
                kind = self._fault_kind(error)
                self._m.faults[kind].inc()
                journals = obs.journals()
                record(journals, "fault", kind=kind, level=spec.level,
                       attempt=attempt, backend=backend.name)
                span.set(fault=kind, attempts=attempt)
                if attempt <= self.MAX_RETRIES:
                    self._m.retries.inc()
                    record(journals, "retry", kind=kind, level=spec.level,
                           attempt=attempt, backend=backend.name)
        self._m.fallbacks.inc()
        record(journals, "fallback", kind=kind, level=spec.level,
               source=backend.name, target="cpu")
        span.set(fallback=True)
        return self._run_backend(self.backends["cpu"], spec, input_tables,
                                 parent_tables, drop_deletions), "fallback"

    @staticmethod
    def _fault_kind(error: Exception) -> str:
        if isinstance(error, FpgaTimeoutError):
            return "timeout"
        if isinstance(error, FpgaDmaError):
            return "dma"
        return "protocol"

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _run_backend(self, backend: AcceleratorBackend,
                     spec: CompactionSpec, input_tables: list,
                     parent_tables: list,
                     drop_deletions: bool) -> list[OutputTable]:
        result: BackendResult = backend.run(spec, input_tables,
                                            parent_tables, drop_deletions)
        self._m.backend_input_bytes[backend.name].inc(result.input_bytes)
        self._m.backend_seconds[backend.name].inc(result.wall_seconds)
        for phase, seconds in result.phase_seconds.items():
            self._m.phase_seconds[phase].inc(seconds)
        if backend.name != "cpu":
            self._verify(result.outputs)
        return result.outputs

    # ------------------------------------------------------------------
    # Contract checks
    # ------------------------------------------------------------------

    def _verify(self, outputs: list[OutputTable]) -> None:
        """The FPGA result must honor the storage format's invariants:
        per-table sorted ranges and cross-table disjointness."""
        for prev, cur in zip(outputs, outputs[1:]):
            if self.comparator.compare(prev.largest, cur.smallest) >= 0:
                raise FpgaProtocolError(
                    "FPGA produced overlapping output tables")
        for output in outputs:
            if self.comparator.compare(output.smallest, output.largest) > 0:
                raise FpgaProtocolError(
                    "FPGA produced an inverted table key range")
