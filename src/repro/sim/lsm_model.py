"""Statistical LSM shape model for the system simulator.

The discrete-event simulator cannot afford real SSTables at terabyte
scale, so levels are modelled statistically: each level holds ``bytes``
spread over files of ~``sstable_size``, uniformly covering the key space
(true for db_bench's random keys).  Compaction picking follows LevelDB
v1.1's rules — the same rules :class:`repro.lsm.version.VersionSet`
implements over real file metadata:

* level 0 compacts at ``L0_COMPACTION_TRIGGER`` files; all L0 files (they
  mutually overlap, each spanning the key space) plus the whole
  overlapping portion of L1 join;
* level i >= 1 compacts when its bytes exceed the ``leveling_ratio``
  budget; one file plus its expected key-range overlap of level i+1 —
  about ``ratio + 1`` files once the child level is populated — joins.

Survival fractions (:data:`L0_SURVIVAL`, :data:`DEEP_SURVIVAL`) model
the duplicate/tombstone shrink the Validity Check performs.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import SimulationError
from repro.lsm.options import (
    L0_COMPACTION_TRIGGER,
    L0_SLOWDOWN_TRIGGER,
    L0_STOP_TRIGGER,
    NUM_LEVELS,
    Options,
)

#: Shares of input bytes a merge keeps: of the L0 files in an L0 -> L1
#: merge (the L1 overlap survives whole), and of a deeper merge's input.
L0_SURVIVAL = 0.92
DEEP_SURVIVAL = 0.98


@dataclass
class ModelCompactionTask:
    """One merge compaction in the statistical model."""

    level: int
    input_bytes: int
    l0_files_consumed: int
    fpga_input_count: int
    output_bytes: int

    @property
    def output_level(self) -> int:
        return self.level + 1


@dataclass
class LevelModelStats:
    compactions: int = 0
    compaction_input_bytes: int = 0
    compaction_output_bytes: int = 0
    flushed_bytes: int = 0

    def write_amplification(self) -> float:
        """Compaction + flush bytes written per user byte flushed."""
        if self.flushed_bytes == 0:
            return 1.0
        return 1.0 + self.compaction_output_bytes / self.flushed_bytes


class LsmShapeModel:
    """Level byte/file accounting with LevelDB's trigger rules."""

    def __init__(self, options: Options):
        self.options = options
        #: Level byte budgets, index = level (0 unused: file-count limited).
        self._budgets = [0] + [options.max_bytes_for_level(level)
                               for level in range(1, NUM_LEVELS - 1)]
        #: ``(level, float budget)`` for the score scan
        self._score_budgets = [(level, float(self._budgets[level]))
                               for level in range(1, NUM_LEVELS - 1)]
        self.l0_files = 0
        self.l0_bytes = 0
        self.level_bytes = [0] * NUM_LEVELS  # index 0 unused (l0_* above)
        self.stats = LevelModelStats()
        #: levels with a compaction in flight (prevents double-picking)
        self._busy_levels: set[int] = set()

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def add_l0_file(self, nbytes: int) -> None:
        self.l0_files += 1
        self.l0_bytes += nbytes
        self.stats.flushed_bytes += nbytes

    # ------------------------------------------------------------------
    # Trigger queries
    # ------------------------------------------------------------------

    @property
    def slowdown(self) -> bool:
        return self.l0_files >= L0_SLOWDOWN_TRIGGER

    @property
    def stopped(self) -> bool:
        return self.l0_files >= L0_STOP_TRIGGER

    def compaction_score(self) -> tuple[float, int]:
        best_score = self.l0_files / float(L0_COMPACTION_TRIGGER)
        best_level = 0
        level_bytes = self.level_bytes
        for level, budget in self._score_budgets:
            score = level_bytes[level] / budget
            if score > best_score:
                best_score = score
                best_level = level
        return best_score, best_level

    def needs_compaction(self) -> bool:
        score, level = self.compaction_score()
        return score >= 1.0 and level not in self._busy_levels

    # ------------------------------------------------------------------
    # Picking / applying
    # ------------------------------------------------------------------

    def pick_compaction(self) -> ModelCompactionTask | None:
        """Reserve the most urgent compaction, or ``None``.

        The chosen level is marked busy until :meth:`apply` (completion);
        the *inputs* are debited immediately so the same bytes are not
        picked twice, matching a real version set where inputs leave the
        pickable set once a job claims them.
        """
        score, level = self.compaction_score()
        if score < 1.0:
            # Every level is under its trigger (a quotient below 1.0 means
            # bytes below budget), so the fallback would find none.
            return None
        if level in self._busy_levels:
            # A deeper non-busy level may still be over budget.
            candidate = self._fallback_level()
            if candidate is None:
                return None
            level = candidate
        task = self._build_task(level)
        if task is None:
            return None
        self._busy_levels.add(level)
        return task

    def _fallback_level(self) -> int | None:
        if (self.l0_files >= L0_COMPACTION_TRIGGER
                and 0 not in self._busy_levels):
            return 0
        for level in range(1, NUM_LEVELS - 1):
            if level in self._busy_levels:
                continue
            if self.level_bytes[level] > self._budgets[level]:
                return level
        return None

    def _build_task(self, level: int) -> ModelCompactionTask | None:
        sstable = self.options.sstable_size
        if level == 0:
            if self.l0_files == 0:
                return None
            l0_files = self.l0_files
            l0_bytes = self.l0_bytes
            # Every L0 file spans the key space, so all of L1 overlaps.
            overlap = self.level_bytes[1]
            input_bytes = l0_bytes + overlap
            output_bytes = int(l0_bytes * L0_SURVIVAL + overlap)
            self.l0_files = 0
            self.l0_bytes = 0
            self.level_bytes[1] -= overlap
            return ModelCompactionTask(
                level=0,
                input_bytes=input_bytes,
                l0_files_consumed=l0_files,
                fpga_input_count=l0_files + (1 if overlap else 0),
                output_bytes=output_bytes,
            )
        if self.level_bytes[level] < sstable:
            return None
        # Drain the level's excess in one job.  LevelDB picks one file per
        # compaction, but its round-robin pointer sweeps the whole excess
        # before the level shrinks below budget; batching the sweep into
        # one task keeps the event count tractable without changing the
        # bytes moved.
        budget = self._budgets[level]
        file_bytes = min(self.level_bytes[level],
                         max(sstable, self.level_bytes[level] - budget))
        # Expected overlap: the file covers file_bytes/level_bytes of the
        # key space; the child level holds child_bytes over that space.
        child = self.level_bytes[level + 1]
        coverage = file_bytes / max(1, self.level_bytes[level])
        overlap = min(child, int(coverage * child) + (sstable if child else 0))
        input_bytes = file_bytes + overlap
        output_bytes = int(input_bytes * DEEP_SURVIVAL)
        self.level_bytes[level] -= file_bytes
        self.level_bytes[level + 1] -= overlap
        return ModelCompactionTask(
            level=level,
            input_bytes=input_bytes,
            l0_files_consumed=0,
            fpga_input_count=2 if overlap else 1,
            output_bytes=output_bytes,
        )

    def apply(self, task: ModelCompactionTask) -> None:
        """A compaction finished: credit its outputs."""
        if task.level not in self._busy_levels:
            raise SimulationError(
                f"apply for level {task.level} without a pending pick")
        self._busy_levels.discard(task.level)
        self.level_bytes[task.output_level] += task.output_bytes
        self.stats.compactions += 1
        self.stats.compaction_input_bytes += task.input_bytes
        self.stats.compaction_output_bytes += task.output_bytes

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def total_bytes(self) -> int:
        return self.l0_bytes + sum(self.level_bytes)

