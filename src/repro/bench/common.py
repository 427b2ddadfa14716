"""Shared benchmark plumbing: result container, table formatting, and
the standard engine/system configurations of the paper's evaluation."""

from __future__ import annotations

import statistics
import time
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.fpga.config import FpgaConfig
from repro.obs.window import nearest_rank

#: §VII-B: 2-input engine, W_in = W_out = 64, V swept 8..64.
VALUE_WIDTHS = (8, 16, 32, 64)
#: Table IV's value-length sweep.
VALUE_LENGTHS = (64, 128, 256, 512, 1024, 2048)
#: §VII-C1's chosen multi-input configuration.
N9_CONFIG = FpgaConfig(num_inputs=9, value_width=8, w_in=8, w_out=64)


def two_input_config(value_width: int) -> FpgaConfig:
    return FpgaConfig(num_inputs=2, value_width=value_width,
                      w_in=64, w_out=64)


@dataclass
class ExperimentResult:
    """One regenerated table or figure."""

    name: str
    title: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        self.rows.append(list(values))

    def cell(self, row: int, column: str):
        return self.rows[row][self.columns.index(column)]

    def column(self, name: str) -> list:
        index = self.columns.index(name)
        return [row[index] for row in self.rows]

    def format(self) -> str:
        """Render as a monospace table."""

        def fmt(value) -> str:
            if isinstance(value, float):
                return f"{value:.2f}"
            return str(value)

        headers = [str(c) for c in self.columns]
        body = [[fmt(v) for v in row] for row in self.rows]
        widths = [max(len(headers[i]), *(len(r[i]) for r in body))
                  if body else len(headers[i])
                  for i in range(len(headers))]
        lines = [f"== {self.name}: {self.title}"]
        lines.append("  ".join(h.rjust(w) for h, w in zip(headers, widths)))
        lines.append("  ".join("-" * w for w in widths))
        for row in body:
            lines.append("  ".join(v.rjust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)

    def to_markdown(self) -> str:
        def fmt(value) -> str:
            if isinstance(value, float):
                return f"{value:.2f}"
            return str(value)

        lines = [f"### {self.name} — {self.title}", ""]
        lines.append("| " + " | ".join(str(c) for c in self.columns) + " |")
        lines.append("|" + "|".join("---" for _ in self.columns) + "|")
        for row in self.rows:
            lines.append("| " + " | ".join(fmt(v) for v in row) + " |")
        for note in self.notes:
            lines.append("")
            lines.append(f"*{note}*")
        return "\n".join(lines)


def scaled(values: Sequence, scale: float, minimum: int = 1) -> list[int]:
    """Scale integer workload knobs for quick runs."""
    return [max(minimum, int(v * scale)) for v in values]


def scale_bytes(nbytes: int, scale: float,
                minimum: Optional[int] = None) -> int:
    floor = minimum if minimum is not None else 16 * 1024 * 1024
    return max(floor, int(nbytes * scale))


def wall_percentiles(samples: list[float]) -> tuple[float, float]:
    """(p50, p95) of wall-time samples: the median and the nearest-rank
    p95."""
    return statistics.median(samples), nearest_rank(samples, 95)


def sample_wall(fn: Callable[[], object], repeat: int,
                warmup: int) -> tuple[float, float]:
    """Wall-time ``fn`` ``repeat`` times after ``warmup`` throwaway runs;
    returns ``(p50_seconds, p95_seconds)``."""
    for _ in range(warmup):
        fn()
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return wall_percentiles(times)
