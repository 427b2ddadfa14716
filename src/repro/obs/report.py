"""Human-readable stats report — LevelDB's ``GetProperty("leveldb.stats")``
idiom, rendered from the metric views.

The report is deliberately built by iterating ``DbStats.as_dict()`` /
``SchedulerStats.as_dict()`` rather than naming fields one by one, so a
counter added to the registry shows up everywhere (CLI ``stats``, bench
reports, ``db.property``) without touching this module.
"""

from __future__ import annotations

from repro.compress.encoder import block_encoder


def _fmt(value) -> str:
    if isinstance(value, float) and not float(value).is_integer():
        return f"{value:.6f}"
    return str(int(value))


def _counter_block(title: str, counts: dict) -> list[str]:
    lines = [title]
    width = max((len(k) for k in counts), default=0)
    for key, value in counts.items():
        lines.append(f"  {key.ljust(width)}  {_fmt(value)}")
    return lines


def render_db_report(db) -> str:
    """The text behind ``LsmDB.property("repro.stats")`` (``db`` is a
    :class:`repro.lsm.db.LsmDB`); the process's block encoder counters
    (:meth:`repro.compress.encoder.BlockEncoder.stats`) follow, then an
    offload block when its compaction executor keeps stats (the FPGA
    scheduler does, the plain CPU merge is a bare callable)."""
    stats = db.stats
    lines = ["repro.stats", "", "                         Compactions",
             "level   files     size(MB)"]
    lines.append("-" * 27)
    counts = db.level_file_counts()
    sizes = db.level_sizes()
    for level, (files, nbytes) in enumerate(zip(counts, sizes)):
        # lowercase "level N" keys the CLI tests rely on
        lines.append(f"level {level}   {files:5d} {nbytes / 1e6:12.2f}")
    lines.append("")
    lines.append(f"sequence: {db.versions.last_sequence}")
    lines.append(f"uptime_seconds: {db.uptime_seconds():.3f}")
    lines.append(f"journal_segments: {db.journal_segments()}")
    lines.append(f"write_amplification: {stats.write_amplification:.3f}")
    lines.append("")
    lines.extend(_counter_block("counters:", stats.as_dict()))

    cache = db.block_cache
    if cache is not None:
        lines.append("")
        lines.append(
            f"block_cache: {cache.usage} bytes cached, "
            f"hit_ratio {stats.block_cache_hit_ratio:.3f} "
            f"({int(stats.block_cache_hits)} hits / "
            f"{int(stats.block_cache_misses)} misses)")

    # Process-wide: every DB's tables go through the one encoder.
    lines.append("")
    lines.extend(_counter_block("block encoder (process):",
                                block_encoder.stats()))

    scheduler_stats = getattr(db.compaction_executor, "stats", None)
    if scheduler_stats is not None:
        lines.append("")
        lines.extend(_counter_block("offload (scheduler):",
                                    scheduler_stats.as_dict()))
        lines.append(
            f"  pcie_fraction_of_offload  "
            f"{scheduler_stats.pcie_fraction_of_offload:.4f}")
    return "\n".join(lines) + "\n"


def render_level_stats(db) -> str:
    """The text behind ``LsmDB.property("repro.levelstats")`` — the
    LevelDB ``leveldb.stats`` table extended with per-level
    amplification (write(MB)/read(MB) are cumulative compaction traffic
    into/out of each level; W-Amp/S-Amp/R-Amp are the gauges documented
    in DESIGN.md)."""
    rows = db.level_amplification()
    lines = ["repro.levelstats", "",
             "level   files     size(MB)    write(MB)     read(MB)"
             "    W-Amp    S-Amp  R-Amp",
             "-" * 76]
    tot_files = tot_bytes = tot_write = tot_read = 0
    for level, row in enumerate(rows):
        lines.append(
            f"level {level}   {row['files']:5d} "
            f"{row['bytes'] / 1e6:12.2f} {row['write_bytes'] / 1e6:12.2f} "
            f"{row['read_bytes'] / 1e6:12.2f} "
            f"{row['write_amp']:8.3f} {row['space_amp']:8.3f} "
            f"{row['read_amp']:6.0f}")
        tot_files += row["files"]
        tot_bytes += row["bytes"]
        tot_write += row["write_bytes"]
        tot_read += row["read_bytes"]
    lines.append("-" * 76)
    lines.append(
        f"total     {tot_files:5d} {tot_bytes / 1e6:12.2f} "
        f"{tot_write / 1e6:12.2f} {tot_read / 1e6:12.2f}")
    lines.append("")
    lines.append(
        f"write_amplification: {db.stats.write_amplification:.3f}")
    return "\n".join(lines) + "\n"
