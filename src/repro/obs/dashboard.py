"""Live terminal dashboard — ``lsm top`` / ``python -m repro.bench --top``.

Renders a point-in-time view of the observability surface from a
:class:`~repro.obs.registry.MetricsRegistry` snapshot: SLO burn-rate
gauges and error budgets, windowed latency quantiles, the per-level
amplification table, stall episodes, and backend routing.  Everything
is read from the registry (plus an optional live ``LsmDB`` for the
level table), so the dashboard is a pure view: rendering never mutates
state and works headless (``--once``) without a TTY for CI smoke
checks.
"""

from __future__ import annotations

import time
from typing import Optional

#: ANSI clear-screen + home, used only between live refreshes.
CLEAR = "\x1b[2J\x1b[H"


def _labels(key: tuple) -> dict:
    return dict(key)


def _fmt_seconds(value: float) -> str:
    if value >= 1.0:
        return f"{value:7.3f}s"
    if value >= 1e-3:
        return f"{value * 1e3:6.2f}ms"
    return f"{value * 1e6:6.1f}us"


def _section(lines: list[str], title: str) -> None:
    if lines and lines[-1] != "":
        lines.append("")
    lines.append(title)


def _slo_section(lines: list[str], snapshot: dict) -> None:
    burns = snapshot.get("slo_burn_rate", {})
    budgets = snapshot.get("slo_error_budget_remaining", {})
    if not burns and not budgets:
        return
    _section(lines, "slo burn rates:")
    lines.append(f"  {'slo':<18} {'tenant':<10} {'policy':<6} "
                 f"{'short':>8} {'long':>8} {'budget':>8}")
    # group short/long pairs per (slo, tenant, policy)
    table: dict[tuple, dict] = {}
    for key, value in burns.items():
        labels = _labels(key)
        triple = (labels.get("slo", "?"), labels.get("tenant", "?"),
                  labels.get("policy", "?"))
        table.setdefault(triple, {})[labels.get("window", "?")] = value
    budget_by = { (lbl.get("slo"), lbl.get("tenant")): value
                  for lbl, value in ((_labels(k), v)
                                     for k, v in budgets.items()) }
    for (slo, tenant, policy) in sorted(table):
        windows = table[(slo, tenant, policy)]
        budget = budget_by.get((slo, tenant))
        budget_cell = f"{budget:8.2%}" if budget is not None else f"{'-':>8}"
        lines.append(
            f"  {slo:<18} {tenant:<10} {policy:<6} "
            f"{windows.get('short', 0.0):8.2f} "
            f"{windows.get('long', 0.0):8.2f} "
            f"{budget_cell}")


def _latency_section(lines: list[str], snapshot: dict) -> None:
    rows: dict[tuple, dict[str, float]] = {}
    for family in ("lsm_op_latency_window_seconds",
                   "sim_op_latency_window_seconds"):
        for key, value in snapshot.get(family, {}).items():
            labels = _labels(key)
            ident = (labels.get("tenant", "-"), labels.get("op", "?"))
            rows.setdefault(ident, {})[labels.get("quantile", "?")] = value
    if not rows:
        return
    _section(lines, "windowed latency:")
    lines.append(f"  {'tenant':<12} {'op':<6} {'p50':>9} {'p95':>9} "
                 f"{'p99':>9} {'p999':>9}")
    for (tenant, op) in sorted(rows):
        quantiles = rows[(tenant, op)]
        cells = " ".join(
            f"{_fmt_seconds(quantiles[q]):>9}" if q in quantiles
            else f"{'-':>9}"
            for q in ("p50", "p95", "p99", "p999"))
        lines.append(f"  {tenant:<12} {op:<6} {cells}")


def _levels_section(lines: list[str], snapshot: dict, db) -> None:
    if db is not None:
        from repro.obs.report import render_level_stats
        _section(lines, "levels:")
        for line in render_level_stats(db).splitlines()[2:]:
            lines.append("  " + line)
        return
    files = snapshot.get("lsm_level_files", {})
    if not files:
        return
    nbytes = snapshot.get("lsm_level_bytes", {})
    wamp = snapshot.get("lsm_level_write_amp", {})
    _section(lines, "levels:")
    lines.append(f"  {'level':<6} {'files':>6} {'size(MB)':>10} "
                 f"{'W-Amp':>8}")
    by_level: dict[int, dict] = {}
    for key, value in files.items():
        labels = _labels(key)
        by_level.setdefault(int(labels.get("level", -1)), {})[
            "files"] = value
    for family, field in ((nbytes, "bytes"), (wamp, "wamp")):
        for key, value in family.items():
            labels = _labels(key)
            by_level.setdefault(int(labels.get("level", -1)), {})[
                field] = value
    for level in sorted(by_level):
        row = by_level[level]
        lines.append(
            f"  {level:<6} {int(row.get('files', 0)):>6} "
            f"{row.get('bytes', 0) / 1e6:>10.2f} "
            f"{row.get('wamp', 0.0):>8.3f}")


def _stall_section(lines: list[str], snapshot: dict) -> None:
    episodes = snapshot.get("lsm_write_stall_seconds", {})
    stall_sum = sum(entry[0] for entry in episodes.values())
    stall_count = sum(entry[1] for entry in episodes.values())
    if stall_count == 0:
        return
    _section(lines, "write stalls:")
    lines.append(
        f"  episodes: {int(stall_count)}   total {stall_sum:.3f}s   "
        f"mean {_fmt_seconds(stall_sum / stall_count).strip()}")


def _routing_section(lines: list[str], snapshot: dict) -> None:
    tasks = snapshot.get("scheduler_backend_tasks_total", {})
    if not tasks or sum(tasks.values()) == 0:
        return
    by_backend: dict[str, float] = {}
    for key, value in tasks.items():
        backend = _labels(key).get("backend", "?")
        by_backend[backend] = by_backend.get(backend, 0) + value
    total = sum(by_backend.values())
    _section(lines, "compaction routing:")
    for backend in sorted(by_backend):
        share = by_backend[backend] / total if total else 0.0
        lines.append(f"  {backend:<10} {int(by_backend[backend]):>6} "
                     f"({share:.1%})")


def render_dashboard(registry, db=None,
                     uptime_seconds: Optional[float] = None) -> str:
    """One dashboard frame as plain text (no ANSI — safe headless)."""
    snapshot = registry.snapshot()
    lines: list[str] = ["lsm top"]
    if uptime_seconds is not None:
        lines[0] += f" — uptime {uptime_seconds:.1f}s"
    _slo_section(lines, snapshot)
    _latency_section(lines, snapshot)
    _levels_section(lines, snapshot, db)
    _stall_section(lines, snapshot)
    _routing_section(lines, snapshot)
    if len(lines) == 1:
        lines.append("")
        lines.append("(no samples yet)")
    return "\n".join(lines) + "\n"


def run_dashboard(registry, db=None, interval: float = 1.0,
                  iterations: Optional[int] = None, out=None,
                  clock=None, sleep=None) -> None:
    """Refresh loop behind ``lsm top``.

    ``iterations=1`` is the ``--once`` headless mode: print a single
    frame with no screen clearing and return.  ``out``/``clock``/
    ``sleep`` are injectable for tests (no real sleeping)."""
    import sys
    out = out if out is not None else sys.stdout
    clock = clock if clock is not None else time.monotonic
    sleep = sleep if sleep is not None else time.sleep
    started = clock()
    count = 0
    while iterations is None or count < iterations:
        frame = render_dashboard(registry, db=db,
                                 uptime_seconds=clock() - started)
        if iterations != 1 and count > 0:
            out.write(CLEAR)
        out.write(frame)
        flush = getattr(out, "flush", None)
        if flush is not None:
            flush()
        count += 1
        if iterations is not None and count >= iterations:
            break
        sleep(interval)
