"""Concurrency-contract analyzer: static lint + runtime lock watchdog.

Two halves, one contract:

* :mod:`repro.analysis.lockdiscipline` / :mod:`repro.analysis.contracts`
  — an AST-based static pass that codifies the repo's ``*_locked``
  naming convention and guarded-attribute registry the way Clang's
  thread-safety annotations codify ``GUARDED_BY``, plus repo-wide
  contract lints (metric names must exist in
  :data:`repro.obs.names.FAMILIES`, journal event types must be known
  to ``tools/validate_events.py``, no swallowed ``BaseException`` on
  worker paths).  Run it as ``python -m repro.analysis src/`` or via
  ``tools/lint.py``.
* :mod:`repro.analysis.watchdog` — an opt-in instrumented
  ``Lock``/``Condition`` layer that records the per-thread
  lock-acquisition graph at runtime, flags cycles (potential ABBA
  deadlocks) and long-hold outliers, and reports through the existing
  journal/metrics plumbing.  Enable with ``REPRO_LOCK_WATCHDOG=1`` or
  :func:`repro.analysis.watchdog.enable`.

Only the watchdog is imported eagerly (stdlib-only, zero overhead when
disabled); the static passes import the AST machinery on demand.
"""

from __future__ import annotations

from repro.analysis import watchdog

__all__ = ["watchdog", "run_analysis"]


def run_analysis(paths, strict: bool = False):
    """Run every static pass over ``paths`` (files or directories);
    returns the list of :class:`repro.analysis.findings.Finding`."""
    from repro.analysis.cli import analyze_paths

    return analyze_paths(paths, strict=strict)
