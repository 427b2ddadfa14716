"""The flight-recorder journal's event schema, kept once.

Standard library only: :mod:`repro.obs.events` derives its type set and
start/finish pairs from this table, and ``tools/validate_events.py``
loads this file by path, so the validator runs without the package
installed.  Each entry::

    type -> {"pairs_with": finish type (start types only),
             "required": fields checked on every such event,
             "strict_required": fields checked only under --strict}
"""

#: Journal schema version stamped on every line.
SCHEMA_VERSION = 1

EVENT_SCHEMA = {
    "journal_open": {},
    "flush_start": {"pairs_with": "flush_finish"},
    "flush_finish": {"required": ("bytes",)},
    "compaction_start": {"pairs_with": "compaction_finish"},
    "compaction_finish": {"required": ("level", "output_level",
                                       "input_bytes", "output_bytes")},
    "stall_start": {"pairs_with": "stall_finish"},
    "stall_finish": {},
    "fault": {},
    "retry": {},
    "fallback": {"strict_required": ("source", "target")},
    "slo_alert": {"strict_required": ("slo", "tenant", "policy", "state",
                                      "burn_short", "burn_long")},
    "exemplar": {"strict_required": ("slo", "tenant", "trace", "value")},
    # Lock watchdog reports (repro.analysis.watchdog): a detected
    # lock-order cycle and a long-hold outlier.
    "lock_cycle": {"strict_required": ("locks", "closing_edge",
                                       "thread")},
    "lock_long_hold": {"strict_required": ("lock", "seconds", "thread")},
}
