"""CT002: a journal event type unknown to the schema."""

from repro.obs.events import record


def note_flush(journals):
    record(journals, "flush_start", level=0)
    record(journals, "flush_strat", level=0)  # VIOLATION CT002
