"""EventJournal semantics: schema stamping, monotone clocks, append-only
sinks, episodes and point lines, and :func:`repro.obs.events.replay`'s
accounting."""

import io
import json

import pytest

from repro import obs
from repro.errors import InvalidArgumentError
from repro.obs.events import (
    EVENT_TYPES,
    PAIRED_TYPES,
    EventJournal,
    episode,
    record,
    replay,
)
from repro.obs.schema import EVENT_SCHEMA
from repro.obs.tracing import NULL_TRACER, Tracer, read_jsonl


class TestEmit:
    def test_stamps_schema_seq_ts_type(self):
        journal = EventJournal(keep_events=True)
        record = journal.emit("flush_start", db="db", table=7)
        assert record["v"] == 1
        assert record["type"] == "flush_start"
        assert record["seq"] == 2  # journal_open took seq 1
        assert isinstance(record["ts"], float)
        assert record["table"] == 7
        assert journal.events[-1] is record

    def test_unknown_type_rejected(self):
        journal = EventJournal()
        with pytest.raises(InvalidArgumentError):
            journal.emit("flush_maybe")

    def test_every_declared_type_accepted(self):
        journal = EventJournal(keep_events=True)
        for etype in sorted(EVENT_TYPES):
            journal.emit(etype)
        assert len(journal.events) == len(EVENT_TYPES) + 1

    def test_ts_clamped_when_clock_steps_back(self):
        ticks = iter([10.0, 9.0, 11.0])
        journal = EventJournal(clock=lambda: next(ticks),
                               keep_events=True)
        journal.emit("fault")
        journal.emit("retry")
        timestamps = [event["ts"] for event in journal.events]
        assert timestamps == [10.0, 10.0, 11.0]

    def test_sim_clock_timestamps(self):
        journal = EventJournal(clock=lambda: 42.5, keep_events=True)
        assert journal.emit("fallback")["ts"] == 42.5


class TestSinks:
    def test_sink_path_appends_never_clobbers(self, tmp_path):
        """S1: reopening a journal extends the file — the first run's
        records survive as an earlier segment."""
        path = str(tmp_path / "events.jsonl")
        first = EventJournal(sink_path=path)
        first.emit("flush_start", db="db")
        first.emit("flush_finish", db="db", bytes=10)
        first.close()
        second = EventJournal(sink_path=path)
        second.emit("fault", kind="crc")
        second.close()

        events = read_jsonl(path)
        types = [event["type"] for event in events]
        assert types == ["journal_open", "flush_start", "flush_finish",
                         "journal_open", "fault"]
        # Each segment numbers from 1 independently.
        assert [e["seq"] for e in events] == [1, 2, 3, 1, 2]

    def test_single_line_per_event(self):
        sink = io.StringIO()
        journal = EventJournal(sink=sink)
        journal.emit("retry", attempt=1)
        lines = sink.getvalue().splitlines()
        assert len(lines) == 2
        assert all(json.loads(line) for line in lines)

    def test_close_leaves_borrowed_sinks_open(self):
        sink = io.StringIO()
        journal = EventJournal(sink=sink)
        journal.close()
        assert not sink.closed


class TestSchema:
    def test_types_and_pairs_derive_from_the_one_table(self):
        assert EVENT_TYPES == frozenset(EVENT_SCHEMA)
        assert PAIRED_TYPES == {
            "flush_start": "flush_finish",
            "compaction_start": "compaction_finish",
            "stall_start": "stall_finish",
        }


def _lines(journal):
    return [{k: v for k, v in event.items() if k not in ("v", "seq", "ts")}
            for event in journal.events[1:]]


class TestEpisode:
    def test_start_and_finish_from_one_field_dict(self):
        journal = EventJournal(keep_events=True)
        tracer = Tracer()
        with episode(tracer, (journal,), "flush", db="db", table=3) as ep:
            ep.set(bytes=100, write_bytes=40)
        start, finish = _lines(journal)
        assert start == {"type": "flush_start", "db": "db", "table": 3}
        seconds = finish.pop("seconds")
        assert seconds >= 0.0
        assert finish == {"type": "flush_finish", "db": "db", "table": 3,
                          "bytes": 100, "write_bytes": 40}
        [span] = tracer.spans
        assert span.name == "flush"
        assert span.attrs == {"db": "db", "table": 3, "bytes": 100,
                              "write_bytes": 40}

    def test_span_names_and_trace_ids(self):
        journal = EventJournal(keep_events=True)
        tracer = Tracer()
        with tracer.activate(tracer.mint_context()):
            with episode(tracer, (journal,), "stall", reason="imm_full"):
                pass
            with episode(tracer, (journal,), "compaction", level=1):
                pass
        assert [span.name for span in tracer.spans] == \
            ["write.stall", "compaction"]
        traces = {event.get("trace") for event in journal.events[1:]}
        assert traces == {str(tracer.spans[0].trace_id)}

    def test_no_trace_field_without_a_trace_id(self):
        journal = EventJournal(keep_events=True)
        with episode(NULL_TRACER, (journal,), "compaction", level=0):
            pass
        assert all("trace" not in event for event in journal.events)

    @pytest.mark.parametrize("kind,finished", [
        ("flush", False), ("compaction", False), ("stall", True)])
    def test_a_raising_episode_finishes_only_if_a_stall(self, kind,
                                                         finished):
        journal = EventJournal(keep_events=True)
        with pytest.raises(OSError):
            with episode(NULL_TRACER, (journal,), kind):
                raise OSError("disk gone")
        types = [event["type"] for event in journal.events[1:]]
        assert types == [kind + "_start"] + \
            ([kind + "_finish"] if finished else [])

    def test_lines_inside_an_episode_go_to_its_journals(self):
        mine, installed = EventJournal(keep_events=True), \
            EventJournal(keep_events=True)
        with obs.scoped(events=installed):
            assert obs.journals() == (installed,)
            assert obs.journals(mine) == (mine, installed)
            with episode(NULL_TRACER, (mine,), "compaction"):
                assert obs.journals() == (mine,)
                record(obs.journals(), "fault", kind="protocol")
            assert obs.journals() == (installed,)
        assert obs.journals() == ()
        assert [e["type"] for e in mine.events] == [
            "journal_open", "compaction_start", "fault",
            "compaction_finish"]
        assert [e["type"] for e in installed.events] == ["journal_open"]

    def test_empty_tuple_records_nothing(self):
        record((), "fault", kind="protocol")
        with episode(NULL_TRACER, (), "flush"):
            assert obs.journals() == ()


class TestReplay:
    def _journal(self):
        journal = EventJournal(keep_events=True)
        journal.emit("flush_start", db="db", table=1)
        journal.emit("flush_finish", db="db", table=1, bytes=100,
                     write_bytes=100)
        journal.emit("stall_start", reason="l0_stop")
        journal.emit("stall_finish", reason="l0_stop", seconds=0.25)
        journal.emit("compaction_start", level=0, output_level=1,
                     reason="size", input_bytes=100)
        journal.emit("compaction_finish", level=0, output_level=1,
                     reason="size", backend="fpga", input_bytes=100,
                     input_bytes_base=80, input_bytes_parent=20,
                     output_bytes=90, write_bytes=120)
        journal.emit("fault", kind="crc")
        journal.emit("retry", kind="crc", attempt=1)
        journal.emit("fallback", level=0)
        return journal

    def test_summary_accounting(self):
        summary = replay(self._journal().events)
        assert summary.flushes == 1
        assert summary.flush_bytes == 100
        assert summary.compactions == 1
        assert summary.compaction_output_bytes == 90
        assert summary.level_write_bytes == {0: 100, 1: 90}
        assert summary.level_read_bytes == {0: 80, 1: 20}
        assert summary.backends == {"fpga": 1}
        assert summary.reasons == {"size": 1}
        assert summary.stalls == 1
        assert summary.stall_seconds == 0.25
        assert summary.faults == {"crc": 1}
        assert summary.retries == 1
        assert summary.fallbacks == 1
        assert not summary.unbalanced
        # write_bytes is max-folded from finish events.
        assert summary.write_bytes == 120
        assert summary.write_amplification == (100 + 90) / 120
        assert summary.per_level_write_amp() == {0: 100 / 120,
                                                 1: 90 / 120}

    def test_unbalanced_pairs_reported(self):
        journal = EventJournal(keep_events=True)
        journal.emit("compaction_start", level=0)
        journal.emit("flush_finish", bytes=5)
        summary = replay(journal.events)
        assert summary.unbalanced == {"compaction_start": 1,
                                      "flush_finish": 1}
        assert summary.flushes == 1  # still counted, just flagged
