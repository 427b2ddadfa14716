"""Flight-recorder concurrency: the journal and the windowed histograms
are hammered from many threads (and from a DB's maintenance steps run
on several threads) without losing events, tearing JSONL lines, or
breaking percentile monotonicity."""

import io
import json
import random
import threading
import time

from repro.lsm.db import LsmDB
from repro.lsm.env import OsEnv
from repro.lsm.options import Options
from repro.obs.events import EventJournal, replay
from repro.obs.tracing import read_jsonl
from repro.obs.window import WindowedHistogram


class TestJournalUnderThreads:
    THREADS = 8
    EVENTS_PER_THREAD = 200

    def test_no_lost_events_no_gaps_no_tears(self):
        sink = io.StringIO()
        journal = EventJournal(sink=sink)

        def hammer(thread_no):
            for i in range(self.EVENTS_PER_THREAD):
                journal.emit("flush_start", thread=thread_no, i=i)
                journal.emit("flush_finish", thread=thread_no, i=i,
                             bytes=i)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(self.THREADS)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()

        lines = sink.getvalue().splitlines()
        # journal_open + every emit made it out, one JSON object per line
        assert len(lines) == 1 + self.THREADS * self.EVENTS_PER_THREAD * 2
        events = [json.loads(line) for line in lines]  # raises if torn
        seqs = [event["seq"] for event in events]
        assert seqs == list(range(1, len(seqs) + 1))
        timestamps = [event["ts"] for event in events]
        assert timestamps == sorted(timestamps)
        summary = replay(events)
        assert summary.flushes == self.THREADS * self.EVENTS_PER_THREAD
        assert not summary.unbalanced


class TestWindowUnderThreads:
    THREADS = 8
    SAMPLES_PER_THREAD = 2000

    def test_counts_complete_and_percentiles_monotone(self):
        window = WindowedHistogram(window_seconds=3600.0)
        rng_seed = 1234

        def hammer(thread_no):
            rng = random.Random(rng_seed + thread_no)
            for _ in range(self.SAMPLES_PER_THREAD):
                window.observe(rng.random() * 0.01)

        threads = [threading.Thread(target=hammer, args=(t,))
                   for t in range(self.THREADS)]
        for thread in threads:
            thread.start()

        # Read percentiles while writers are live: each snapshot must be
        # internally monotone in q even mid-hammer.
        for _ in range(50):
            quantiles = [window.percentile(q)
                         for q in (0.5, 0.9, 0.95, 0.99, 0.999)]
            assert quantiles == sorted(quantiles)

        for thread in threads:
            thread.join()
        assert window.count == self.THREADS * self.SAMPLES_PER_THREAD
        quantiles = [window.percentile(q)
                     for q in (0.5, 0.9, 0.95, 0.99, 0.999)]
        assert quantiles == sorted(quantiles)
        assert quantiles[0] > 0.0


class TestJournalThroughCallerThreads:
    def test_callers_share_one_journal(self, tmp_path):
        """Flush, compaction and stall events come from the writer and
        from a second thread calling ``flush()`` / ``compact_range()``
        beside it; the on-disk journal must still be gap-free and
        replayable."""
        options = Options(write_buffer_size=8 * 1024, event_journal=True,
                          latency_window_seconds=60.0)
        db = LsmDB(str(tmp_path / "db"), options=options, env=OsEnv())
        writing = threading.Event()
        writing.set()
        errors = []

        def maintain():
            try:
                while writing.is_set():
                    db.flush()
                    db.compact_range()
                    time.sleep(0.005)
            except Exception as error:  # noqa: BLE001
                errors.append(error)

        maintainer = threading.Thread(target=maintain)
        maintainer.start()
        rng = random.Random(11)
        try:
            for _ in range(4000):
                db.put(f"k{rng.randrange(2500):08d}".encode(), bytes(64))
        finally:
            writing.clear()
            maintainer.join(timeout=60)
        assert not maintainer.is_alive() and errors == []
        db.compact_range()
        live_amp = {row["level"]: row["write_amp"]
                    for row in db.level_amplification()}
        live_wa = db.stats.write_amplification
        db.close()

        events = read_jsonl(str(tmp_path / "db" / "EVENTS.jsonl"))
        seqs = [event["seq"] for event in events]
        assert seqs == list(range(1, len(seqs) + 1))
        timestamps = [event["ts"] for event in events]
        assert timestamps == sorted(timestamps)

        summary = replay(events)
        assert not summary.unbalanced
        assert summary.flushes > 0 and summary.compactions > 0
        # The journal replays into the same amplification the live
        # registry reported (the ISSUE's acceptance criterion).
        assert summary.write_amplification == live_wa
        for level, amp in summary.per_level_write_amp().items():
            assert amp == live_amp.get(level, 0.0)
