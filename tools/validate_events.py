#!/usr/bin/env python3
"""Validate a flight-recorder event journal produced by ``--events-out``
or ``Options.event_journal`` (stdlib only, so CI can run it without the
package).

Checks:

* every line is a JSON object with schema version ``v == 1``, a known
  ``type``, an integer ``seq`` and a numeric ``ts``;
* the journal is a sequence of *segments*, each opened by a
  ``journal_open`` record (a reopened database appends a new segment);
  within a segment ``seq`` starts at 1 and is strictly increasing and
  gap-free, and ``ts`` is monotonically non-decreasing;
* start/finish pairs (``flush_*``, ``compaction_*``, ``stall_*``)
  balance across the whole file: every finish is preceded by a matching
  start, and no start is left open at the end;
* finish events carry the payload fields replay needs (``bytes`` on
  ``flush_finish``; ``input_bytes``/``output_bytes`` on
  ``compaction_finish``).

Unknown event types are *tolerated* by default (counted and reported,
but seq/ts discipline is still enforced on them) so journals written by
newer code still validate.  ``--strict`` rejects unknown types and
additionally requires the SLO observatory payloads: ``slo_alert`` must
carry ``slo``/``tenant``/``policy``/``state``/``burn_short``/
``burn_long`` and ``exemplar`` must carry ``slo``/``tenant``/``trace``/
``value``.

The event types and their payload fields come from the one schema
table, ``src/repro/obs/schema.py``, which this script loads by path.

Exit status 0 when the journal passes, 1 with a report when it does not.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import sys


def _load_schema():
    """``repro/obs/schema.py``, loaded by path: the one copy of the
    table, read without importing the package."""
    path = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                        os.pardir, "src", "repro", "obs", "schema.py")
    spec = importlib.util.spec_from_file_location("repro_event_schema",
                                                  path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_SCHEMA = _load_schema()
SCHEMA_VERSION = _SCHEMA.SCHEMA_VERSION
EVENT_TYPES = frozenset(_SCHEMA.EVENT_SCHEMA)

#: ``start`` event type -> matching ``finish`` type.
PAIRED_TYPES = {etype: spec["pairs_with"]
                for etype, spec in _SCHEMA.EVENT_SCHEMA.items()
                if spec.get("pairs_with")}

#: Required payload fields per finish type.
REQUIRED_FIELDS = {etype: spec["required"]
                   for etype, spec in _SCHEMA.EVENT_SCHEMA.items()
                   if spec.get("required")}

#: Extra payload requirements enforced only under ``--strict``.
STRICT_REQUIRED_FIELDS = {etype: spec["strict_required"]
                          for etype, spec in _SCHEMA.EVENT_SCHEMA.items()
                          if spec.get("strict_required")}


def validate(events: list[dict], strict: bool = False) -> list[str]:
    errors: list[str] = []
    if not events:
        return ["empty journal"]

    open_pairs: dict[str, int] = {}
    last_seq = 0
    last_ts = float("-inf")
    segments = 0
    counts: dict[str, int] = {}

    for index, event in enumerate(events):
        where = f"line {index + 1}"
        if not isinstance(event, dict):
            errors.append(f"{where}: not a JSON object")
            continue
        if event.get("v") != SCHEMA_VERSION:
            errors.append(f"{where}: schema version {event.get('v')!r} "
                          f"(expected {SCHEMA_VERSION})")
        etype = event.get("type")
        known = etype in EVENT_TYPES
        if not known:
            if strict or not isinstance(etype, str):
                errors.append(f"{where}: unknown event type {etype!r}")
                continue
            # Tolerant mode: a journal from newer code still validates;
            # seq/ts discipline is enforced below regardless.
            counts["<unknown>"] = counts.get("<unknown>", 0) + 1
        else:
            counts[etype] = counts.get(etype, 0) + 1
        seq = event.get("seq")
        ts = event.get("ts")
        if not isinstance(seq, int) or seq < 1:
            errors.append(f"{where}: bad seq {seq!r}")
            continue
        if not isinstance(ts, (int, float)):
            errors.append(f"{where}: missing numeric ts")
            continue

        if etype == "journal_open":
            # A new segment: seq restarts at 1 and the wall clock may
            # step backwards relative to the previous run.
            segments += 1
            if seq != 1:
                errors.append(
                    f"{where}: journal_open with seq {seq} (expected 1)")
            last_seq = seq
            last_ts = ts
            continue
        if segments == 0:
            errors.append(f"{where}: event before any journal_open")
            segments = 1  # report once, keep checking the rest
        if seq != last_seq + 1:
            errors.append(f"{where}: seq {seq} after {last_seq} "
                          f"(strictly increasing, gap-free expected)")
        last_seq = max(last_seq, seq)
        if ts < last_ts:
            errors.append(f"{where}: ts {ts} goes backwards "
                          f"(previous {last_ts})")
        last_ts = max(last_ts, ts)

        if etype in PAIRED_TYPES:
            finish = PAIRED_TYPES[etype]
            open_pairs[finish] = open_pairs.get(finish, 0) + 1
        elif etype in PAIRED_TYPES.values():
            if open_pairs.get(etype, 0) > 0:
                open_pairs[etype] -= 1
            else:
                errors.append(f"{where}: {etype} without a matching start")
            for required in REQUIRED_FIELDS.get(etype, ()):
                if required not in event:
                    errors.append(
                        f"{where}: {etype} missing field {required!r}")
        if strict:
            for required in STRICT_REQUIRED_FIELDS.get(etype, ()):
                if required not in event:
                    errors.append(
                        f"{where}: {etype} missing field {required!r}")

    for finish, pending in sorted(open_pairs.items()):
        if pending > 0:
            start = next(s for s, f in PAIRED_TYPES.items() if f == finish)
            errors.append(f"{pending} {start} event(s) never finished")
    return errors


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("journal", help="flight-recorder JSONL journal")
    parser.add_argument("--require", action="append", default=[],
                        metavar="TYPE",
                        help="fail unless at least one event of TYPE is "
                             "present (repeatable, e.g. --require "
                             "flush_finish)")
    parser.add_argument("--strict", action="store_true",
                        help="reject unknown event types and require the "
                             "slo_alert / exemplar payload fields")
    args = parser.parse_args(argv)

    events: list[dict] = []
    try:
        with open(args.journal) as handle:
            for lineno, line in enumerate(handle, 1):
                line = line.strip()
                if not line:
                    continue
                try:
                    events.append(json.loads(line))
                except json.JSONDecodeError as error:
                    print(f"FAIL: {args.journal}:{lineno}: torn or "
                          f"malformed JSON line: {error}", file=sys.stderr)
                    return 1
    except OSError as error:
        print(f"FAIL: cannot read {args.journal}: {error}", file=sys.stderr)
        return 1

    errors = validate(events, strict=args.strict)
    present = {e.get("type") for e in events if isinstance(e, dict)}
    for required in args.require:
        if required not in present:
            errors.append(f"no {required} event present")
    if errors:
        print(f"FAIL: {args.journal}: {len(errors)} problem(s)",
              file=sys.stderr)
        for error in errors[:50]:
            print(f"  - {error}", file=sys.stderr)
        return 1
    segments = sum(1 for e in events if e.get("type") == "journal_open")
    unknown = sum(1 for e in events
                  if isinstance(e, dict)
                  and e.get("type") not in EVENT_TYPES)
    extra = f", {unknown} unknown-type (tolerated)" if unknown else ""
    print(f"OK: {args.journal}: {len(events)} events in {segments} "
          f"segment(s), seq gap-free, ts monotone, pairs balanced"
          f"{extra}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
