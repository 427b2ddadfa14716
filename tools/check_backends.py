#!/usr/bin/env python3
"""Gate the accelerator-backend acceptance criteria from a
``fcae-bench backends --bench-json`` run.

Stdlib-only so CI can call it without installing the package::

    python tools/check_backends.py --run BENCH_backends.json \\
        [--min-speedup 2.0] [--min-route-accuracy 0.8]

Two checks, both *within-run* relative measurements (robust to the
runner's absolute speed):

* **speedup floor** — at the largest value-size sweep point, the batch
  backend's measured p50 must beat the streaming CPU merge by at least
  ``--min-speedup`` (default 2.0x).  Skipped (with a notice) when the
  run has no ``batch_v*`` rows at all — without numpy the batch backend
  declines every task and the bench emits no rows for it, so the
  numpy-less CI leg has nothing to gate.
* **routing accuracy** — across all ``route_v<N>`` rows, the cost
  model's pick must equal the measured-fastest backend on at least
  ``--min-route-accuracy`` of the sweep points (default 0.8).  A pick
  whose measured p50 is within ``--tie-tol`` (default 15%) of the
  fastest backend's counts as a hit: routing between near-tied backends
  is a coin flip that costs nothing, and only picks that are
  *meaningfully* slower should fail the gate.

Exit status: 0 when both hold, 1 on violation, 2 on malformed input.
"""

from __future__ import annotations

import argparse
import json
import sys

SUPPORTED_SCHEMA = 1


def load_rows(path: str) -> tuple[list[list], list[str]]:
    with open(path) as handle:
        doc = json.load(handle)
    if doc.get("schema") != SUPPORTED_SCHEMA:
        raise ValueError(f"{path}: unsupported schema {doc.get('schema')!r}")
    exp = doc.get("experiments", {}).get("backends")
    if exp is None:
        raise ValueError(f"{path}: no 'backends' experiment")
    columns = exp.get("columns", [])
    for needed in ("bench", "p50_us", "note"):
        if needed not in columns:
            raise ValueError(f"{path}: missing column {needed!r}")
    return exp["rows"], columns


def parse_note(note: str) -> dict[str, str]:
    """``"picked=batch;fastest=cpu"`` → ``{"picked": ..., "fastest": ...}``"""
    fields = {}
    for part in note.split(";"):
        if "=" in part:
            key, _, value = part.partition("=")
            fields[key.strip()] = value.strip()
    return fields


def check(rows: list[list], columns: list[str], min_speedup: float,
          min_route_accuracy: float, tie_tol: float = 0.15) -> list[str]:
    name_col = columns.index("bench")
    p50_col = columns.index("p50_us")
    note_col = columns.index("note")
    p50 = {row[name_col]: row[p50_col] for row in rows}

    failures: list[str] = []

    # -- speedup floor at the largest value size ----------------------
    value_sizes = sorted({int(name.rsplit("_v", 1)[1])
                          for name in p50 if "_v" in name})
    if not value_sizes:
        return ["no sweep rows found"]
    largest = value_sizes[-1]
    cpu = p50.get(f"cpu_v{largest}")
    batch = p50.get(f"batch_v{largest}")
    if not any(name.startswith("batch_v") for name in p50):
        print(f"NOTICE: no batch_v* rows (the batch backend declined: "
              f"no numpy) — skipping the {min_speedup}x floor")
    elif cpu is None or batch is None:
        failures.append(f"v{largest}: missing cpu/batch rows")
    else:
        speedup = cpu / batch
        line = (f"v{largest}: batch {batch:.0f}us vs cpu {cpu:.0f}us "
                f"= {speedup:.2f}x (floor {min_speedup}x)")
        if speedup < min_speedup:
            failures.append(line)
        else:
            print(f"OK speedup: {line}")

    # -- routing accuracy ---------------------------------------------
    route_rows = [row for row in rows
                  if str(row[name_col]).startswith("route_v")]
    if not route_rows:
        failures.append("no route_v* rows found")
    else:
        hits = []
        for row in route_rows:
            fields = parse_note(str(row[note_col]))
            picked, fastest = fields.get("picked"), fields.get("fastest")
            if picked is None or fastest is None:
                failures.append(f"{row[name_col]}: malformed note "
                                f"{row[note_col]!r}")
                continue
            vsize = str(row[name_col]).rsplit("_v", 1)[1]
            picked_p50 = p50.get(f"{picked}_v{vsize}")
            fastest_p50 = p50.get(f"{fastest}_v{vsize}")
            hit = picked == fastest or (
                picked_p50 is not None and fastest_p50 is not None
                and picked_p50 <= fastest_p50 * (1 + tie_tol))
            hits.append(hit)
            if picked != fastest:
                print(f"{'NEAR-TIE' if hit else 'MISROUTE'} "
                      f"{row[name_col]}: picked={picked} "
                      f"({picked_p50}us) fastest={fastest} "
                      f"({fastest_p50}us)")
        if hits:
            accuracy = sum(hits) / len(hits)
            line = (f"routing picked the measured-fastest backend on "
                    f"{sum(hits)}/{len(hits)} points "
                    f"({accuracy:.0%}, floor {min_route_accuracy:.0%})")
            if accuracy < min_route_accuracy:
                failures.append(line)
            else:
                print(f"OK routing: {line}")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--run", required=True,
                        help="BENCH_backends.json from fcae-bench")
    parser.add_argument("--min-speedup", type=float, default=2.0,
                        help="batch-vs-cpu p50 floor at the largest "
                             "value size (default 2.0)")
    parser.add_argument("--min-route-accuracy", type=float, default=0.8,
                        help="minimum picked==fastest hit rate over the "
                             "route rows (default 0.8)")
    parser.add_argument("--tie-tol", type=float, default=0.15,
                        help="relative p50 band within which a pick "
                             "counts as tied with the fastest "
                             "(default 0.15)")
    args = parser.parse_args(argv)

    try:
        rows, columns = load_rows(args.run)
    except (OSError, ValueError, json.JSONDecodeError) as error:
        print(f"ERROR: {error}", file=sys.stderr)
        return 2

    failures = check(rows, columns, args.min_speedup,
                     args.min_route_accuracy, args.tie_tol)
    if failures:
        print(f"BACKEND GATE FAILED ({len(failures)} violation(s)):",
              file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print(f"OK: {args.run} meets the backend acceptance criteria")
    return 0


if __name__ == "__main__":
    sys.exit(main())
