"""The SLO observatory's alert stream, pinned.

``repro.bench slo --scale 0.3`` runs two open-loop tenants on the
simulated clock; its ``slo_alert`` and ``exemplar`` journal lines are
deterministic apart from their wall-clock ``ts``.  They are held line
for line against ``tests/golden/slo_journal.jsonl``: a mismatch is a
changed burn-rate computation, never a file to regenerate.

Regenerate only for an intended change of the SLO model::

    PYTHONPATH=src python tests/test_slo_golden.py
"""

import json
import os
import sys
import tempfile

from repro.bench.cli import main as bench_main

GOLDEN = os.path.join(os.path.dirname(__file__), "golden",
                      "slo_journal.jsonl")

PINNED_TYPES = ("slo_alert", "exemplar")


def _alert_lines(workdir: str) -> list[str]:
    path = os.path.join(workdir, "j.jsonl")
    assert bench_main(["slo", "--scale", "0.3", "--events-out", path]) == 0
    lines = []
    with open(path) as handle:
        for line in handle:
            event = json.loads(line)
            if event["type"] in PINNED_TYPES:
                del event["ts"]
                lines.append(json.dumps(event))
    return lines


def test_alert_and_exemplar_lines_match_golden(tmp_path):
    with open(GOLDEN) as handle:
        expected = handle.read().splitlines()
    assert expected
    assert _alert_lines(str(tmp_path)) == expected


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as workdir:
        lines = _alert_lines(workdir)
    with open(GOLDEN, "w") as handle:
        handle.write("\n".join(lines) + "\n")
    print(f"wrote {len(lines)} lines to {GOLDEN}", file=sys.stderr)
