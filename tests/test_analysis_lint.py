"""Tests for the concurrency-contract analyzer (``repro.analysis``).

Covers the seeded violation corpus (one file per rule, with expected
``file:line`` locations computed from ``VIOLATION`` marker comments),
the clean-tree guarantee on ``src/``, waiver handling, the JSON output
format and comment-based contract construction.
"""

from __future__ import annotations

import ast
import json
import os

import pytest

from repro.analysis import run_analysis
from repro.analysis.cli import analyze_file, analyze_paths, main
from repro.analysis.contracts import journal_event_types, metric_family_names
from repro.analysis.findings import extract_comments, to_json
from repro.analysis.guarded import build_contract
from repro.analysis.lockdiscipline import check_lock_discipline

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CORPUS = os.path.join(REPO, "tests", "analysis_corpus")

METRIC_NAMES = metric_family_names()
EVENT_TYPES = journal_event_types()


def marked_lines(path: str, rule: str) -> list[int]:
    """Line numbers carrying a ``VIOLATION <rule>`` marker comment."""
    lines = []
    with open(path) as handle:
        for lineno, text in enumerate(handle, start=1):
            if f"VIOLATION {rule}" in text:
                lines.append(lineno)
    assert lines, f"no VIOLATION {rule} marker in {path}"
    return lines


CORPUS_CASES = [
    ("corpus_unguarded_locked_call.py", "LD001"),
    ("corpus_guard_escape.py", "LD002"),
    ("corpus_blocking_under_mutex.py", "LD003"),
    ("corpus_env_read_under_mutex.py", "LD003"),
    ("corpus_unknown_metric.py", "CT001"),
    ("corpus_unknown_event.py", "CT002"),
]


@pytest.mark.parametrize("filename,rule", CORPUS_CASES)
def test_corpus_violation_detected(filename, rule):
    path = os.path.join(CORPUS, filename)
    findings = analyze_file(path, METRIC_NAMES, EVENT_TYPES)
    errors = [f for f in findings if f.severity == "error"]
    assert [f.rule for f in errors] == [rule]
    assert errors[0].line in marked_lines(path, rule)
    assert errors[0].location().startswith(f"{path}:{errors[0].line}:")


def test_corpus_clean_lines_not_flagged():
    """The deliberately-correct twins (``*_ok`` methods, known names)
    in the corpus produce no findings — one error per file, not two."""
    findings = analyze_paths([CORPUS])
    errors = [f for f in findings if f.severity == "error"]
    assert len(errors) == len(CORPUS_CASES)


def test_src_tree_is_clean_under_strict():
    findings = analyze_paths([os.path.join(REPO, "src")], strict=True)
    errors = [f for f in findings
              if f.severity == "error" and not f.waived]
    assert errors == [], "\n".join(f.location() + " " + f.message
                                   for f in errors)


def test_run_analysis_package_entry_matches_cli():
    direct = analyze_paths([CORPUS])
    packaged = run_analysis([CORPUS])
    assert [(f.rule, f.line) for f in direct] == \
        [(f.rule, f.line) for f in packaged]


def test_lock_cycle_event_type_known_to_both_sides():
    assert "lock_cycle" in EVENT_TYPES
    assert "lock_long_hold" in EVENT_TYPES


def test_cli_exit_codes_and_json(capsys):
    corpus_file = os.path.join(CORPUS, "corpus_guard_escape.py")
    assert main([corpus_file, "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["rule"] == "LD002"
    assert payload[0]["path"] == corpus_file

    clean = os.path.join(REPO, "src", "repro", "analysis", "findings.py")
    assert main([clean]) == 0


def test_waiver_suppresses_finding(tmp_path):
    source = (
        "import threading\n"
        "import time\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._mutex = threading.Lock()\n"
        "    def slow(self):\n"
        "        with self._mutex:\n"
        "            time.sleep(1)  # lint: waive[LD003] startup only\n"
    )
    path = tmp_path / "waived.py"
    path.write_text(source)
    findings = analyze_file(str(path), METRIC_NAMES, EVENT_TYPES)
    assert len(findings) == 1
    assert findings[0].rule == "LD003"
    assert findings[0].waived
    assert findings[0].waive_reason == "startup only"
    # a waived finding does not fail the build
    assert main([str(path)]) == 0


def test_strict_rejects_reasonless_waiver(tmp_path):
    source = (
        "import threading\n"
        "import time\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._mutex = threading.Lock()\n"
        "    def slow(self):\n"
        "        with self._mutex:\n"
        "            time.sleep(1)  # lint: waive[LD003]\n"
    )
    path = tmp_path / "waived.py"
    path.write_text(source)
    assert main([str(path)]) == 0
    assert main([str(path), "--strict"]) == 1


def test_syntax_error_reported_not_raised(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def f(:\n")
    findings = analyze_file(str(path), METRIC_NAMES, EVENT_TYPES)
    assert [f.rule for f in findings] == ["XX000"]


def _findings_for(source: str):
    tree = ast.parse(source)
    comments = extract_comments(source)
    return check_lock_discipline("<test>", tree, comments)


def test_comment_contract_guards_reads():
    source = (
        "import threading\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._mutex = threading.Lock()\n"
        "        self._table = {}  # guarded_by: _mutex, reads\n"
        "    def peek(self):\n"
        "        return len(self._table)\n"
    )
    findings = _findings_for(source)
    assert any(f.rule == "LD002" and "read" in f.message
               for f in findings)


def test_holds_annotation_satisfies_ld001():
    source = (
        "import threading\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._mutex = threading.Lock()\n"
        "    def _bump_locked(self):\n"
        "        pass\n"
        "    def helper(self):  # holds: _mutex\n"
        "        self._bump_locked()\n"
    )
    assert _findings_for(source) == []


def test_condition_aliases_wrapped_mutex():
    source = (
        "import threading\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._mutex = threading.Lock()\n"
        "        self._cond = threading.Condition(self._mutex)\n"
        "        self._jobs = []  # guarded_by: _mutex\n"
        "    def push(self, j):\n"
        "        with self._cond:\n"
        "            self._jobs.append(j)\n"
    )
    assert _findings_for(source) == []


def test_init_exempt_from_guard_checks():
    source = (
        "import threading\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._mutex = threading.Lock()\n"
        "        self._jobs = []  # guarded_by: _mutex\n"
        "        self._jobs.append(1)\n"
    )
    assert _findings_for(source) == []


def test_build_contract_from_annotations():
    source = (
        "import threading\n"
        "class C:\n"
        "    def __init__(self):\n"
        "        self._mu = threading.Lock()\n"
        "        self._jobs = []  # guarded_by: _mu\n"
    )
    tree = ast.parse(source)
    classdef = tree.body[1]
    contract = build_contract(classdef, extract_comments(source))
    assert contract.mutex == ("_mu",)
    assert contract.guards["_jobs"] == ("_mu",)
    assert ("_mu",) in contract.lock_paths()


def test_to_json_round_trips():
    findings = analyze_paths([CORPUS])
    decoded = json.loads(to_json(findings))
    assert {entry["rule"] for entry in decoded} == \
        {rule for _name, rule in CORPUS_CASES}
    for entry in decoded:
        assert set(entry) >= {"rule", "path", "line", "col",
                              "message", "severity"}
