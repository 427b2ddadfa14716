"""Command line for the static passes: ``python -m repro.analysis``.

Exit code 0 when no unwaived error-severity findings remain; warnings
(LD004 chains) never affect the exit code.  ``--strict`` additionally
requires every waiver to carry a reason.
"""

from __future__ import annotations

import argparse
import ast
import os
import sys
from typing import List

from repro.analysis import contracts as contracts_mod
from repro.analysis import findings as findings_mod
from repro.analysis import lockdiscipline
from repro.analysis.findings import Finding

__all__ = ["main", "analyze_paths", "analyze_file"]


def _iter_py_files(paths) -> List[str]:
    files: List[str] = []
    for path in paths:
        if os.path.isfile(path):
            files.append(path)
            continue
        for root, dirs, names in os.walk(path):
            dirs[:] = [d for d in dirs
                       if d not in ("__pycache__", ".git")]
            for name in sorted(names):
                if name.endswith(".py"):
                    files.append(os.path.join(root, name))
    return files


def analyze_file(path: str, metric_names, event_types) -> List[Finding]:
    with open(path, "r", encoding="utf-8") as handle:
        source = handle.read()
    try:
        tree = ast.parse(source, filename=path)
    except SyntaxError as error:
        return [Finding(
            rule="XX000", slug="syntax-error", path=path,
            line=error.lineno or 0, col=(error.offset or 0),
            message=f"cannot parse: {error.msg}")]
    comments = findings_mod.extract_comments(source)
    found: List[Finding] = []
    found.extend(lockdiscipline.check_lock_discipline(
        path, tree, comments))
    found.extend(contracts_mod.check_contracts(
        path, tree, metric_names, event_types))
    waivers = findings_mod.parse_waivers(comments)
    return findings_mod.apply_waivers(found, waivers)


def analyze_paths(paths, strict: bool = False) -> List[Finding]:
    metric_names = contracts_mod.metric_family_names()
    event_types = contracts_mod.journal_event_types()
    findings: List[Finding] = []
    for path in _iter_py_files(paths):
        findings.extend(analyze_file(path, metric_names, event_types))
    if strict:
        for finding in findings:
            if finding.waived and not finding.waive_reason:
                finding.waived = False
                finding.message += " (strict: waiver lacks a reason)"
    return findings


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="Concurrency-contract analyzer: lock-discipline "
                    "lint (LD001-LD004) and observability contract "
                    "lints (CT001-CT003).")
    parser.add_argument("paths", nargs="+",
                        help="files or directories to analyze")
    parser.add_argument("--strict", action="store_true",
                        help="waivers require reasons")
    parser.add_argument("--format", choices=("text", "json"),
                        default="text", help="findings output format")
    parser.add_argument("--no-warnings", action="store_true",
                        help="hide warning-severity findings (LD004)")
    args = parser.parse_args(argv)

    findings = analyze_paths(args.paths, strict=args.strict)
    if args.no_warnings:
        findings = [f for f in findings
                    if f.severity != findings_mod.SEVERITY_WARNING]

    if args.format == "json":
        print(findings_mod.to_json(findings))
    elif findings:
        print(findings_mod.render_text(findings))

    errors = [f for f in findings
              if f.severity == findings_mod.SEVERITY_ERROR
              and not f.waived]
    warnings = [f for f in findings
                if f.severity == findings_mod.SEVERITY_WARNING]
    waived = [f for f in findings if f.waived]
    if args.format == "text":
        print(f"analysis: {len(errors)} error(s), "
              f"{len(warnings)} warning(s), {len(waived)} waived")
    return 1 if errors else 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
