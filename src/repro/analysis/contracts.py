"""Repo-wide contract lints: observability names and exception hygiene.

CT001 ``unknown-metric-name``
    A string-literal metric name passed to the registry API
    (``counter``/``gauge``/``histogram``/``callback_gauge``/
    ``describe``/``get_value``/``sum_family``, the ``_counter``/
    ``_gauge``/``_histogram`` helpers, or ``publish_window``) that does
    not appear in :data:`repro.obs.names.FAMILIES`.  A typo here is a
    silent zero on every dashboard.

CT002 ``unknown-event-type``
    A string-literal event type passed to ``record(journals, type, ...)``
    or a journal's ``emit(type, ...)`` that the journal schema
    (:mod:`repro.obs.schema`) does not know.  The journal raises at
    runtime — this catches it at lint time, including on paths no test
    exercises.

CT003 ``swallowed-base-exception``
    A bare ``except:`` or ``except BaseException:`` handler that
    neither re-raises nor uses the bound exception.  On a worker
    thread this silently eats ``KeyboardInterrupt``/``SystemExit`` and
    the store keeps running half-dead.
"""

from __future__ import annotations

import ast
from typing import Dict, FrozenSet, List, Optional

from repro.analysis.findings import Finding

__all__ = [
    "check_contracts",
    "metric_family_names",
    "journal_event_types",
]

#: registry-method call -> index of the positional metric-name argument.
#: The index-0 entries are the ``MetricsRegistry`` API and only apply
#: when the receiver looks like a registry (``registry.counter(...)``,
#: ``self.metrics.gauge(...)``) — ``timeline.counter(...)`` is the
#: Chrome-trace sink and takes a process name, not a metric family.
_METRIC_CALLS: Dict[str, int] = {
    "counter": 0,
    "gauge": 0,
    "histogram": 0,
    "callback_gauge": 0,
    "describe": 0,
    "get_value": 0,
    "sum_family": 0,
    "_counter": 1,
    "_gauge": 1,
    "_histogram": 1,
    "publish_window": 1,
}

#: journal call -> index of the positional event-type argument:
#: a journal's ``emit(type, ...)`` and ``record(journals, type, ...)``.
_EVENT_CALLS: Dict[str, int] = {"emit": 0, "record": 1}

#: names whose presence in the receiver marks it as a metrics registry
_REGISTRY_RECEIVERS = ("registry", "metrics")


def metric_family_names() -> FrozenSet[str]:
    from repro.obs.names import FAMILIES

    return frozenset(name for name, _kind, _help, _buckets in FAMILIES)


def journal_event_types() -> FrozenSet[str]:
    from repro.obs.events import EVENT_TYPES

    return EVENT_TYPES


def _literal_str(node: ast.expr) -> Optional[str]:
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    return None


def _call_name(func: ast.expr) -> Optional[str]:
    if isinstance(func, ast.Attribute):
        return func.attr
    if isinstance(func, ast.Name):
        return func.id
    return None


def _registry_receiver(func: ast.expr) -> bool:
    """True when the call's receiver plausibly is a MetricsRegistry."""
    if not isinstance(func, ast.Attribute):
        return False
    recv = func.value
    terminal = None
    if isinstance(recv, ast.Attribute):
        terminal = recv.attr
    elif isinstance(recv, ast.Name):
        terminal = recv.id
    if terminal is None:
        return False
    terminal = terminal.lower()
    return any(marker in terminal for marker in _REGISTRY_RECEIVERS)


def check_contracts(path: str, tree: ast.Module,
                    metric_names: FrozenSet[str],
                    event_types: FrozenSet[str]) -> List[Finding]:
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            name = _call_name(node.func)
            if name in _METRIC_CALLS and (
                    _METRIC_CALLS[name] == 1
                    or _registry_receiver(node.func)):
                index = _METRIC_CALLS[name]
                if index < len(node.args):
                    literal = _literal_str(node.args[index])
                    if (literal is not None
                            and literal not in metric_names):
                        findings.append(Finding(
                            rule="CT001", slug="unknown-metric-name",
                            path=path, line=node.lineno,
                            col=node.col_offset + 1,
                            message=f"metric name {literal!r} is not "
                                    f"declared in repro.obs.names."
                                    f"FAMILIES"))
            type_arg = _EVENT_CALLS.get(name)
            if type_arg is not None and type_arg < len(node.args):
                literal = _literal_str(node.args[type_arg])
                if literal is not None and literal not in event_types:
                    findings.append(Finding(
                        rule="CT002", slug="unknown-event-type",
                        path=path, line=node.lineno,
                        col=node.col_offset + 1,
                        message=f"journal event type {literal!r} is "
                                f"unknown to repro.obs.schema"))
        elif isinstance(node, ast.ExceptHandler):
            finding = _check_handler(path, node)
            if finding is not None:
                findings.append(finding)
    return findings


def _names_base_exception(node: Optional[ast.expr]) -> bool:
    if node is None:
        return True  # bare except:
    if isinstance(node, ast.Name):
        return node.id == "BaseException"
    if isinstance(node, ast.Tuple):
        return any(_names_base_exception(elt) for elt in node.elts)
    return False


def _check_handler(path: str,
                   handler: ast.ExceptHandler) -> Optional[Finding]:
    if not _names_base_exception(handler.type):
        return None
    # A handler is fine if it re-raises (bare raise or raise-from) or
    # actually uses the bound exception object.
    for node in ast.walk(ast.Module(body=handler.body,
                                    type_ignores=[])):
        if isinstance(node, ast.Raise):
            return None
        if (handler.name is not None and isinstance(node, ast.Name)
                and node.id == handler.name
                and isinstance(node.ctx, ast.Load)):
            return None
    what = "bare except:" if handler.type is None else \
        "except BaseException"
    return Finding(
        rule="CT003", slug="swallowed-base-exception", path=path,
        line=handler.lineno, col=handler.col_offset + 1,
        message=f"{what} neither re-raises nor uses the exception — "
                f"on a worker thread this swallows KeyboardInterrupt/"
                f"SystemExit")
