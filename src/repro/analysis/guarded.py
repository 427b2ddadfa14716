"""Guarded-by contracts: which attributes need which mutex.

A contract is the Python analog of Clang's ``GUARDED_BY`` annotation
set for one class:

* ``mutex`` — the primary mutex as an attribute path relative to
  ``self`` (``("_mutex",)`` for ``LsmDB``).
* ``guards`` — attribute name -> mutex path that must be held to
  *mutate* it.
* ``guarded_reads`` — attributes whose *reads* must also be under the
  mutex (multi-word invariants, e.g. a dict resized concurrently).

Contracts are declared in one place, the class's own source:

1. ``# guarded_by: <mutex>`` trailing comments on ``self.X = ...``
   assignments in ``__init__`` (add ``, reads`` to also guard loads).
2. ``# mutex: <attr>`` on a class line, or auto-detection: a class
   whose ``__init__`` creates exactly one ``threading.Lock`` (or
   ``make_lock``) gets it as primary mutex.

``*_locked`` methods and ``# holds: <mutex>`` annotations declare that
a method runs with the mutex already held.
"""

from __future__ import annotations

import ast
import re
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple

__all__ = ["ClassContract", "build_contract"]

Path = Tuple[str, ...]

_GUARDED_RE = re.compile(
    r"#\s*guarded_by:\s*([A-Za-z_][\w.]*)\s*(?:,\s*(reads))?\s*$")
_MUTEX_RE = re.compile(r"#\s*mutex:\s*([A-Za-z_][\w.]*)")
_HOLDS_RE = re.compile(r"#\s*holds:\s*([A-Za-z_][\w.]*)")

_LOCK_FACTORIES = {"Lock", "make_lock"}


@dataclass
class ClassContract:
    name: str
    mutex: Optional[Path] = None
    guards: Dict[str, Path] = field(default_factory=dict)
    guarded_reads: Set[str] = field(default_factory=set)
    #: methods annotated ``# holds: <mutex>`` (beyond the ``*_locked``
    #: naming convention) -> the path they claim to hold
    holds_methods: Dict[str, Path] = field(default_factory=dict)
    #: every lock-like attribute path the class is known to use; a
    #: ``with`` on any of these counts as "holding" that path
    known_locks: Set[Path] = field(default_factory=set)
    #: condition-variable attrs that wrap another lock:
    #: ``self._cond = threading.Condition(self._mutex)`` makes holding
    #: ``_cond`` equivalent to holding ``_mutex``
    lock_aliases: Dict[Path, Path] = field(default_factory=dict)

    def lock_paths(self) -> Set[Path]:
        paths = set(self.known_locks)
        if self.mutex:
            paths.add(self.mutex)
        paths.update(self.guards.values())
        paths.update(self.lock_aliases)
        return paths

    def canonical(self, path: Path) -> Path:
        return self.lock_aliases.get(path, path)


def _path_from_text(text: str) -> Path:
    return tuple(text.split("."))


def _is_lock_factory_call(node: ast.expr) -> bool:
    """``threading.Lock()`` or ``make_lock(...)``."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Attribute):
        return func.attr in _LOCK_FACTORIES
    if isinstance(func, ast.Name):
        return func.id in _LOCK_FACTORIES
    return False


def _condition_wrapped_lock(node: ast.expr) -> Optional[Path]:
    """``threading.Condition(self.X)`` / ``make_condition(self.X, ...)``
    -> the wrapped lock's attribute path ``(X,)``."""
    if not (isinstance(node, ast.Call) and node.args):
        return None
    func = node.func
    name = func.attr if isinstance(func, ast.Attribute) else (
        func.id if isinstance(func, ast.Name) else None)
    if name not in ("Condition", "make_condition"):
        return None
    arg = node.args[0]
    parts: List[str] = []
    while isinstance(arg, ast.Attribute):
        parts.append(arg.attr)
        arg = arg.value
    if isinstance(arg, ast.Name) and arg.id == "self" and parts:
        return tuple(reversed(parts))
    return None


def build_contract(classdef: ast.ClassDef,
                   comments: Dict[int, List[str]]) -> ClassContract:
    """The contract ``classdef``'s source annotations and auto-detected
    lock attributes declare."""
    contract = ClassContract(name=classdef.name)

    # class-line ``# mutex:`` annotation
    for text in comments.get(classdef.lineno, []):
        match = _MUTEX_RE.search(text)
        if match:
            contract.mutex = _path_from_text(match.group(1))

    detected_locks: List[str] = []
    for node in classdef.body:
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        # ``# holds:`` on the def line (or decorator-shifted line)
        for lineno in range(node.lineno,
                            node.body[0].lineno if node.body else
                            node.lineno + 1):
            for text in comments.get(lineno, []):
                match = _HOLDS_RE.search(text)
                if match:
                    contract.holds_methods[node.name] = (
                        _path_from_text(match.group(1)))
        if node.name != "__init__":
            continue
        for stmt in ast.walk(node):
            if isinstance(stmt, ast.Assign):
                targets = stmt.targets
            elif isinstance(stmt, ast.AnnAssign) and stmt.value is not None:
                targets = [stmt.target]
            else:
                continue
            for target in targets:
                if not (isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id == "self"):
                    continue
                attr = target.attr
                if _is_lock_factory_call(stmt.value):
                    detected_locks.append(attr)
                    contract.known_locks.add((attr,))
                wrapped = _condition_wrapped_lock(stmt.value)
                if wrapped is not None:
                    contract.lock_aliases[(attr,)] = wrapped
                for text in comments.get(stmt.lineno, []):
                    match = _GUARDED_RE.search(text)
                    if match:
                        contract.guards[attr] = (
                            _path_from_text(match.group(1)))
                        if match.group(2):
                            contract.guarded_reads.add(attr)

    if contract.mutex is None:
        if "_mutex" in detected_locks:
            contract.mutex = ("_mutex",)
        elif len(detected_locks) == 1:
            contract.mutex = (detected_locks[0],)
    return contract
