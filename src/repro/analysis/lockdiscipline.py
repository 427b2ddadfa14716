"""Lock-discipline lint: the ``*_locked`` convention as a checkable rule.

Rules
-----

LD001 ``unguarded-locked-call``
    A ``*_locked`` method is invoked from a path that does not hold the
    owning object's mutex.  Holding is lexical: the call sits inside a
    ``with self._mutex:`` block (alias-aware — ``db = self.db`` then
    ``with db._mutex:`` counts), the caller is itself ``*_locked``, or
    the caller carries a ``# holds: _mutex`` annotation.

LD002 ``guarded-attr-escape``
    A guarded attribute (``# guarded_by:`` comments, see
    :mod:`repro.analysis.guarded`) is mutated — assigned, augmented,
    deleted, subscript-stored, or hit with a mutating method such as
    ``.append``/``.pop`` — outside the guarding mutex.  ``__init__`` is
    exempt (no concurrent access before construction completes).
    Attributes in ``guarded_reads`` are checked on loads too.

LD003 ``blocking-under-mutex``
    A direct blocking call (``sync()``/``fsync``, socket I/O,
    ``time.sleep``, ``select.select``, or an ``Env`` reading a whole file
    or opening one: ``read_file`` / ``new_writable_file`` /
    ``new_appendable_file`` / ``new_random_access_file`` on a receiver
    named ``env``) while a mutex is held — the bug class group commit
    exists to avoid.  Error severity;
    waivable with ``# lint: waive[LD003] reason`` when the hold is the
    documented contract (e.g. ``wal_sync="always"``).

LD004 ``blocking-chain-under-mutex``
    Same as LD003 but transitive: a self-method whose body (or callees)
    blocks, invoked while held.  Warning severity — flagged for humans,
    never fails the build, because the interesting chains (group-commit
    leader syncing for followers) release the mutex at runtime in ways
    a lexical pass cannot always see.

The pass is intentionally lexical and per-class: no inter-file type
inference, no decorator magic.  Precision over recall — every finding
should be worth reading.
"""

from __future__ import annotations

import ast
from typing import Dict, List, Optional, Set, Tuple

from repro.analysis.findings import Finding, SEVERITY_WARNING
from repro.analysis.guarded import ClassContract, build_contract

__all__ = ["check_lock_discipline"]

Path = Tuple[str, ...]

#: attribute names that block regardless of receiver type
_BLOCKING_ATTRS = {
    "sync": "fsync-like sync()",
    "fsync": "fsync",
    "recv": "socket recv",
    "recv_into": "socket recv_into",
    "sendall": "socket sendall",
    "sendto": "socket sendto",
    "accept": "socket accept",
    "connect": "socket connect",
}

#: file I/O through an ``Env``: blocking when the receiver is one (its
#: last name is ``env`` / ``*_env`` — the pass infers no types)
_BLOCKING_ENV_ATTRS = {
    "read_file": "env read_file (whole-file read)",
    "new_writable_file": "env new_writable_file (file create)",
    "new_appendable_file": "env new_appendable_file (file open)",
    "new_random_access_file": "env new_random_access_file (file open)",
}

#: module-level blocking calls: (module name, attr) -> description
_BLOCKING_MODULE_CALLS = {
    ("time", "sleep"): "time.sleep",
    ("select", "select"): "select.select",
    ("os", "fsync"): "os.fsync",
    ("os", "fdatasync"): "os.fdatasync",
}

#: method names that mutate their receiver in place
_MUTATORS = {
    "add", "append", "appendleft", "clear", "discard", "extend",
    "insert", "pop", "popleft", "remove", "setdefault", "update",
}


def _resolve_path(node: ast.expr,
                  aliases: Dict[str, Path]) -> Optional[Path]:
    """Attribute chain rooted at ``self`` (directly or via an alias)
    -> path relative to self; None when not self-rooted."""
    parts: List[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        if node.id == "self":
            return tuple(reversed(parts))
        base = aliases.get(node.id)
        if base is not None:
            return base + tuple(reversed(parts))
    return None


def _module_call(func: ast.expr) -> Optional[Tuple[str, str]]:
    if (isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Name)):
        return (func.value.id, func.attr)
    return None


class _ClassChecker:
    def __init__(self, path: str, classdef: ast.ClassDef,
                 contract: ClassContract):
        self.path = path
        self.classdef = classdef
        self.contract = contract
        self.findings: List[Finding] = []
        self.methods: Dict[str, ast.FunctionDef] = {
            node.name: node for node in classdef.body
            if isinstance(node, ast.FunctionDef)}
        self.blocking_methods = self._compute_blocking_methods()

    # ------------------------------------------------- blocking closure

    def _direct_blocking(self, method: ast.FunctionDef) -> bool:
        for node in self._walk_no_nested(method):
            if isinstance(node, ast.Call):
                if self._blocking_call_desc(node) is not None:
                    return True
        return False

    def _self_calls(self, method: ast.FunctionDef) -> Set[str]:
        calls: Set[str] = set()
        for node in self._walk_no_nested(method):
            if (isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "self"):
                calls.add(node.func.attr)
        return calls

    def _compute_blocking_methods(self) -> Set[str]:
        """Fixpoint of 'this method can block' over the self-call graph."""
        blocking = {name for name, m in self.methods.items()
                    if self._direct_blocking(m)}
        call_graph = {name: self._self_calls(m)
                      for name, m in self.methods.items()}
        changed = True
        while changed:
            changed = False
            for name, callees in call_graph.items():
                if name not in blocking and callees & blocking:
                    blocking.add(name)
                    changed = True
        return blocking

    @staticmethod
    def _walk_no_nested(method: ast.FunctionDef):
        """Walk a method body, not descending into nested defs/lambdas
        (their bodies execute later, under unknown lock state)."""
        stack: List[ast.AST] = list(ast.iter_child_nodes(method))
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.Lambda)):
                continue
            stack.extend(ast.iter_child_nodes(node))

    def _blocking_call_desc(self, call: ast.Call) -> Optional[str]:
        mod = _module_call(call.func)
        if mod in _BLOCKING_MODULE_CALLS:
            return _BLOCKING_MODULE_CALLS[mod]
        if isinstance(call.func, ast.Attribute):
            receiver = call.func.value
            name = (receiver.attr if isinstance(receiver, ast.Attribute)
                    else getattr(receiver, "id", ""))
            if (call.func.attr in _BLOCKING_ENV_ATTRS
                    and name.lstrip("_").split("_")[-1] == "env"):
                return _BLOCKING_ENV_ATTRS[call.func.attr]
            return _BLOCKING_ATTRS.get(call.func.attr)
        return None

    # ---------------------------------------------------------- checking

    def check(self) -> List[Finding]:
        for method in self.methods.values():
            self._check_method(method)
        return self.findings

    def _method_initial_held(self, method: ast.FunctionDef) -> Set[Path]:
        contract = self.contract
        if method.name.endswith("_locked"):
            return {contract.mutex} if contract.mutex else set()
        holds = contract.holds_methods.get(method.name)
        if holds is not None:
            return {contract.canonical(holds)}
        return set()

    def _check_method(self, method: ast.FunctionDef) -> None:
        held = self._method_initial_held(method)
        aliases: Dict[str, Path] = {}
        self._walk_stmts(method.body, method, held, aliases)

    def _walk_stmts(self, stmts, method, held: Set[Path],
                    aliases: Dict[str, Path]) -> None:
        for stmt in stmts:
            self._walk_node(stmt, method, held, aliases)

    def _walk_node(self, node: ast.AST, method, held: Set[Path],
                   aliases: Dict[str, Path]) -> None:
        contract = self.contract
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            return  # deferred execution: unknown lock state
        if isinstance(node, ast.With):
            added: Set[Path] = set()
            for item in node.items:
                self._visit_expr(item.context_expr, method, held, aliases)
                path = _resolve_path(item.context_expr, aliases)
                if path is not None:
                    canon = contract.canonical(path)
                    if (canon in contract.lock_paths()
                            or path in contract.lock_paths()):
                        added.add(canon)
            inner = held | added
            self._walk_stmts(node.body, method, inner, aliases)
            return
        if isinstance(node, ast.Assign):
            self._visit_expr(node.value, method, held, aliases)
            for target in node.targets:
                self._check_store_target(target, method, held, aliases)
            # track ``x = self`` / ``x = self.db`` aliases
            if (len(node.targets) == 1
                    and isinstance(node.targets[0], ast.Name)):
                path = _resolve_path(node.value, aliases)
                if path is not None:
                    aliases[node.targets[0].id] = path
                else:
                    aliases.pop(node.targets[0].id, None)
            return
        if isinstance(node, (ast.AugAssign, ast.AnnAssign)):
            if node.value is not None:
                self._visit_expr(node.value, method, held, aliases)
            self._check_store_target(node.target, method, held, aliases)
            return
        if isinstance(node, ast.Delete):
            for target in node.targets:
                self._check_store_target(target, method, held, aliases)
            return
        if isinstance(node, ast.expr):
            self._visit_expr(node, method, held, aliases)
            return
        if isinstance(node, ast.Expr):
            self._visit_expr(node.value, method, held, aliases)
            return
        for child in ast.iter_child_nodes(node):
            self._walk_node(child, method, held, aliases)

    # expressions ---------------------------------------------------------

    def _visit_expr(self, node: ast.expr, method, held: Set[Path],
                    aliases: Dict[str, Path]) -> None:
        if isinstance(node, (ast.Lambda,)):
            return
        if isinstance(node, ast.Call):
            self._check_call(node, method, held, aliases)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                          ast.Load):
            self._check_guarded_read(node, method, held, aliases)
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.expr):
                self._visit_expr(child, method, held, aliases)

    def _holding(self, held: Set[Path], required: Path) -> bool:
        required = self.contract.canonical(required)
        return required in held

    def _holding_any_prefix(self, held: Set[Path], prefix: Path) -> bool:
        return any(h[:len(prefix)] == prefix for h in held)

    def _check_call(self, call: ast.Call, method, held: Set[Path],
                    aliases: Dict[str, Path]) -> None:
        contract = self.contract
        func = call.func
        # blocking (direct)
        desc = self._blocking_call_desc(call)
        if desc is not None and held:
            self._add(call, "LD003", "blocking-under-mutex",
                      f"{desc} called while holding "
                      f"{self._held_names(held)} in {method.name}()")
        if isinstance(func, ast.Attribute):
            receiver = _resolve_path(func.value, aliases)
            name = func.attr
            if receiver is not None and name.endswith("_locked"):
                if receiver == ():
                    ok = (contract.mutex is None
                          or self._holding(held, contract.mutex))
                else:
                    ok = self._holding_any_prefix(held, receiver)
                if not ok:
                    self._add(call, "LD001", "unguarded-locked-call",
                              f"{'.'.join(('self',) + receiver + (name,))}"
                              f"() called from {method.name}() without "
                              f"holding the mutex")
            # transitive blocking (self-calls only)
            if (receiver == () and held
                    and name in self.blocking_methods
                    and self._blocking_call_desc(call) is None):
                self._add(call, "LD004", "blocking-chain-under-mutex",
                          f"self.{name}() may block (transitively) and "
                          f"is called while holding "
                          f"{self._held_names(held)} in {method.name}()",
                          severity=SEVERITY_WARNING)
            # mutator method on a guarded attribute
            if name in _MUTATORS and receiver is not None:
                self._check_mutation_path(call, receiver, method, held)

    def _check_store_target(self, target: ast.expr, method,
                            held: Set[Path],
                            aliases: Dict[str, Path]) -> None:
        node = target
        if isinstance(node, (ast.Tuple, ast.List)):
            for elt in node.elts:
                self._check_store_target(elt, method, held, aliases)
            return
        if isinstance(node, ast.Subscript):
            node = node.value
        path = _resolve_path(node, aliases)
        if path is not None:
            self._check_mutation_path(target, path, method, held)

    def _check_mutation_path(self, node: ast.AST, path: Path, method,
                             held: Set[Path]) -> None:
        if method.name == "__init__":
            return
        if len(path) != 1:
            return
        attr = path[0]
        required = self.contract.guards.get(attr)
        if required is None:
            return
        if not self._holding(held, required):
            self._add(node, "LD002", "guarded-attr-escape",
                      f"self.{attr} (guarded by "
                      f"{'.'.join(required)}) mutated in "
                      f"{method.name}() without holding it")

    def _check_guarded_read(self, node: ast.Attribute, method,
                            held: Set[Path],
                            aliases: Dict[str, Path]) -> None:
        if method.name == "__init__":
            return
        path = _resolve_path(node, aliases)
        if path is None or len(path) != 1:
            return
        attr = path[0]
        if attr not in self.contract.guarded_reads:
            return
        required = self.contract.guards.get(attr)
        if required is None:
            return
        if not self._holding(held, required):
            self._add(node, "LD002", "guarded-attr-escape",
                      f"self.{attr} (guarded by {'.'.join(required)}, "
                      f"reads included) read in {method.name}() without "
                      f"holding it")

    # utilities -----------------------------------------------------------

    def _held_names(self, held: Set[Path]) -> str:
        return ",".join(sorted(".".join(p) for p in held)) or "<none>"

    def _add(self, node: ast.AST, rule: str, slug: str, message: str,
             severity: str = "error") -> None:
        self.findings.append(Finding(
            rule=rule, slug=slug, path=self.path,
            line=getattr(node, "lineno", 0),
            col=getattr(node, "col_offset", 0) + 1,
            message=message, severity=severity))


def check_lock_discipline(path: str, tree: ast.Module,
                          comments: Dict[int, List[str]]
                          ) -> List[Finding]:
    """Run LD001–LD004 over every class in ``tree``."""
    findings: List[Finding] = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.ClassDef):
            continue
        contract = build_contract(node, comments)
        if not contract.lock_paths():
            continue  # no locks, nothing to check
        checker = _ClassChecker(path, node, contract)
        findings.extend(checker.check())
    return findings
