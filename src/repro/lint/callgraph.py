"""Project call graph and the replay-sensitivity index.

DET003/DET004 only fire inside *replay-sensitive* functions: code whose
output feeds a ``fingerprint()``, a serialized snapshot, or a decision
log.  Sensitivity is computed once per engine run:

1. **Seed modules** (:data:`SINK_MODULE_GLOBS`): every function defined
   in the replay-critical modules — ``sync/``, ``adapt/``,
   ``obs/flight.py``, ``obs/slo.py``, ``cloud/autoscaler.py``,
   ``cloud/fleet.py`` — is sensitive by construction; those are the
   modules whose state the replay tests byte-compare.
2. **Sink names** (:data:`SINK_FUNCTION_NAMES`): functions named like a
   replay sink (``fingerprint``, ``decision_fingerprint``,
   ``dump_incident``, ``write_bench_json``, …) are sinks wherever they
   live.
3. **Reverse call-graph walk**: any function that (transitively) calls a
   sensitive function becomes sensitive too, so a benchmark helper that
   calls ``service.fingerprint()`` is held to the same bar as the
   fingerprint itself.

The graph is name-resolved heuristically — same-module functions,
imported names, ``self.method()`` within a class, and a bare-name
fallback that links ``x.fingerprint()`` to every function named
``fingerprint``.  Over-approximation is deliberate: a false "sensitive"
costs a ``sorted()`` or a pragma; a false "insensitive" costs a broken
replay.

The same pass builds ARCH003's use index, :attr:`ProjectIndex.referenced`:
the set of names any linted file mentions outside a package re-export.
It is matched by bare name, so it errs the same safe way: one use of a
name keeps every definition of that name alive.
"""

from __future__ import annotations

import ast
import fnmatch
from collections import deque
from typing import TYPE_CHECKING, Dict, Iterator, List, Sequence, Set, Tuple

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.lint.engine import SourceFile

#: Modules whose functions are all replay-sensitive seeds.
SINK_MODULE_GLOBS: Tuple[str, ...] = (
    "repro.sync.*",
    "repro.sync",
    "repro.adapt.*",
    "repro.adapt",
    "repro.obs.flight",
    "repro.obs.slo",
    "repro.cloud.autoscaler",
    "repro.cloud.fleet",
)

#: Bare function names treated as replay sinks wherever they are defined.
SINK_FUNCTION_NAMES: Tuple[str, ...] = (
    "fingerprint",
    "decision_fingerprint",
    "dump_incident",
    "write_bench_json",
)

FuncKey = Tuple[str, str]  # (module, qualname)

_DEFINITIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


class FunctionInfo:
    """One function definition and the raw call tokens inside it."""

    __slots__ = ("module", "qualname", "name", "node", "calls")

    def __init__(self, module: str, qualname: str,
                 node: ast.AST) -> None:
        self.module = module
        self.qualname = qualname
        self.name = qualname.rsplit(".", 1)[-1]
        self.node = node
        #: Raw callee tokens: either a resolved dotted name or a bare
        #: attribute/function name for the fallback index.
        self.calls: Set[str] = set()


class _FunctionCollector(ast.NodeVisitor):
    """Collect every function def with its qualname and call tokens."""

    def __init__(self, file: "SourceFile") -> None:
        self.file = file
        self.functions: Dict[str, FunctionInfo] = {}
        self._scope: List[str] = []
        self._current: List[FunctionInfo] = []

    def _enter_function(self, node: ast.AST, name: str) -> None:
        self._scope.append(name)
        qualname = ".".join(self._scope)
        info = FunctionInfo(self.file.module, qualname, node)
        self.functions[qualname] = info
        self._current.append(info)
        try:
            self.generic_visit(node)
        finally:
            self._current.pop()
            self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._enter_function(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._enter_function(node, node.name)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._scope.append(node.name)
        try:
            self.generic_visit(node)
        finally:
            self._scope.pop()

    def visit_Call(self, node: ast.Call) -> None:
        if self._current:
            info = self._current[-1]
            resolved = self.file.resolve(node.func)
            if resolved:
                info.calls.add(resolved)
            if isinstance(node.func, ast.Attribute):
                info.calls.add(node.func.attr)
            elif isinstance(node.func, ast.Name):
                info.calls.add(node.func.id)
        self.generic_visit(node)


def _references(node: ast.AST) -> Iterator[str]:
    """The names one node refers to: a ``Name`` id, an ``Attribute``
    attr, a ``from ... import`` alias, or a string constant (the way
    ``perf/tracing.py`` names the classes it hooks)."""
    if isinstance(node, ast.Name):
        yield node.id
    elif isinstance(node, ast.Attribute):
        yield node.attr
    elif isinstance(node, ast.ImportFrom):
        for item in node.names:
            yield item.name
    elif isinstance(node, ast.Constant) and isinstance(node.value, str):
        yield node.value


def _referenced_names(files: Sequence["SourceFile"]) -> Set[str]:
    """Every name referenced by some file, for ARCH003.

    Export lists are not uses: a package ``__init__.py`` is skipped, and
    so is a module's own ``__all__``.  A top-level definition's
    references to its own name (recursion, a method returning its
    class) do not count as a use of it either.
    """
    names: Set[str] = set()
    for file in files:
        if file.is_package:
            continue
        for stmt in file.tree.body:
            if isinstance(stmt, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == "__all__"
                    for target in stmt.targets):
                continue
            own = stmt.name if isinstance(stmt, _DEFINITIONS) else None
            names.update(name for node in ast.walk(stmt)
                         for name in _references(node) if name != own)
    return names


class ProjectIndex:
    """Cross-file indexes shared by every rule in one engine run."""

    def __init__(self, files: Sequence["SourceFile"]) -> None:
        self.files = list(files)
        self.functions: Dict[FuncKey, FunctionInfo] = {}
        #: bare name -> keys of every function with that name.
        self.by_name: Dict[str, List[FuncKey]] = {}
        for file in self.files:
            collector = _FunctionCollector(file)
            collector.visit(file.tree)
            for qualname, info in collector.functions.items():
                key = (file.module, qualname)
                self.functions[key] = info
                self.by_name.setdefault(info.name, []).append(key)
        self._sensitive: Set[FuncKey] = self._compute_sensitive()
        #: Every name some linted file refers to (ARCH003's use index).
        self.referenced: Set[str] = _referenced_names(self.files)

    # -- sensitivity -------------------------------------------------------

    def _seed_sensitive(self) -> Set[FuncKey]:
        seeds: Set[FuncKey] = set()
        for key, info in self.functions.items():
            module, _ = key
            if any(fnmatch.fnmatch(module, pattern)
                   for pattern in SINK_MODULE_GLOBS):
                seeds.add(key)
            elif info.name in SINK_FUNCTION_NAMES:
                seeds.add(key)
        return seeds

    def _callers_of(self) -> Dict[FuncKey, Set[FuncKey]]:
        """callee key -> caller keys, resolving call tokens heuristically."""
        callers: Dict[FuncKey, Set[FuncKey]] = {}
        for caller_key, info in self.functions.items():
            module = caller_key[0]
            for token in info.calls:
                targets: List[FuncKey] = []
                if "." in token:
                    # Fully resolved: repro.sync.server.SyncServer.tick
                    # or module-local Class.method paths.
                    head, _, tail = token.rpartition(".")
                    if (head, tail) in self.functions:
                        targets.append((head, tail))
                    # module-qualified function: repro.x.y.func
                    for key in self.by_name.get(tail, ()):
                        if key[0] == head:
                            targets.append(key)
                else:
                    # Same-module first; bare-name fallback otherwise.
                    same_module = [key for key in self.by_name.get(token, ())
                                   if key[0] == module]
                    targets.extend(same_module or self.by_name.get(token, ()))
                for target in targets:
                    callers.setdefault(target, set()).add(caller_key)
        return callers

    def _compute_sensitive(self) -> Set[FuncKey]:
        sensitive = self._seed_sensitive()
        callers = self._callers_of()
        queue = deque(sensitive)
        while queue:
            callee = queue.popleft()
            for caller in callers.get(callee, ()):
                if caller not in sensitive:
                    sensitive.add(caller)
                    queue.append(caller)
        return sensitive

    def is_sensitive(self, module: str, qualname: str) -> bool:
        """True when ``module:qualname`` (or an enclosing scope) is
        replay-sensitive.  Nested scopes inherit from their parents so a
        lambda or inner helper inside a sensitive function is covered."""
        if not qualname:
            return any(fnmatch.fnmatch(module, pattern)
                       for pattern in SINK_MODULE_GLOBS)
        parts = qualname.split(".")
        for end in range(len(parts), 0, -1):
            if (module, ".".join(parts[:end])) in self._sensitive:
                return True
        return False

    def sensitive_keys(self) -> Set[FuncKey]:
        return set(self._sensitive)
