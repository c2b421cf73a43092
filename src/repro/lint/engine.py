"""The ``replint`` rule engine: files, pragmas, rule registry, reports.

The engine is deliberately small and dependency-free (``ast`` + stdlib
only) so it can run as the first CI step, before the package itself is
importable.  One :class:`LintEngine` run parses every target file once,
builds the project-wide indexes the rules share (import graph, call
graph, replay-sensitivity set — see :mod:`repro.lint.callgraph`), then
visits each file with each registered rule.

Violations carry a rule code, location, and message.  A violation is
*suppressed* — reported separately, never fatal — when its line carries
an inline pragma::

    something_suspicious()  # replint: ignore[DET001] -- measured wall phase

The justification after ``--`` is optional but expected by review: a
pragma without a reason is a smell the human layer catches.
"""

from __future__ import annotations

import ast
import fnmatch
import json
import re
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Set, Tuple, Type

#: ``# replint: ignore[DET001]`` or ``# replint: ignore[DET001, ARCH002]``.
PRAGMA_RE = re.compile(r"#\s*replint:\s*ignore\[([A-Za-z0-9_,\s]+)\]")


@dataclass(frozen=True)
class Violation:
    """One rule hit at one source location."""

    rule: str
    path: str
    line: int
    col: int
    message: str
    suppressed: bool = False

    def render(self) -> str:
        return f"{self.path}:{self.line}:{self.col}: {self.rule} {self.message}"

    def to_json(self) -> Dict[str, object]:
        return {
            "rule": self.rule,
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "message": self.message,
            "suppressed": self.suppressed,
        }


def parse_pragmas(source: str) -> Dict[int, Set[str]]:
    """Map 1-based line number -> set of rule codes ignored on that line."""
    pragmas: Dict[int, Set[str]] = {}
    for lineno, line in enumerate(source.splitlines(), start=1):
        match = PRAGMA_RE.search(line)
        if match:
            codes = {code.strip() for code in match.group(1).split(",")}
            pragmas[lineno] = {code for code in codes if code}
    return pragmas


def module_name_for(rel_path: str) -> str:
    """Dotted module name for a repo-relative path.

    ``src/repro/sync/server.py`` -> ``repro.sync.server``;
    ``benchmarks/bench_a1_seats.py`` -> ``benchmarks.bench_a1_seats``.
    """
    parts = Path(rel_path).with_suffix("").parts
    if parts and parts[0] == "src":
        parts = parts[1:]
    if parts and parts[-1] == "__init__":
        parts = parts[:-1]
    return ".".join(parts)


class SourceFile:
    """One parsed target file plus its per-line pragma table."""

    def __init__(self, rel_path: str, source: str,
                 tree: Optional[ast.Module] = None) -> None:
        self.rel_path = rel_path.replace("\\", "/")
        self.source = source
        self.tree = tree if tree is not None else ast.parse(source)
        self.module = module_name_for(self.rel_path)
        self.is_package = self.rel_path.endswith("__init__.py")
        self.pragmas = parse_pragmas(source)
        #: alias -> fully qualified module/symbol, from *every* import
        #: statement in the file (including lazy, in-function imports —
        #: those matter for both the alias map and the layer contract).
        self.aliases: Dict[str, str] = {}
        self.import_nodes: List[Tuple[ast.AST, str]] = []
        self._index_imports()

    def _index_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for item in node.names:
                    self.aliases[item.asname or item.name.split(".")[0]] = (
                        item.name if item.asname else item.name.split(".")[0])
                    if item.asname:
                        self.aliases[item.asname] = item.name
                    self.import_nodes.append((node, item.name))
            elif isinstance(node, ast.ImportFrom):
                if node.level:  # relative import: stays inside the package
                    # For a plain module, level=1 is its containing
                    # package; for an __init__.py the module name *is*
                    # the package, so one fewer part is dropped.
                    drop = node.level - (1 if self.is_package else 0)
                    parts = self.module.split(".")
                    base = ".".join(parts[: len(parts) - drop] if drop
                                    else parts)
                    target = f"{base}.{node.module}" if node.module else base
                else:
                    target = node.module or ""
                for item in node.names:
                    self.aliases[item.asname or item.name] = (
                        f"{target}.{item.name}" if target else item.name)
                self.import_nodes.append((node, target))

    def resolve(self, node: ast.AST) -> Optional[str]:
        """Dotted name of an expression, aliases substituted at the root.

        ``np.random.default_rng`` with ``import numpy as np`` resolves to
        ``numpy.random.default_rng``; unresolvable shapes return None.
        """
        parts: List[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        root = self.aliases.get(node.id, node.id)
        parts.append(root)
        return ".".join(reversed(parts))


class FileContext:
    """Everything a rule sees for one file: the file + project indexes."""

    def __init__(self, file: SourceFile, project: "ProjectIndex") -> None:
        self.file = file
        self.project = project

    # Convenience passthroughs so rules read naturally.
    @property
    def rel_path(self) -> str:
        return self.file.rel_path

    @property
    def tree(self) -> ast.Module:
        return self.file.tree

    def resolve(self, node: ast.AST) -> Optional[str]:
        return self.file.resolve(node)

    def is_sensitive(self, qualname: str) -> bool:
        return self.project.is_sensitive(self.file.module, qualname)


class Rule:
    """Base class: subclass, set ``code``/``summary``, implement ``check``.

    ``check`` yields :class:`Violation` instances **without** worrying
    about pragmas — the engine applies suppression afterwards so every
    rule gets it for free.
    """

    code: str = ""
    summary: str = ""

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        raise NotImplementedError

    def violation(self, ctx: FileContext, node: ast.AST,
                  message: str) -> Violation:
        return Violation(
            rule=self.code,
            path=ctx.rel_path,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            message=message,
        )


_RULE_REGISTRY: Dict[str, Type[Rule]] = {}


def register(rule_cls: Type[Rule]) -> Type[Rule]:
    """Class decorator adding a rule to the default registry."""
    if not rule_cls.code:
        raise ValueError(f"rule {rule_cls.__name__} has no code")
    if rule_cls.code in _RULE_REGISTRY:
        raise ValueError(f"duplicate rule code {rule_cls.code}")
    _RULE_REGISTRY[rule_cls.code] = rule_cls
    return rule_cls


def registered_rules() -> Dict[str, Type[Rule]]:
    """Code -> rule class for every registered rule (import-time populated)."""
    # Importing the rules module registers the built-in rule set; local
    # import keeps engine <-> rules from being an import cycle.
    from repro.lint import rules as _rules  # noqa: F401
    return dict(_RULE_REGISTRY)


class ScopedVisitor(ast.NodeVisitor):
    """NodeVisitor that tracks the enclosing function qualname.

    Rules subclass this to know *where* a node lives —
    ``ClassName.method`` / ``outer.<locals>.inner`` — which is what the
    allowlist and the sensitivity index key on.  The module body has
    qualname ``""``.
    """

    def __init__(self) -> None:
        self._scope: List[str] = []

    @property
    def qualname(self) -> str:
        return ".".join(self._scope)

    def _visit_scope(self, node: ast.AST, name: str) -> None:
        self._scope.append(name)
        try:
            self.generic_visit(node)
        finally:
            self._scope.pop()

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_scope(node, node.name)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_scope(node, node.name)

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        self._visit_scope(node, node.name)


@dataclass
class LintReport:
    """The outcome of one engine run."""

    files: int
    violations: List[Violation] = field(default_factory=list)
    suppressed: List[Violation] = field(default_factory=list)
    parse_errors: List[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and not self.parse_errors

    def to_json(self) -> Dict[str, object]:
        return {
            "schema": 1,
            "tool": "replint",
            "files": self.files,
            "ok": self.ok,
            "violations": [v.to_json() for v in self.violations],
            "suppressed": [v.to_json() for v in self.suppressed],
            "parse_errors": list(self.parse_errors),
        }

    def render_text(self) -> str:
        lines = [v.render() for v in self.violations]
        lines.extend(f"{err} (parse error)" for err in self.parse_errors)
        lines.append(
            f"replint: {self.files} files, {len(self.violations)} violations, "
            f"{len(self.suppressed)} suppressed")
        return "\n".join(lines)


def discover_files(paths: Sequence[str], root: Path) -> List[Path]:
    """Expand CLI path arguments into a sorted list of ``*.py`` files."""
    found: Set[Path] = set()
    for raw in paths:
        path = (root / raw) if not Path(raw).is_absolute() else Path(raw)
        if path.is_dir():
            found.update(p for p in path.rglob("*.py"))
        elif path.suffix == ".py" and path.exists():
            found.add(path)
    return sorted(found)


class LintEngine:
    """Parse once, index once, run every rule over every file."""

    def __init__(self, rules: Optional[Iterable[Rule]] = None) -> None:
        if rules is None:
            rules = [cls() for _, cls in sorted(registered_rules().items())]
        self.rules = list(rules)

    def run_sources(self, files: Sequence[SourceFile]) -> LintReport:
        """Lint already-parsed sources (the path unit tests use)."""
        from repro.lint.callgraph import ProjectIndex

        project = ProjectIndex(files)
        report = LintReport(files=len(files))
        for file in files:
            ctx = FileContext(file, project)
            for rule in self.rules:
                for violation in rule.check(ctx):
                    if rule.code in file.pragmas.get(violation.line, ()):
                        report.suppressed.append(
                            Violation(**{**violation.__dict__,
                                         "suppressed": True}))
                    else:
                        report.violations.append(violation)
        report.violations.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
        report.suppressed.sort(key=lambda v: (v.path, v.line, v.col, v.rule))
        return report

    def run_paths(self, paths: Sequence[str],
                  root: Optional[Path] = None) -> LintReport:
        root = root if root is not None else Path.cwd()
        files: List[SourceFile] = []
        errors: List[str] = []
        for path in discover_files(paths, root):
            try:
                rel = str(path.relative_to(root))
            except ValueError:
                rel = str(path)
            try:
                files.append(SourceFile(rel, path.read_text()))
            except SyntaxError as exc:
                errors.append(f"{rel}:{exc.lineno or 0}: {exc.msg}")
        report = self.run_sources(files)
        report.parse_errors.extend(errors)
        return report


def lint_sources(  # replint: ignore[ARCH003] -- lint API for in-memory sources
        named_sources: Dict[str, str],
        rules: Optional[Iterable[Rule]] = None) -> LintReport:
    """Lint ``{rel_path: source}`` pairs — the fixture-test entry point."""
    engine = LintEngine(rules=rules)
    return engine.run_sources(
        [SourceFile(path, src) for path, src in sorted(named_sources.items())])


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI: ``python -m repro.lint src benchmarks perf examples
    [--format=json]``."""
    import argparse

    parser = argparse.ArgumentParser(
        prog="python -m repro.lint",
        description="replint: determinism & layering static analysis")
    parser.add_argument("paths", nargs="*",
                        default=["src", "benchmarks", "perf", "examples"],
                        help="files or directories to lint "
                             "(default: src benchmarks perf examples)")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--output", default=None,
                        help="write the report here as well as stdout")
    parser.add_argument("--rules", default=None,
                        help="comma-separated rule codes to run "
                             "(default: all)")
    parser.add_argument("--list-rules", action="store_true",
                        help="print the rule table and exit")
    args = parser.parse_args(argv)

    registry = registered_rules()
    if args.list_rules:
        for code in sorted(registry):
            print(f"{code}  {registry[code].summary}")
        return 0

    if args.rules:
        wanted = [code.strip() for code in args.rules.split(",") if code.strip()]
        unknown = [code for code in wanted if code not in registry]
        if unknown:
            print(f"unknown rule(s): {', '.join(unknown)}", file=sys.stderr)
            return 2
        rules: Optional[List[Rule]] = [registry[code]() for code in wanted]
    else:
        rules = None

    engine = LintEngine(rules=rules)
    report = engine.run_paths(args.paths)
    rendered = (json.dumps(report.to_json(), indent=2, sort_keys=True)
                if args.format == "json" else report.render_text())
    print(rendered)
    if args.output:
        Path(args.output).write_text(rendered + "\n")
    return 0 if report.ok else 1
