"""The built-in ``replint`` rule set.

Determinism rules (the replay contract):

* **DET001** — wall-clock access outside the allowlist.  Seeded replay
  must never observe real time; the simulation clock (``sim.now``) is
  the only clock.  Benchmark ``main()``s and declared wall-clock shims
  are exempt via :data:`WALL_CLOCK_ALLOWLIST` or an inline pragma.
* **DET002** — ambient randomness: module-level ``random.*``,
  ``np.random.*`` globals, ``os.urandom``, ``uuid.uuid4``, ``secrets``,
  and *unseeded* generator construction (``default_rng()`` / ``Random()``
  with no arguments).  All randomness must flow from an injected
  ``numpy.random.Generator`` / ``simkit.rng.RngRegistry`` stream.
* **DET003** — salted ``hash()`` or ``id()`` feeding ordering keys,
  spawn keys, or replay-sensitive code.  ``zlib.crc32`` is the blessed
  stable derivation (see ``simkit/rng.py``); ``__hash__``/``__eq__``
  implementations are exempt (in-process tables only).
* **DET004** — iteration over ``set`` / ``frozenset`` / ``dict.keys()``
  without ``sorted()`` inside replay-sensitive functions (see
  :mod:`repro.lint.callgraph`).  Python set order is salted per process;
  any set-ordered loop that feeds a fingerprint diverges across runs.

Architecture rules (the layering contract):

* **ARCH001** — the import graph must match the checked-in layer table
  (:mod:`repro.lint.layers`).  Lazy in-function imports count.
* **ARCH002** — benchmarks emit results only through
  ``benchmarks/_emit.py``; no direct ``open(..., "w")`` / ``json.dump``
  / ``write_text`` in ``bench_*.py``.
* **ARCH003** — every top-level public function or class in ``src/``
  is referenced by some linted file other than a package re-export.
  ``tests/`` is never linted, so code that only tests call is flagged.
"""

from __future__ import annotations

import ast
import fnmatch
from typing import Dict, Iterator, List, Optional, Set, Tuple, Union

from repro.lint.engine import (
    FileContext,
    Rule,
    ScopedVisitor,
    Violation,
    register,
)
from repro.lint.layers import allowed_import, package_of

# ---------------------------------------------------------------------------
# DET001 — wall-clock access
# ---------------------------------------------------------------------------

#: Fully-qualified callables whose value depends on the host's clock.
WALL_CLOCK_NAMES: Tuple[str, ...] = (
    "time.time",
    "time.time_ns",
    "time.monotonic",
    "time.monotonic_ns",
    "time.perf_counter",
    "time.perf_counter_ns",
    "time.process_time",
    "time.process_time_ns",
    "datetime.datetime.now",
    "datetime.datetime.utcnow",
    "datetime.datetime.today",
    "datetime.date.today",
)

#: ``(path glob, function qualname glob)`` pairs exempt from DET001.
#: Benchmark entry points time real walls by design; everything else
#: must either take an injected clock or carry a justified pragma.
WALL_CLOCK_ALLOWLIST: Tuple[Tuple[str, str], ...] = (
    ("benchmarks/*.py", "main"),
)


@register
class WallClockRule(Rule):
    code = "DET001"
    summary = ("wall-clock access (time.time/monotonic/perf_counter, "
               "datetime.now) outside the benchmark-main allowlist")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        rule = self

        class Visitor(ScopedVisitor):
            def __init__(self) -> None:
                super().__init__()
                self.hits: List[Violation] = []

            def _allowlisted(self) -> bool:
                qualname = self.qualname
                return any(
                    fnmatch.fnmatch(ctx.rel_path, path_glob)
                    and fnmatch.fnmatch(qualname, qual_glob)
                    for path_glob, qual_glob in WALL_CLOCK_ALLOWLIST)

            def visit_Attribute(self, node: ast.Attribute) -> None:
                resolved = ctx.resolve(node)
                if (resolved in WALL_CLOCK_NAMES
                        and not self._allowlisted()):
                    self.hits.append(rule.violation(
                        ctx, node,
                        f"wall-clock access `{resolved}`: seeded replay "
                        f"must read the simulation clock (sim.now) or an "
                        f"injected clock"))
                self.generic_visit(node)

            def visit_Name(self, node: ast.Name) -> None:
                # `from time import perf_counter; perf_counter()`
                if isinstance(node.ctx, ast.Load):
                    resolved = ctx.resolve(node)
                    if (resolved in WALL_CLOCK_NAMES
                            and not self._allowlisted()):
                        self.hits.append(rule.violation(
                            ctx, node,
                            f"wall-clock access `{resolved}`: seeded "
                            f"replay must read the simulation clock "
                            f"(sim.now) or an injected clock"))

        visitor = Visitor()
        visitor.visit(ctx.tree)
        yield from visitor.hits


# ---------------------------------------------------------------------------
# DET002 — ambient randomness
# ---------------------------------------------------------------------------

#: numpy.random attributes that are *constructors/types*, not ambient
#: global draws.  Everything else on numpy.random is the shared global
#: BitGenerator and forbidden.
NUMPY_RANDOM_OK: Tuple[str, ...] = (
    "Generator", "SeedSequence", "BitGenerator", "default_rng",
    "PCG64", "PCG64DXSM", "Philox", "SFC64", "MT19937", "RandomState",
)

#: Always-ambient entropy sources.
AMBIENT_NAMES: Tuple[str, ...] = (
    "os.urandom",
    "os.getrandom",
    "uuid.uuid1",
    "uuid.uuid4",
)

#: Constructors that fall back to OS entropy when called with no
#: arguments — fine when seeded, ambient when not.
UNSEEDED_CONSTRUCTORS: Tuple[str, ...] = (
    "numpy.random.default_rng",
    "numpy.random.RandomState",
    "random.Random",
)


def _ambient_name(resolved: str) -> Optional[str]:
    """Reason string when ``resolved`` is an ambient randomness source."""
    if resolved in AMBIENT_NAMES:
        return "OS entropy"
    if resolved.startswith("secrets."):
        return "OS entropy"
    if resolved.startswith("random.") and resolved != "random.Random":
        return "the process-global `random` state"
    if resolved.startswith("numpy.random."):
        attr = resolved.split(".", 2)[2]
        if attr.split(".")[0] not in NUMPY_RANDOM_OK:
            return "the process-global numpy BitGenerator"
    return None


@register
class AmbientRandomRule(Rule):
    code = "DET002"
    summary = ("ambient randomness (random.*, np.random globals, "
               "os.urandom, uuid4, unseeded default_rng()) instead of an "
               "injected Generator/RngRegistry stream")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        rule = self

        class Visitor(ScopedVisitor):
            def __init__(self) -> None:
                super().__init__()
                self.hits: List[Violation] = []

            def visit_Call(self, node: ast.Call) -> None:
                resolved = ctx.resolve(node.func)
                if resolved in UNSEEDED_CONSTRUCTORS and not node.args \
                        and not node.keywords:
                    self.hits.append(rule.violation(
                        ctx, node,
                        f"`{resolved}()` with no seed draws OS entropy: "
                        f"pass a seed or derive from RngRegistry"))
                self.generic_visit(node)

            def _flag_load(self, node: ast.AST) -> None:
                resolved = ctx.resolve(node)
                if resolved is None:
                    return
                reason = _ambient_name(resolved)
                if reason is not None:
                    self.hits.append(rule.violation(
                        ctx, node,
                        f"ambient randomness `{resolved}` draws from "
                        f"{reason}: inject a numpy Generator / "
                        f"RngRegistry stream instead"))

            def visit_Attribute(self, node: ast.Attribute) -> None:
                self._flag_load(node)
                # Do not descend: `numpy.random.normal` would otherwise
                # also flag the inner `numpy.random` load.
                for child in ast.iter_child_nodes(node):
                    if not isinstance(child, (ast.Attribute, ast.Name)):
                        self.visit(child)

            def visit_Name(self, node: ast.Name) -> None:
                if isinstance(node.ctx, ast.Load):
                    self._flag_load(node)

        visitor = Visitor()
        visitor.visit(ctx.tree)
        yield from visitor.hits


# ---------------------------------------------------------------------------
# DET003 — salted hash()/id() in ordering or replay-sensitive positions
# ---------------------------------------------------------------------------

#: Builtins whose value varies across interpreter runs.
SALTED_BUILTINS: Tuple[str, ...] = ("hash", "id")

#: Dunders allowed to call hash()/id(): they only ever feed in-process
#: hash tables, never serialized or ordered output.
HASH_EXEMPT_METHODS: Tuple[str, ...] = ("__hash__", "__eq__", "__ne__")

_ORDERING_FUNCS: Tuple[str, ...] = ("sorted", "min", "max")


def _salted_calls(node: ast.AST, ctx: FileContext) -> List[ast.Call]:
    """Calls to builtin hash()/id() anywhere under ``node``."""
    hits: List[ast.Call] = []
    for sub in ast.walk(node):
        if (isinstance(sub, ast.Call) and isinstance(sub.func, ast.Name)
                and sub.func.id in SALTED_BUILTINS
                and ctx.resolve(sub.func) in SALTED_BUILTINS):
            hits.append(sub)
    return hits


@register
class SaltedHashRule(Rule):
    code = "DET003"
    summary = ("salted hash()/id() in ordering keys, spawn keys, or "
               "replay-sensitive functions (use zlib.crc32)")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        rule = self

        class Visitor(ScopedVisitor):
            def __init__(self) -> None:
                super().__init__()
                self.hits: List[Violation] = []
                self._reported: Set[int] = set()

            def _flag(self, call: ast.Call, where: str) -> None:
                if id(call) in self._reported:
                    return
                self._reported.add(id(call))
                name = call.func.id  # type: ignore[union-attr]
                self.hits.append(rule.violation(
                    ctx, call,
                    f"salted `{name}()` {where}: per-process values "
                    f"break cross-run replay; derive stable keys with "
                    f"zlib.crc32"))

            def visit_Call(self, node: ast.Call) -> None:
                resolved = ctx.resolve(node.func)
                # key=lambda …: hash(…) in any ordering call.
                simple = resolved.rsplit(".", 1)[-1] if resolved else ""
                if simple in _ORDERING_FUNCS or simple == "sort":
                    for kw in node.keywords:
                        if kw.arg == "key":
                            for call in _salted_calls(kw.value, ctx):
                                self._flag(call, "in an ordering key")
                # hash() feeding a SeedSequence / spawn key.
                if resolved and resolved.endswith("SeedSequence"):
                    for arg in list(node.args) + [kw.value for kw
                                                  in node.keywords]:
                        for call in _salted_calls(arg, ctx):
                            self._flag(call, "in a seed/spawn key")
                # Any hash()/id() inside a replay-sensitive function.
                if (isinstance(node.func, ast.Name)
                        and node.func.id in SALTED_BUILTINS
                        and ctx.resolve(node.func) in SALTED_BUILTINS
                        and ctx.is_sensitive(self.qualname)
                        and not any(part in HASH_EXEMPT_METHODS
                                    for part in self.qualname.split("."))):
                    self._flag(node, "in a replay-sensitive function")
                self.generic_visit(node)

        visitor = Visitor()
        visitor.visit(ctx.tree)
        yield from visitor.hits


# ---------------------------------------------------------------------------
# DET004 — unsorted set/dict.keys() iteration in replay-sensitive code
# ---------------------------------------------------------------------------

_SET_OPS = (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
_ITER_CONSUMERS: Tuple[str, ...] = ("list", "tuple", "iter", "enumerate")


class _SetTracker:
    """Per-function syntactic inference of set-valued expressions."""

    def __init__(self, ctx: FileContext) -> None:
        self.ctx = ctx
        self.set_names: Set[str] = set()

    def is_setlike(self, node: ast.AST) -> bool:
        if isinstance(node, (ast.Set, ast.SetComp)):
            return True
        if isinstance(node, ast.Call):
            resolved = self.ctx.resolve(node.func)
            if resolved in ("set", "frozenset"):
                return True
            if (isinstance(node.func, ast.Attribute)
                    and node.func.attr == "keys" and not node.args):
                return True
            return False
        if isinstance(node, ast.BinOp) and isinstance(node.op, _SET_OPS):
            return (self.is_setlike(node.left)
                    or self.is_setlike(node.right))
        if isinstance(node, ast.IfExp):
            return (self.is_setlike(node.body)
                    and self.is_setlike(node.orelse))
        if isinstance(node, ast.Name):
            return node.id in self.set_names
        return False

    def observe_assign(self, node: ast.AST) -> None:
        targets: List[ast.expr] = []
        value: Optional[ast.expr] = None
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        if value is None:
            return
        for target in targets:
            if isinstance(target, ast.Name):
                if self.is_setlike(value):
                    self.set_names.add(target.id)
                else:
                    self.set_names.discard(target.id)


@register
class UnsortedSetIterRule(Rule):
    code = "DET004"
    summary = ("iteration over set/frozenset/dict.keys() without "
               "sorted() in a replay-sensitive function")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        rule = self

        class Visitor(ScopedVisitor):
            def __init__(self) -> None:
                super().__init__()
                self.hits: List[Violation] = []
                self._trackers: List[_SetTracker] = [_SetTracker(ctx)]

            def _visit_scope(self, node: ast.AST, name: str) -> None:
                self._trackers.append(_SetTracker(ctx))
                try:
                    super()._visit_scope(node, name)
                finally:
                    self._trackers.pop()

            @property
            def tracker(self) -> _SetTracker:
                return self._trackers[-1]

            def _check_iter(self, iter_node: ast.AST) -> None:
                if not ctx.is_sensitive(self.qualname):
                    return
                if self.tracker.is_setlike(iter_node):
                    self.hits.append(rule.violation(
                        ctx, iter_node,
                        "iterating a set/dict-keys view in a "
                        "replay-sensitive function: set order is salted "
                        "per process — wrap in sorted()"))

            def visit_Assign(self, node: ast.Assign) -> None:
                self.generic_visit(node)
                self.tracker.observe_assign(node)

            def visit_AnnAssign(self, node: ast.AnnAssign) -> None:
                self.generic_visit(node)
                self.tracker.observe_assign(node)

            def visit_For(self, node: ast.For) -> None:
                self._check_iter(node.iter)
                self.generic_visit(node)

            def _check_comprehension(self, node: ast.AST) -> None:
                for gen in getattr(node, "generators", ()):
                    self._check_iter(gen.iter)
                self.generic_visit(node)

            visit_ListComp = _check_comprehension
            visit_SetComp = _check_comprehension
            visit_DictComp = _check_comprehension
            visit_GeneratorExp = _check_comprehension

            def visit_Call(self, node: ast.Call) -> None:
                resolved = ctx.resolve(node.func)
                if resolved in _ITER_CONSUMERS and node.args:
                    self._check_iter(node.args[0])
                elif (isinstance(node.func, ast.Attribute)
                        and node.func.attr == "join" and node.args):
                    self._check_iter(node.args[0])
                self.generic_visit(node)

        visitor = Visitor()
        visitor.visit(ctx.tree)
        yield from visitor.hits


# ---------------------------------------------------------------------------
# ARCH001 — the import-layering contract
# ---------------------------------------------------------------------------

@register
class LayerContractRule(Rule):
    code = "ARCH001"
    summary = ("import edge not in the declared layer table "
               "(repro.lint.layers.LAYER_TABLE)")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        source_pkg = package_of(ctx.file.module)
        if source_pkg is None:
            return
        for node, target in ctx.file.import_nodes:
            target_pkg = package_of(target)
            if target_pkg is None:
                continue
            if not allowed_import(source_pkg, target_pkg):
                yield self.violation(
                    ctx, node,
                    f"layer contract: repro.{source_pkg} may not import "
                    f"repro.{target_pkg} (see repro/lint/layers.py)")


# ---------------------------------------------------------------------------
# ARCH002 — benchmarks emit through benchmarks/_emit.py
# ---------------------------------------------------------------------------

_WRITE_MODES = set("wax+")


def _is_write_mode(call: ast.Call) -> bool:
    """True when an ``open()`` call's mode string opens for writing."""
    mode: Optional[ast.expr] = None
    if len(call.args) >= 2:
        mode = call.args[1]
    for kw in call.keywords:
        if kw.arg == "mode":
            mode = kw.value
    if mode is None:
        return False  # bare open() reads
    if isinstance(mode, ast.Constant) and isinstance(mode.value, str):
        return bool(_WRITE_MODES & set(mode.value))
    return True  # dynamic mode: assume the worst


@register
class BenchEmitRule(Rule):
    code = "ARCH002"
    summary = ("benchmark writes results directly instead of routing "
               "through benchmarks/_emit.py")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not fnmatch.fnmatch(ctx.rel_path, "benchmarks/bench_*.py"):
            return
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id == "open":
                if _is_write_mode(node):
                    yield self.violation(
                        ctx, node,
                        "direct file write in a benchmark: route result "
                        "emission through benchmarks/_emit.py")
            elif isinstance(func, ast.Attribute):
                resolved = ctx.resolve(func)
                if resolved in ("json.dump",):
                    yield self.violation(
                        ctx, node,
                        "direct json.dump in a benchmark: use "
                        "_emit.write_bench_json / _emit.write_artifact")
                elif func.attr in ("write_text", "write_bytes"):
                    yield self.violation(
                        ctx, node,
                        "direct write_text/write_bytes in a benchmark: "
                        "use _emit.write_bench_json / "
                        "_emit.write_artifact")


# ---------------------------------------------------------------------------
# ARCH003 — public src/ code has a caller outside tests
# ---------------------------------------------------------------------------

_Definition = Union[ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef]


def _is_registered(node: _Definition) -> bool:
    """True for a definition decorated with ``@register``: registering
    a class is its use."""
    return any(
        (isinstance(dec, ast.Name) and dec.id == "register")
        or (isinstance(dec, ast.Attribute) and dec.attr == "register")
        for dec in node.decorator_list)


@register
class UnreferencedPublicRule(Rule):
    code = "ARCH003"
    summary = ("public src/ function or class that nothing but tests and "
               "package re-exports refers to")

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not ctx.rel_path.startswith("src/"):
            return
        referenced = ctx.project.referenced
        for node in ctx.tree.body:
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                      ast.ClassDef))
                    or node.name.startswith("_")
                    or node.name in referenced or _is_registered(node)):
                continue
            yield self.violation(
                ctx, node,
                f"public {node.name!r} has no caller outside tests: "
                "delete it, or keep deliberate API with a pragma and "
                "its reason")
