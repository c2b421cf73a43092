"""``replint``: determinism & layering static analysis for this repo.

Every headline result here gates on byte-identical seeded replay
(C3e/C3g/C3h compare ``fingerprint()`` outputs across runs), and the
layering keeps the deterministic kernel below everything it feeds.
This package enforces both contracts *statically*, at CI time::

    python -m repro.lint src benchmarks perf examples     # human output
    python -m repro.lint src benchmarks perf examples --format=json

Rules (see :mod:`repro.lint.rules` for the full docstrings):

========  ==========================================================
DET001    wall-clock access outside the benchmark-main allowlist
DET002    ambient randomness instead of injected Generator streams
DET003    salted ``hash()``/``id()`` in ordering/spawn/replay paths
DET004    unsorted set/dict-keys iteration in replay-sensitive code
ARCH001   import edge missing from the declared layer table
ARCH002   benchmark result emission bypassing ``benchmarks/_emit.py``
ARCH003   public ``src/`` function, class or class member only tests use
========  ==========================================================

Suppress a deliberate exception inline, with a justification::

    t0 = time.perf_counter()  # replint: ignore[DET001] -- wall phase

The package itself is stdlib-only (``ast`` + ``fnmatch``): linting never
executes the code under analysis, so a file with a broken import still
gets checked.
"""

from repro.lint.engine import (
    FileContext,
    LintEngine,
    LintReport,
    Rule,
    ScopedVisitor,
    SourceFile,
    Violation,
    lint_sources,
    main,
    parse_pragmas,
    register,
    registered_rules,
)
from repro.lint.layers import FOUNDATION, LAYER_TABLE, allowed_import

__all__ = [
    "FOUNDATION",
    "FileContext",
    "LAYER_TABLE",
    "LintEngine",
    "LintReport",
    "Rule",
    "ScopedVisitor",
    "SourceFile",
    "Violation",
    "allowed_import",
    "lint_sources",
    "main",
    "parse_pragmas",
    "register",
    "registered_rules",
]
