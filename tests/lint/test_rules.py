"""Per-rule fixtures: one positive, one negative, one pragma each.

Snippets are linted straight from strings (``ast.parse`` under the
hood) — no tempfile churn.  The fixture *path* matters: DET003/DET004
only fire in replay-sensitive locations, so positives land in
``src/repro/sync/…`` (a sink-module glob) while negatives double-check
that insensitive locations stay quiet.
"""

import pytest

from repro.lint import lint_sources, registered_rules
from repro.lint.engine import LintEngine, SourceFile

pytestmark = pytest.mark.lint

SENSITIVE = "src/repro/sync/example.py"
NEUTRAL = "src/repro/metrics/example.py"
BENCH = "benchmarks/bench_x1_example.py"


def run_rule(code, source, path=NEUTRAL):
    """One rule's report over one in-memory snippet."""
    engine = LintEngine(rules=[registered_rules()[code]()])
    return engine.run_sources([SourceFile(path, source)])


def violations(code, source, path=NEUTRAL):
    return [v.rule for v in run_rule(code, source, path).violations]


def suppressed(code, source, path=NEUTRAL):
    return [v.rule for v in run_rule(code, source, path).suppressed]


# -- DET001: wall clock ------------------------------------------------------


def test_det001_flags_wall_clock_call():
    src = "import time\n\ndef tick():\n    return time.time()\n"
    assert violations("DET001", src) == ["DET001"]


def test_det001_flags_from_import_and_reference():
    src = ("from time import perf_counter\n\n"
           "def shim(clock=perf_counter):\n    return clock()\n")
    assert violations("DET001", src) == ["DET001"]
    src = "import datetime\n\ndef stamp():\n    return datetime.datetime.now()\n"
    assert violations("DET001", src) == ["DET001"]


def test_det001_clean_sim_clock_passes():
    src = "def tick(sim):\n    return sim.now\n"
    assert violations("DET001", src) == []


def test_det001_benchmark_main_allowlisted():
    src = ("import time\n\ndef main():\n    t0 = time.perf_counter()\n"
           "    return t0\n")
    assert violations("DET001", src, path=BENCH) == []
    # ... but only main(): helpers in benchmarks still need a pragma.
    src = "import time\n\ndef helper():\n    return time.perf_counter()\n"
    assert violations("DET001", src, path=BENCH) == ["DET001"]


def test_det001_pragma_suppresses():
    src = ("import time\n\ndef shim():\n"
           "    return time.perf_counter()  # replint: ignore[DET001] -- shim\n")
    assert violations("DET001", src) == []
    assert suppressed("DET001", src) == ["DET001"]


# -- DET002: ambient randomness ----------------------------------------------


def test_det002_flags_random_module():
    src = "import random\n\ndef draw():\n    return random.random()\n"
    assert violations("DET002", src) == ["DET002"]


def test_det002_flags_np_random_global():
    src = ("import numpy as np\n\ndef draw():\n"
           "    return np.random.normal(0.0, 1.0)\n")
    assert violations("DET002", src) == ["DET002"]


def test_det002_flags_unseeded_default_rng_and_uuid4():
    src = ("import numpy as np\n\ndef make():\n"
           "    return np.random.default_rng()\n")
    assert violations("DET002", src) == ["DET002"]
    src = "import uuid\n\ndef tag():\n    return uuid.uuid4()\n"
    assert violations("DET002", src) == ["DET002"]


def test_det002_clean_injected_generator_passes():
    src = ("import numpy as np\n\n"
           "def make(seed):\n    return np.random.default_rng(seed)\n\n"
           "def draw(rng):\n    return rng.normal(0.0, 1.0)\n")
    assert violations("DET002", src) == []


def test_det002_pragma_suppresses():
    src = ("import uuid\n\ndef tag():\n"
           "    return uuid.uuid4()  # replint: ignore[DET002] -- log id only\n")
    assert violations("DET002", src) == []
    assert suppressed("DET002", src) == ["DET002"]


# -- DET003: salted hash()/id() ----------------------------------------------


def test_det003_flags_hash_in_ordering_key():
    src = "def order(items):\n    return sorted(items, key=lambda x: hash(x))\n"
    assert violations("DET003", src) == ["DET003"]


def test_det003_flags_hash_in_sensitive_function():
    src = "def encode(x):\n    return hash(x)\n"
    assert violations("DET003", src, path=SENSITIVE) == ["DET003"]


def test_det003_flags_hash_feeding_seed_sequence():
    src = ("import numpy as np\n\ndef spawn(name):\n"
           "    return np.random.SeedSequence(entropy=hash(name))\n")
    assert violations("DET003", src) == ["DET003"]


def test_det003_clean_crc32_and_dunder_hash_pass():
    src = ("import zlib\n\ndef key(name):\n"
           "    return zlib.crc32(name.encode())\n\n"
           "class Seat:\n"
           "    def __hash__(self):\n        return hash(self.seat_id)\n")
    assert violations("DET003", src, path=SENSITIVE) == []
    # Insensitive module, no ordering position: hash() is fine.
    src = "def bucket(x):\n    return hash(x)\n"
    assert violations("DET003", src, path=NEUTRAL) == []


def test_det003_pragma_suppresses():
    src = ("def encode(x):\n"
           "    return hash(x)  # replint: ignore[DET003] -- in-process only\n")
    assert violations("DET003", src, path=SENSITIVE) == []
    assert suppressed("DET003", src, path=SENSITIVE) == ["DET003"]


# -- DET004: unsorted set iteration ------------------------------------------


def test_det004_flags_set_iteration_in_sink_module():
    src = ("def emit(ids):\n"
           "    for x in set(ids):\n        yield x\n")
    assert violations("DET004", src, path=SENSITIVE) == ["DET004"]


def test_det004_flags_keys_set_ops_and_tuple():
    src = ("def emit(d, live):\n"
           "    for k in d.keys():\n        yield k\n")
    assert violations("DET004", src, path=SENSITIVE) == ["DET004"]
    src = ("def emit(a, live):\n"
           "    for k in set(a) - live:\n        yield k\n")
    assert violations("DET004", src, path=SENSITIVE) == ["DET004"]
    src = "def emit(ids):\n    return tuple({i for i in ids})\n"
    assert violations("DET004", src, path=SENSITIVE) == ["DET004"]


def test_det004_tracks_local_set_assignment():
    src = ("def emit(ids):\n"
           "    seen = set(ids)\n"
           "    return [x for x in seen]\n")
    assert violations("DET004", src, path=SENSITIVE) == ["DET004"]


def test_det004_sensitivity_propagates_through_call_graph():
    # helper() itself lives in a neutral module, but it calls
    # fingerprint() (a sink name) so the walk marks it sensitive.
    src = ("def helper(ids, state):\n"
           "    for x in set(ids):\n        state.append(x)\n"
           "    return fingerprint(state)\n\n"
           "def fingerprint(state):\n    return repr(state)\n")
    assert violations("DET004", src, path=NEUTRAL) == ["DET004"]


def test_det004_clean_sorted_and_insensitive_pass():
    src = ("def emit(ids):\n"
           "    for x in sorted(set(ids)):\n        yield x\n")
    assert violations("DET004", src, path=SENSITIVE) == []
    # Same unsorted loop in an insensitive module: allowed.
    src = "def emit(ids):\n    return [x for x in set(ids)]\n"
    assert violations("DET004", src, path=NEUTRAL) == []


def test_det004_pragma_suppresses():
    src = ("def emit(ids):\n"
           "    for x in set(ids):  # replint: ignore[DET004] -- order-free\n"
           "        yield x\n")
    assert violations("DET004", src, path=SENSITIVE) == []
    assert suppressed("DET004", src, path=SENSITIVE) == ["DET004"]


# -- ARCH001: layer contract -------------------------------------------------


def test_arch001_flags_upward_import():
    src = "from repro.obs.span import SpanTracer\n"
    assert violations("ARCH001", src,
                      path="src/repro/simkit/engine.py") == ["ARCH001"]
    src = "def f():\n    from repro.adapt.controller import AdaptDecision\n"
    assert violations("ARCH001", src,
                      path="src/repro/obs/slo.py") == ["ARCH001"]


def test_arch001_clean_downward_import_passes():
    src = "from repro.simkit.rng import RngRegistry\n"
    assert violations("ARCH001", src,
                      path="src/repro/sync/server.py") == []
    src = "from repro.cloud.regions import plan_regions\n"
    assert violations("ARCH001", src,
                      path="src/repro/sync/federation.py") == []


def test_arch001_pragma_suppresses():
    src = ("from repro.obs.span import SpanTracer"
           "  # replint: ignore[ARCH001] -- transitional\n")
    assert violations("ARCH001", src,
                      path="src/repro/simkit/engine.py") == []
    assert suppressed("ARCH001", src,
                      path="src/repro/simkit/engine.py") == ["ARCH001"]


# -- ARCH002: benchmark emission ---------------------------------------------


def test_arch002_flags_direct_writes():
    src = ("import json\n\ndef main():\n"
           "    with open('out.json', 'w') as fh:\n"
           "        json.dump({}, fh)\n")
    assert violations("ARCH002", src, path=BENCH) \
        == ["ARCH002", "ARCH002"]
    src = "def main(path):\n    path.write_text('data')\n"
    assert violations("ARCH002", src, path=BENCH) == ["ARCH002"]


def test_arch002_clean_emit_and_reads_pass():
    src = ("from benchmarks._emit import write_bench_json\n\n"
           "def main():\n"
           "    write_bench_json('x1', 'metric', 1.0, 'ms')\n"
           "    with open('in.json') as fh:\n"
           "        return fh.read()\n")
    assert violations("ARCH002", src, path=BENCH) == []
    # Non-benchmark files are out of scope entirely.
    src = "def save(path):\n    path.write_text('data')\n"
    assert violations("ARCH002", src, path=NEUTRAL) == []


def test_arch002_pragma_suppresses():
    src = ("def main(path):\n"
           "    path.write_text('x')  # replint: ignore[ARCH002] -- scratch\n")
    assert violations("ARCH002", src, path=BENCH) == []
    assert suppressed("ARCH002", src, path=BENCH) == ["ARCH002"]


# -- ARCH003: public src/ code has a caller outside tests --------------------

ARCH003_PKG = "src/repro/metrics/__init__.py"
SIBLING = "src/repro/metrics/sibling.py"


def arch003(files):
    """ARCH003's unsuppressed and suppressed hits over several files."""
    engine = LintEngine(rules=[registered_rules()["ARCH003"]()])
    report = engine.run_sources(
        [SourceFile(path, src) for path, src in files.items()])
    return ([(v.path, v.line) for v in report.violations],
            [(v.path, v.line) for v in report.suppressed])


def test_arch003_flags_dead_function_and_self_reference():
    src = ("def dead(n):\n    return dead(n - 1) if n else 0\n\n\n"
           "class Node:\n    def copy(self):\n        return Node()\n")
    assert arch003({NEUTRAL: src}) == (
        [(NEUTRAL, 1), (NEUTRAL, 5), (NEUTRAL, 6)], [])


def test_arch003_flags_name_only_export_lists_mention():
    files = {NEUTRAL: "__all__ = ['helper']\n\n\ndef helper():\n    return 1\n",
             ARCH003_PKG: "from repro.metrics.example import helper\n"
                          "__all__ = ['helper']\n"}
    assert arch003(files) == ([(NEUTRAL, 4)], [])


def test_arch003_name_used_from_sibling_module_passes():
    files = {NEUTRAL: "def helper():\n    return 1\n\n\ndef _private():\n    pass\n",
             SIBLING: ("from repro.metrics.example import helper\n\n"
                       "VALUE = helper()\n"),
             BENCH: "def main():\n    return 0\n"}
    # Private names and anything outside src/ (BENCH's main) are never
    # checked.
    assert arch003(files) == ([], [])


def test_arch003_string_reference_counts():
    files = {NEUTRAL: "class Hooked:\n    def run(self):\n        pass\n",
             SIBLING: "HOOKS = (('repro.metrics.example', 'Hooked', 'run'),)\n"}
    assert arch003(files) == ([], [])


def test_arch003_registered_class_passes():
    src = ("from repro.lint.engine import Rule, register\n\n\n"
           "@register\nclass ExampleRule(Rule):\n    code = 'X001'\n")
    assert arch003({NEUTRAL: src}) == ([], [])
    # Without the decorator nothing refers to the class.
    src = src.replace("@register\n", "")
    assert arch003({NEUTRAL: src}) == ([(NEUTRAL, 4)], [])


def test_arch003_pragma_suppresses():
    src = ("def oracle():  # replint: ignore[ARCH003] -- test oracle\n"
           "    return 1\n")
    assert arch003({NEUTRAL: src}) == ([], [(NEUTRAL, 1)])


def test_arch003_flags_name_only_imported():
    files = {NEUTRAL: "def helper():\n    return 1\n",
             SIBLING: "from repro.metrics.example import helper\n"}
    assert arch003(files) == ([(NEUTRAL, 1)], [])


def test_arch003_flags_name_used_only_by_suppressed_definition():
    files = {NEUTRAL: "class Config:\n    size = 1\n",
             SIBLING: ("from repro.metrics.example import Config\n\n\n"
                       "def oracle():  # replint: ignore[ARCH003] -- test oracle\n"
                       "    return Config()\n")}
    assert arch003(files) == ([(NEUTRAL, 1)], [(SIBLING, 4)])


def test_arch003_name_used_by_unsuppressed_definition_passes():
    files = {NEUTRAL: "class Config:\n    size = 1\n",
             SIBLING: ("from repro.metrics.example import Config\n\n\n"
                       "def build():\n    return Config()\n"),
             BENCH: ("from repro.metrics.sibling import build\n\n\n"
                     "def main():\n    return build()\n")}
    assert arch003(files) == ([], [])


# Class members: SIBLING instantiates the fixture's classes, so only
# their members are in question.

def test_arch003_flags_unreferenced_method_and_property():
    files = {NEUTRAL: ("class Box:\n"
                       "    def used(self):\n        return 1\n\n"
                       "    def unused(self):\n        return 2\n\n"
                       "    @property\n"
                       "    def size(self):\n        return 3\n"),
             SIBLING: ("from repro.metrics.example import Box\n\n"
                       "VALUE = Box().used()\n")}
    # A property is flagged on its ``def`` line, below the decorator.
    assert arch003(files) == ([(NEUTRAL, 5), (NEUTRAL, 9)], [])


def test_arch003_skips_dunder_and_private_members():
    files = {NEUTRAL: ("class Box:\n"
                       "    def __len__(self):\n        return 0\n\n"
                       "    def _helper(self):\n        return 1\n\n"
                       "    def public(self):\n        return 2\n"),
             SIBLING: ("from repro.metrics.example import Box\n\n"
                       "VALUE = Box()\n")}
    assert arch003(files) == ([(NEUTRAL, 8)], [])


def test_arch003_member_overriding_a_linted_base_passes():
    files = {NEUTRAL: ("class Base:\n"
                       "    def run(self):\n        return 1\n\n\n"
                       "class Child(Base):\n"
                       "    def run(self):\n        return 2\n"),
             SIBLING: ("from repro.metrics.example import Child\n\n"
                       "VALUE = Child()\n"),
             BENCH: ("from repro.metrics.example import Base\n\n\n"
                     "def main():\n    return Base()\n")}
    # Nothing calls ``run``: the base's definition is flagged once, and
    # the override is not flagged again.
    assert arch003(files) == ([(NEUTRAL, 2)], [])


def test_arch003_node_visitor_dispatch_methods_pass():
    files = {NEUTRAL: ("import ast\n\n\n"
                       "class Names(ast.NodeVisitor):\n"
                       "    def visit_Name(self, node):\n        pass\n\n\n"
                       "class Plain:\n"
                       "    def visit_Name(self, node):\n        pass\n"),
             SIBLING: ("from repro.metrics.example import Names, Plain\n\n"
                       "VALUE = (Names(), Plain())\n")}
    # A base from outside the linted files may call any member by
    # dispatch; a class without one gets no such exemption.
    assert arch003(files) == ([(NEUTRAL, 10)], [])


def test_arch003_flags_recursive_method():
    files = {NEUTRAL: ("class Tree:\n"
                       "    def depth(self, n):\n"
                       "        return self.depth(n - 1) if n else 0\n"),
             SIBLING: ("from repro.metrics.example import Tree\n\n"
                       "VALUE = Tree()\n")}
    assert arch003(files) == ([(NEUTRAL, 2)], [])


def test_arch003_flags_member_used_only_by_suppressed_member():
    files = {NEUTRAL: ("class Box:\n"
                       "    def helper(self):\n        return 1\n\n"
                       "    def oracle(self):  "
                       "# replint: ignore[ARCH003] -- test oracle\n"
                       "        return self.helper()\n"),
             SIBLING: ("from repro.metrics.example import Box\n\n"
                       "VALUE = Box()\n")}
    assert arch003(files) == ([(NEUTRAL, 2)], [(NEUTRAL, 5)])


# -- the whole registry ------------------------------------------------------


def test_every_registered_rule_has_code_and_summary():
    registry = registered_rules()
    assert {"DET001", "DET002", "DET003", "DET004",
            "ARCH001", "ARCH002", "ARCH003"} <= set(registry)
    for code, cls in registry.items():
        assert cls.code == code
        assert cls.summary


def test_lint_sources_runs_all_rules_together():
    report = lint_sources({
        SENSITIVE: ("import time\n\ndef f(ids):\n"
                    "    t = time.time()\n"
                    "    for x in set(ids):\n        yield x, t\n"),
    })
    codes = sorted(v.rule for v in report.violations)
    assert codes == ["ARCH003", "DET001", "DET004"]
    assert not report.ok
