"""Golden digest of the motion-to-photon report over a seeded span corpus.

The corpus is synthetic: a :class:`SpanTracer` fed explicit intervals
drawn as integer microseconds from a seeded generator, so no libm call
touches the inputs.  It covers what the report has to sort out:

* taxonomy stages in a random subset, with gaps (coverage below 1) and
  repeated stages (summed within a trace);
* extra non-taxonomy stages, some first recorded before taxonomy
  stages (the ``stages`` order must still list the taxonomy first);
* child spans that start at or after photon (outside the budget) and
  child spans left open;
* incomplete traces (root never finished, or a non-``mtp`` root) and
  unrelated span groups that must not count as incomplete;
* a fault log with paired, never-cleared and instantaneous faults.

``mtp_report.json`` pins one digest of ``report_json``, ``table()``,
``breakdown_ms()`` and ``to_registry().snapshot()``.  On a mismatch the
failure prints the new digest; a deliberate output change updates it.
"""

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from repro.net.faults import FaultLog
from repro.obs.export import report_json
from repro.obs.report import MotionToPhotonReport
from repro.obs.span import MTP_STAGES, SpanTracer

pytestmark = pytest.mark.obs

GOLDEN_PATH = Path(__file__).with_name("mtp_report.json")

EXTRA_STAGES = ("decode", "jitter_buffer")


def _s(microseconds) -> float:
    return int(microseconds) / 1e6


def _stage_plan(rng):
    """Stage names of one trace: a taxonomy subset, extras spliced in,
    and now and then a repeated stage."""
    plan = [stage for stage in MTP_STAGES if rng.integers(0, 5)]
    for extra in EXTRA_STAGES:
        if rng.integers(0, 3) == 0:
            plan.insert(int(rng.integers(0, len(plan) + 1)), extra)
    if plan and rng.integers(0, 4) == 0:
        plan.append(plan[int(rng.integers(0, len(plan)))])
    return plan


def build_corpus(seed, n_traces=80):
    rng = np.random.default_rng(seed)
    tracer = SpanTracer(clock=lambda: 0.0)
    cursor = 0
    for index in range(n_traces):
        cursor += int(rng.integers(20_000, 120_000))
        kind = int(rng.integers(0, 12))
        if kind == 0:
            # Unrelated instrumentation: parentless tick spans.
            tracer.record_span("tick", "tick", _s(cursor),
                               _s(cursor + rng.integers(500, 4_000)))
            continue
        root_name = "frame" if kind == 1 else "mtp"
        root = tracer.start_trace(root_name, start=_s(cursor),
                                  user=f"u{index % 7}")
        t = cursor
        for stage in _stage_plan(rng):
            t += int(rng.integers(0, 3)) * int(rng.integers(0, 2_000))
            duration = int(rng.integers(0, 18_000))
            tracer.record_span(stage, stage, _s(t), _s(t + duration),
                               parent=root)
            t += duration
        if rng.integers(0, 5) == 0:
            tracer.start_span("decode", "decode", root, start=_s(t))
        if kind == 2:
            continue  # never photoned: incomplete
        root.finish(_s(t))
        if rng.integers(0, 4) == 0:
            tracer.record_span("render", "render", _s(t),
                               _s(t + rng.integers(1, 9_000)), parent=root)
    return tracer


def build_fault_log():
    log = FaultLog()
    log.record(0.5, "link_down", "up:edge-a")
    log.record(0.9, "link_up", "up:edge-a")
    log.record(1.3, "burst_loss", "down:edge-b")
    log.record(2.0, "server_crash", "shard-b")
    log.record(2.4, "server_restart", "shard-b")
    log.record(3.1, "link_up", "wan:never-down")
    log.record(5.5, "link_down", "wan:edge-c")
    return log


def report_digest(seed) -> str:
    report = MotionToPhotonReport.from_tracer(build_corpus(seed))
    report.correlate_faults(build_fault_log())
    value = {
        "report_json": report_json(report),
        "table": report.table(),
        "breakdown_ms": report.breakdown_ms(),
        "registry": report.to_registry().snapshot(),
    }
    blob = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def test_corpus_exercises_every_case():
    report = MotionToPhotonReport.from_tracer(build_corpus(5))
    n_faulted = len(report.correlate_faults(build_fault_log()))
    assert report.incomplete > 0 and n_faulted > 0
    assert report.violations() and 0.0 < report.mean_coverage() < 1.0
    taxonomy = [stage for stage in MTP_STAGES if stage in report.stages]
    assert report.stages[:len(taxonomy)] == taxonomy
    assert set(report.stages[len(taxonomy):]) == set(EXTRA_STAGES)


@pytest.mark.parametrize("seed", [5, 23])
def test_mtp_report_matches_golden_digest(seed):
    got = report_digest(seed)
    expected = json.loads(GOLDEN_PATH.read_text())[f"seed{seed}"]
    assert got == expected, (
        f"seed {seed}: MTP report digest is now {got} (golden {expected})")
