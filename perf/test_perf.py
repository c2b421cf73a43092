"""Checks of the benchmark itself, on tiny sizes of every workload.

    python -m pytest perf -q
"""

from __future__ import annotations

import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import harness
import run
import tracing

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(harness.SRC))
SEED = 5

#: Per-layer metrics that must be non-zero on each workload: the layers
#: each workload is chosen to exercise.
EXERCISED = {
    "hall-stream": ("sync.interest.calls", "sync.delta.encode_calls",
                    "sync.delta.states_applied", "sync.server.ticks",
                    "sync.server.snapshots_sent"),
    "hall-still": ("sync.interest.calls", "sync.delta.encode_calls",
                   "sync.server.ticks"),
    "world-seminar": ("sync.federation.relay_fires", "sync.client.publishes",
                      "sync.client.snapshots", "workload.pose_self_s",
                      "simkit.events", "net.link.sends"),
    "faulty-classroom": ("obs.qoe.poll_self_s", "adapt.poll_self_s",
                         "adapt.decisions", "simkit.events", "net.link.sends"),
    "class-rush": ("sync.federation.membership_calls", "obs.slo.poll_self_s",
                   "obs.flight.poll_self_s", "cloud.autoscaler.poll_self_s",
                   "cloud.autoscaler.decisions"),
}


def declared(kind: str) -> dict:
    return {metric["name"]: metric["unit"] for metric in SPEC[kind]}


@pytest.fixture(scope="module")
def tiny_runs():
    """An untraced and a traced in-process run of every workload."""
    return {
        workload: (harness.measure(workload, SEED, 0.0, "tiny"),
                   harness.measure(workload, SEED, 0.0, "tiny", trace=True,
                                   results_dir=None))
        for workload in run.WORKLOADS
    }


def test_spec_is_well_formed():
    name = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    names = [m["name"] for kind in ("end_to_end", "per_layer")
             for m in SPEC[kind]] + [w["name"] for w in SPEC["workloads"]]
    assert all(name.match(n) for n in names) and len(names) == len(set(names))
    assert all(0 < m["bound"] <= 0.25 for m in SPEC["end_to_end"])
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert declared("end_to_end") == run.END_TO_END_UNITS
    assert declared("per_layer") == tracing.LAYER_UNITS


def test_workloads_match_spec():
    import workloads

    assert list(run.WORKLOADS) == [w["name"] for w in SPEC["workloads"]]
    assert list(run.WORKLOADS) == list(workloads.WORKLOADS)


def test_runs_emit_every_declared_metric(tiny_runs):
    for workload, (untraced, traced) in tiny_runs.items():
        summary = run.summarize([untraced], [traced], [untraced["setup_s"]])
        assert summary["errors"] == [] and summary["failed"] == 0, workload
        assert {k: v[1] for k, v in summary["metrics"].items()} == \
            declared("end_to_end")
        assert {k: v[1] for k, v in summary["layers"].items()} == \
            declared("per_layer")
        for metric in EXERCISED[workload]:
            assert summary["layers"][metric][0] > 0, (workload, metric)


def test_traced_fingerprint_matches_untraced(tiny_runs):
    for workload, (untraced, traced) in tiny_runs.items():
        assert traced["fingerprint"] == untraced["fingerprint"], workload


def hooked_attributes() -> list:
    """The class attributes the tracer wraps, as ``(class, name, value)``."""
    return [
        (cls, attr, vars(cls)[attr])
        for module, cls_name, attr, _span, _observe in tracing.HOOKS
        for cls in [getattr(importlib.import_module(module), cls_name)]
    ]


def test_trace_restores_every_wrapped_attribute():
    originals = hooked_attributes()
    result = harness.measure("faulty-classroom", SEED, 0.0, "tiny",
                             trace=True, results_dir=None)
    assert result["layers"]["simkit.events"] > 0
    for (cls, attr, original), (_, _, now) in zip(originals, hooked_attributes()):
        assert now is original, f"{cls.__name__}.{attr}"


def test_raising_operation_is_counted_failed(monkeypatch, capsys):
    import workloads

    class Raising(workloads.Hall):
        def ops(self):
            for index, op in enumerate(super().ops()):
                yield op if index != 2 else self.boom

        def boom(self):
            raise RuntimeError("boom")

    monkeypatch.setitem(workloads.WORKLOADS, "hall-still",
                        lambda seed, size: Raising(seed, size, churn=0.02))

    def in_process(workload, args, hash_seed, deadline, *, trace=False,
                   setup_only=False):
        return harness.measure(workload, args.seed, args.seconds, args.size,
                               trace, setup_only, results_dir=None)

    monkeypatch.setattr(run, "child", in_process)
    originals = hooked_attributes()
    for trace in ("0", "1"):
        assert run.main(["--workload", "hall-still", "--seed", str(SEED),
                         "--seconds", "0", "--trace", trace,
                         "--size", "tiny"]) == 1
        result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert result["correct"] is False
        assert 0 < result["failed"] <= result["attempted"]
    assert hooked_attributes() == originals


def test_outcome_outside_its_limit_fails_the_repetition(monkeypatch):
    import workloads

    monkeypatch.setattr(workloads.WorldSeminar, "LIMITS",
                        {"snapshot_age_p50_ms": (0.0, 1e-3)})
    result = harness.measure("world-seminar", SEED, 0.0, "tiny")
    assert result["ops_failed"] == result["ops"] > 0
    assert any("snapshot_age_p50_ms" in e for e in result["errors"])


def test_replay_mismatch_fails_a_run_once():
    def fake(fingerprint, ops_failed):
        return {"reps": [{"wall_s": 1.0, "op_s": [0.1] * 10}],
                "peak_rss_mb": 1.0, "fingerprint": fingerprint,
                "errors": ["check"] if ops_failed else [],
                "ops": 10, "ops_failed": ops_failed, "outcomes": {}}

    summary = run.summarize([fake("a", 0), fake("b", 4)], [], [1.0])
    assert summary["attempted"] == 20 and summary["failed"] == 10


def test_command_prints_contract_result():
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "hall-still",
         "--seed", str(SEED), "--seconds", "0", "--trace", "0",
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        declared("end_to_end")


def test_command_fails_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perf", tmp_path / "perf",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perf/run.py", "--workload", "hall-still",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
