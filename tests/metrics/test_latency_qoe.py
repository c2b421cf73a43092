"""Unit tests for latency trackers, stage budgets, QoE models, registry."""

import pytest

from repro.metrics import (
    InteractionQoeModel,
    LatencyTracker,
    MetricsRegistry,
    StageBudget,
    VideoQoeModel,
)


def test_latency_tracker_records_and_summarizes():
    tracker = LatencyTracker()
    for value in (0.010, 0.020, 0.030):
        tracker.record(value)
    assert len(tracker) == 3
    assert tracker.summary().mean == pytest.approx(0.020)
    assert tracker.summary_ms().mean == pytest.approx(20.0)


def test_latency_tracker_rejects_negative():
    tracker = LatencyTracker()
    for bad in (-0.1, float("nan")):
        with pytest.raises(ValueError):
            tracker.record(bad)
    assert tracker.samples == []


def test_latency_tracker_fraction_above():
    tracker = LatencyTracker()
    for value in (0.05, 0.15, 0.25, 0.35):
        tracker.record(value)
    assert tracker.fraction_above(0.10) == pytest.approx(0.75)
    with pytest.raises(ValueError):
        LatencyTracker().fraction_above(0.1)


def test_stage_budget_breakdown_and_table():
    budget = StageBudget()
    budget.record("uplink", 0.005)
    budget.record("fusion", 0.002)
    budget.record("uplink", 0.007)
    breakdown = budget.mean_breakdown_ms()
    assert list(breakdown) == ["uplink", "fusion"]
    assert breakdown["uplink"] == pytest.approx(6.0)
    assert budget.stages == ["uplink", "fusion"]
    assert budget.tracker("uplink").samples == [0.005, 0.007]


def test_interaction_qoe_shape():
    model = InteractionQoeModel()
    perfect = model.performance(0.0)
    at_50 = model.performance(50.0)
    at_100 = model.performance(100.0)
    at_300 = model.performance(300.0)
    # Perfect at zero, monotone decreasing, collapse at 300 ms.
    assert perfect == pytest.approx(1.0)
    assert perfect > at_50 > at_100 > at_300
    # Paper: degradation exists below 100 ms but is modest.
    assert 0.0 < model.degradation(100.0) < 0.5
    # ... and is severe in the hundreds of milliseconds.
    assert model.degradation(300.0) > 0.5


def test_interaction_qoe_notice_threshold():
    model = InteractionQoeModel()
    assert not model.is_noticeable(80.0)
    assert model.is_noticeable(120.0)


def test_interaction_qoe_rejects_negative():
    with pytest.raises(ValueError):
        InteractionQoeModel().performance(-1.0)


def test_video_qoe_bounds_and_monotonicity():
    model = VideoQoeModel()
    best = model.mos(1.0, 0.0, 0.0)
    worse_quality = model.mos(0.5, 0.0, 0.0)
    stalled = model.mos(1.0, 0.5, 0.0)
    late = model.mos(1.0, 0.0, 500.0)
    assert best == 5.0
    assert worse_quality < best
    assert stalled < best
    assert late < best
    assert 1.0 <= model.mos(0.0, 1.0, 1000.0) <= 5.0


def test_video_qoe_validation():
    model = VideoQoeModel()
    with pytest.raises(ValueError):
        model.mos(1.5, 0.0, 0.0)
    with pytest.raises(ValueError):
        model.mos(0.5, -0.1, 0.0)
    with pytest.raises(ValueError):
        model.mos(0.5, 0.0, -1.0)


def test_metrics_registry():
    registry = MetricsRegistry()
    registry.incr("packets")
    registry.incr("packets", 2)
    registry.set_gauge("load", 0.7)
    registry.tracker("rtt").record(0.1)
    assert registry.counter("packets") == 3
    assert registry.counter("missing") == 0
    assert registry.gauge("load") == 0.7
    with pytest.raises(KeyError):
        registry.gauge("missing")
    assert registry.snapshot() == {
        "counter:packets": 3,
        "gauge:load": 0.7,
        "tracker:rtt:count": 1.0,
        "tracker:rtt:mean": 0.1,
        "tracker:rtt:p95": 0.1,
    }
    assert len(registry.tracker("rtt")) == 1


def test_metrics_snapshot_namespaces_prevent_collisions():
    registry = MetricsRegistry()
    registry.incr("gauge:x", 5)      # a counter whose *name* is "gauge:x"
    registry.set_gauge("x", 1.0)
    snapshot = registry.snapshot()
    assert snapshot["counter:gauge:x"] == 5
    assert snapshot["gauge:x"] == 1.0
    # An empty tracker still exports its zero count — a scraper can tell
    # "tracker exists, no samples yet" apart from "tracker missing".
    registry.tracker("idle")
    snapshot = registry.snapshot()
    assert snapshot["tracker:idle:count"] == 0.0
    assert "tracker:idle:mean" not in snapshot
