"""Fixed-bucket histograms, labeled families, and registry wiring."""

import math

import pytest

from repro.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    Counter,
    Histogram,
    MetricFamily,
    MetricsRegistry,
    label_string,
)


def test_histogram_rejects_bad_buckets():
    with pytest.raises(ValueError):
        Histogram(buckets=())
    with pytest.raises(ValueError):
        Histogram(buckets=(0.1, 0.1))
    with pytest.raises(ValueError):
        Histogram(buckets=(0.2, 0.1))
    with pytest.raises(ValueError):
        Histogram(buckets=(0.1, math.inf))


def test_histogram_cumulative_buckets_and_overflow():
    histogram = Histogram(buckets=(0.01, 0.1, 1.0))
    for value in (0.005, 0.05, 0.05, 0.5, 5.0):
        histogram.observe(value)
    counts = dict(histogram.bucket_counts())
    assert counts[0.01] == 1
    assert counts[0.1] == 3
    assert counts[1.0] == 4
    assert counts[float("inf")] == 5
    assert histogram.count == 5
    assert histogram.sum == pytest.approx(5.605)
    assert histogram.max == 5.0
    for bad in (-0.1, float("nan")):
        with pytest.raises(ValueError):
            histogram.observe(bad)
    assert histogram.count == 5
    histogram.observe(float("inf"))  # a legal overflow sample
    assert histogram.count == 6


def test_histogram_percentiles_interpolate():
    histogram = Histogram(buckets=(1.0, 2.0, 4.0))
    for value in (0.5, 1.5, 1.5, 3.0):
        histogram.observe(value)
    assert 0.0 < histogram.percentile(25) <= 1.0
    assert 1.0 <= histogram.percentile(60) <= 2.0
    summary = histogram.summary()
    assert summary["count"] == 4.0
    assert summary["p50"] <= summary["p95"] <= summary["p99"]
    assert Histogram().percentile(50) == 0.0  # empty
    overflow = Histogram(buckets=(1.0, 2.0))
    for value in (0.5, 5.0, 7.0):
        overflow.observe(value)
    assert overflow.percentile(99) == 7.0  # the observed max, not bound 2.0
    with pytest.raises(ValueError):
        histogram.percentile(101)


def test_default_buckets_resolve_the_interaction_budget():
    assert 0.100 in DEFAULT_LATENCY_BUCKETS
    assert list(DEFAULT_LATENCY_BUCKETS) == sorted(DEFAULT_LATENCY_BUCKETS)


def test_family_enforces_label_schema():
    family = MetricFamily("drops", ("stage",), Counter, kind="counter")
    family.labels(stage="uplink").inc()
    family.labels(stage="uplink").inc(2.0)
    family.labels(stage="wan").inc()
    assert len(family) == 2
    assert family.labels(stage="uplink").value == 3.0
    with pytest.raises(ValueError):
        family.labels(wrong="x")
    with pytest.raises(ValueError):
        MetricFamily("bad", (), Counter)


def test_registry_families_and_collision_detection():
    registry = MetricsRegistry()
    counters = registry.counter_family("drops", ("link",))
    assert registry.counter_family("drops", ("link",)) is counters
    with pytest.raises(ValueError):
        registry.gauge_family("drops", ("other",))
    counters.labels(link="wan").inc()
    gauges = registry.gauge_family("depth", ("queue",))
    gauges.labels(queue="egress").set(3.0)
    assert set(registry.families) == {"drops", "depth"}


def test_registry_plain_histogram_and_gauge_default():
    registry = MetricsRegistry()
    histogram = registry.histogram("lat", buckets=(0.1, 1.0))
    assert registry.histogram("lat") is histogram  # buckets fixed at creation
    histogram.observe(0.05)
    assert registry.gauge("missing", default=0.0) == 0.0
    with pytest.raises(KeyError):
        registry.gauge("missing")
    registry.set_gauge("present", 2.0)
    assert registry.gauge("present") == 2.0


def test_label_string_renders_exposition_style():
    assert label_string(("a", "b"), ("x", "y")) == '{a="x",b="y"}'
