"""Unit tests for the windowed control-plane signal primitives."""

import pytest

from repro.metrics.latency import LatencyTracker
from repro.metrics.stats import summarize
from repro.obs.signals import CounterRate, SampleWindow, percentile

pytestmark = pytest.mark.obs


def test_sample_window_returns_only_fresh_samples():
    tracker = LatencyTracker()
    window = SampleWindow(lambda: tracker.samples)
    tracker.record(0.1)
    tracker.record(0.2)
    assert window.poll() == [0.1, 0.2]
    assert window.poll() == []
    tracker.record(0.3)
    assert window.poll() == [0.3]


def test_sample_window_resets_on_shrunk_source():
    samples = [1.0, 2.0, 3.0]
    window = SampleWindow(lambda: samples)
    assert len(window.poll()) == 3
    # The metric was reset (e.g. a restarted server): the cursor follows.
    samples.clear()
    samples.append(7.0)
    assert window.poll() == [7.0]


def test_counter_rate_finite_difference():
    value = {"v": 0.0}
    rate = CounterRate(lambda: value["v"])
    assert rate.poll(0.0) == 0.0  # priming poll
    value["v"] = 100.0
    assert rate.poll(2.0) == pytest.approx(50.0)
    assert rate.poll(3.0) == pytest.approx(0.0)


def test_counter_rate_handles_reset_and_zero_dt():
    value = {"v": 50.0}
    rate = CounterRate(lambda: value["v"])
    rate.poll(1.0)
    value["v"] = 10.0  # counter reset
    assert rate.poll(2.0) == 0.0
    value["v"] = 20.0
    assert rate.poll(2.0) == 0.0  # dt == 0
    value["v"] = 30.0
    assert rate.poll(3.0) == pytest.approx(10.0)


def test_percentile_nearest_rank_and_validation():
    values = [5.0, 1.0, 3.0]
    assert percentile(values, 0.0) == 1.0
    assert percentile(values, 50.0) == 3.0
    assert percentile(values, 100.0) == 5.0
    assert percentile([], 95.0, default=2.5) == 2.5
    # Nearest-rank, not the linear interpolation summarize() uses.
    assert percentile([1.0, 2.0, 3.0, 4.0], 50.0) == 2.0
    assert summarize([1.0, 2.0, 3.0, 4.0]).p50 == 2.5
    with pytest.raises(ValueError):
        percentile(values, 101.0)
