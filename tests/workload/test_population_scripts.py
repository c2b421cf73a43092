"""Unit tests for populations, arrivals, and activity scripts."""

import numpy as np
import pytest

from repro.workload.arrival import (
    BurstyArrivals,
    ClassScheduleForecast,
)
from repro.workload.lecture import (
    ActivityPhase,
    standard_script,
)
from repro.workload.population import (
    DEFAULT_CITY_WEIGHTS,
    sample_worldwide,
)


def test_sample_worldwide_counts_and_fields():
    population = sample_worldwide(200, np.random.default_rng(0))
    assert len(population) == 200
    user = population.users[0]
    assert user.city in DEFAULT_CITY_WEIGHTS
    assert user.region
    assert user.user_id.startswith("remote-")


def test_sample_worldwide_skews_east_asian():
    population = sample_worldwide(2000, np.random.default_rng(1))
    east_asia = sum(user.region == "east_asia" for user in population.users)
    assert east_asia > 0.3 * len(population)


def test_sample_worldwide_custom_weights():
    population = sample_worldwide(
        50, np.random.default_rng(2), weights={"london": 1.0}
    )
    assert population.cities() == ["london"]
    assert all(user.region == "europe" for user in population.users)


def test_sample_worldwide_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        sample_worldwide(-1, rng)
    with pytest.raises(ValueError):
        sample_worldwide(5, rng, weights={"london": -1.0})


def test_bursty_arrivals_shape():
    arrivals = BurstyArrivals(
        np.random.default_rng(4), n=100, burst_fraction=0.8, burst_window=60.0
    )
    times = arrivals.times()
    assert len(times) == 100
    assert times == sorted(times)
    in_burst = sum(1 for t in times if t <= 60.0)
    assert in_burst >= 80


def test_bursty_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        BurstyArrivals(rng, n=-1)
    with pytest.raises(ValueError):
        BurstyArrivals(rng, n=10, burst_fraction=1.5)


def test_bursty_tail_starts_at_last_burst_arrival():
    """Regression: stragglers must be able to overlap the burst window.

    The tail used to start at exactly ``burst_window``, so no straggler
    could ever arrive before the window closed even when the last burst
    arrival landed well inside it.  The tail now opens at the last burst
    arrival: with a sluggish last joiner and a brisk tail rate, some
    straggler lands inside the window.
    """
    arrivals = BurstyArrivals(
        np.random.default_rng(11), n=40, burst_fraction=0.5,
        burst_window=60.0, tail_rate_per_s=2.0,
    )
    times = arrivals.times()
    # Replay the same draws the generator made, in the same order.
    replay_rng = np.random.default_rng(11)
    burst = sorted(replay_rng.uniform(0.0, 60.0, size=20).tolist())
    last_burst = burst[-1]
    tail = sorted(set(times) - set(burst))
    assert len(times) == 40
    assert times == sorted(times)
    assert len(tail) == 20
    # Tail draws accumulate from the last burst arrival, not the window.
    assert min(tail) > last_burst
    assert any(t < 60.0 for t in tail), \
        "no straggler overlapped the burst window"


def test_bursty_tail_seed_stable_and_degenerate_fractions():
    for fraction in (0.0, 0.5, 1.0):
        first = BurstyArrivals(np.random.default_rng(7), n=30,
                               burst_fraction=fraction).times()
        second = BurstyArrivals(np.random.default_rng(7), n=30,
                                burst_fraction=fraction).times()
        assert first == second
        assert len(first) == 30
        assert first == sorted(first)
    # With no burst at all the tail starts at zero, not burst_window.
    pure_tail = BurstyArrivals(np.random.default_rng(8), n=50,
                               burst_fraction=0.0, burst_window=60.0,
                               tail_rate_per_s=1.0).times()
    assert min(pure_tail) < 60.0


def test_class_schedule_forecast_expected_joins():
    forecast = ClassScheduleForecast(
        [(100.0, 1000)], burst_fraction=0.8, burst_window=50.0,
        tail_rate_per_s=2.0,
    )
    # The whole burst lands inside its window ...
    assert forecast.expected_joins(100.0, 150.0) == pytest.approx(800.0)
    # ... half the window, half the burst ...
    assert forecast.expected_joins(100.0, 125.0) == pytest.approx(400.0)
    # ... the tail drains at its rate until the stragglers run out.
    assert forecast.expected_joins(150.0, 160.0) == pytest.approx(20.0)
    total = forecast.expected_joins(0.0, 1e6)
    assert total == pytest.approx(1000.0)
    # Outside any class: silence.
    assert forecast.expected_joins(0.0, 99.0) == 0.0
    assert forecast.expected_joins(10.0, 10.0) == 0.0


def test_class_schedule_forecast_validation():
    with pytest.raises(ValueError):
        ClassScheduleForecast([(0.0, -5)])
    with pytest.raises(ValueError):
        ClassScheduleForecast([], burst_fraction=2.0)
    with pytest.raises(ValueError):
        ClassScheduleForecast([], burst_window=0.0)


@pytest.mark.parametrize(
    "kind", ["lecture", "tutorial", "seminar", "group_project", "gamified_breakout"]
)
def test_standard_scripts_well_formed(kind):
    script = standard_script(kind, duration_s=3600.0)
    assert script.phases
    if kind != "gamified_breakout":
        assert script.total_duration == pytest.approx(3600.0)
    for phase in script.phases:
        assert phase.duration_s > 0


def test_standard_script_unknown_kind():
    with pytest.raises(KeyError):
        standard_script("recess")


def test_activity_phase_validation():
    with pytest.raises(ValueError):
        ActivityPhase("x", -1.0, 0.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        ActivityPhase("x", 10.0, -1.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        ActivityPhase("x", 10.0, 1.0, 1.5, 0.5)
    with pytest.raises(ValueError):
        ActivityPhase("x", 10.0, 1.0, 0.5, -0.5)
