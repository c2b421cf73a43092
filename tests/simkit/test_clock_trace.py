"""Unit tests for virtual clocks."""

import pytest

from repro.simkit import Simulator, VirtualClock


def test_clock_without_error_tracks_sim_time():
    sim = Simulator()
    clock = VirtualClock(sim)
    sim.run(until=10.0)
    assert clock.read() == pytest.approx(10.0)
    assert clock.error() == pytest.approx(0.0)


def test_clock_offset():
    sim = Simulator()
    clock = VirtualClock(sim, offset=0.25)
    assert clock.read() == pytest.approx(0.25)
    sim.run(until=4.0)
    assert clock.error() == pytest.approx(0.25)


def test_clock_drift_accumulates():
    sim = Simulator()
    clock = VirtualClock(sim, drift_ppm=100.0)  # 100 us/s fast
    sim.run(until=1000.0)
    assert clock.error() == pytest.approx(0.1, rel=1e-6)


def test_clock_adjust_steps_offset():
    sim = Simulator()
    clock = VirtualClock(sim, offset=1.0)
    clock.adjust(-1.0)
    assert clock.error() == pytest.approx(0.0)


def test_clock_discipline_trims_rate_not_history():
    sim = Simulator()
    clock = VirtualClock(sim, drift_ppm=50.0)
    sim.run(until=100.0)
    accumulated = clock.error()
    clock.discipline(50.0)  # kill the drift going forward
    sim.run(until=200.0)
    assert clock.error() == pytest.approx(accumulated, abs=1e-9)
    assert clock.drift_ppm == pytest.approx(0.0)

