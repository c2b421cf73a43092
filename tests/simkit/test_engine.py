"""Unit tests for the simulator event loop."""

import pytest

from repro.simkit import Simulator
from repro.simkit.errors import SimkitError


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.timeout(2.5)
    sim.run()
    assert sim.now == 2.5


def test_run_until_advances_clock_even_without_events():
    sim = Simulator()
    sim.run(until=10.0)
    assert sim.now == 10.0


def test_run_until_does_not_process_later_events():
    sim = Simulator()
    fired = []
    sim.call_later(5.0, lambda: fired.append(5.0))
    sim.call_later(15.0, lambda: fired.append(15.0))
    sim.run(until=10.0)
    assert fired == [5.0]
    assert sim.now == 10.0
    sim.run()
    assert fired == [5.0, 15.0]


def test_run_into_the_past_rejected():
    sim = Simulator()
    sim.run(until=5.0)
    with pytest.raises(SimkitError):
        sim.run(until=1.0)


def test_call_at_and_call_later():
    sim = Simulator()
    times = []
    sim.call_at(3.0, lambda: times.append(sim.now))
    sim.call_later(1.0, lambda: times.append(sim.now))
    sim.run()
    assert times == [1.0, 3.0]


def test_call_at_past_rejected():
    sim = Simulator()
    sim.run(until=2.0)
    with pytest.raises(SimkitError):
        sim.call_at(1.0, lambda: None)


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for label in ("a", "b", "c"):
        sim.call_later(1.0, lambda label=label: order.append(label))
    sim.run()
    assert order == ["a", "b", "c"]


def test_step_on_empty_schedule_raises():
    sim = Simulator()
    with pytest.raises(SimkitError):
        sim.step()


def test_peek():
    sim = Simulator()
    assert sim.peek() == float("inf")
    sim.timeout(4.0)
    assert sim.peek() == 4.0


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.timeout(-1.0)


def test_run_process_returns_value():
    sim = Simulator()

    def body(sim):
        yield sim.timeout(1.0)
        return 42

    assert sim.run_process(body(sim)) == 42


def test_run_process_unfinished_raises():
    sim = Simulator()

    def body(sim):
        yield sim.timeout(100.0)

    with pytest.raises(SimkitError):
        sim.run_process(body(sim), until=1.0)


def test_rng_streams_reproducible():
    a = Simulator(seed=123).rng.stream("x").random(5)
    b = Simulator(seed=123).rng.stream("x").random(5)
    c = Simulator(seed=124).rng.stream("x").random(5)
    assert list(a) == list(b)
    assert list(a) != list(c)


def test_every_last_wake_lands_on_the_horizon():
    sim = Simulator()
    wakes = []

    def step():
        wakes.append(sim.now)
        return 0.3

    proc = sim.every(1.0, step)
    sim.run(until=1.0)
    # Steps at 0, 0.3, 0.6, 0.9; the last sleep is cut to wake at 1.0.
    assert len(wakes) == 4
    assert not proc.is_alive
    assert sim.now == 1.0


def test_every_none_stops_the_process():
    sim = Simulator()
    calls = []

    def step():
        calls.append(sim.now)
        return None if len(calls) == 3 else 0.5

    proc = sim.every(10.0, step)
    sim.run()
    assert calls == [0.0, 0.5, 1.0]
    assert proc.ok
    assert sim.now == 1.0


def test_every_interrupt_ends_it_cleanly():
    sim = Simulator()
    calls = []

    def step():
        calls.append(sim.now)
        return 1.0

    proc = sim.every(10.0, step)
    ended = []
    proc.callbacks.append(lambda _proc: ended.append(sim.now))
    sim.call_later(2.5, proc.interrupt)
    sim.run()
    assert calls == [0.0, 1.0, 2.0]
    assert proc.ok
    assert ended == [2.5]


def test_every_counts_steps_through_float_drift():
    # 40 sleeps of 0.05 s sum to 2.000000000000001: the drift guard and
    # the cut last sleep still give exactly 40 calls, all inside 2.0 s.
    sim = Simulator()
    calls = []

    def step():
        calls.append(sim.now)
        return 0.05

    proc = sim.every(2.0, step)
    sim.run(until=2.0)
    assert len(calls) == 40
    assert calls[-1] < 2.0
    assert not proc.is_alive
