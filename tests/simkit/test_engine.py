"""Unit tests for the simulator event loop."""

import pytest

import repro.simkit
from repro.simkit import SimkitError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_timeout_advances_clock():
    sim = Simulator()
    sim.call_later(2.5, lambda: None)
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


def test_negative_timeout_rejected():
    sim = Simulator()
    with pytest.raises(ValueError):
        sim.call_later(-1.0, lambda: None)


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
    assert not proc.is_alive
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
    assert not proc.is_alive
    assert ended == [2.5]
    assert sim.now == 2.5


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


class CountingSimulator(Simulator):
    """Counts processed entries the way a profiler hooked on ``step`` does."""

    def __init__(self):
        super().__init__()
        self.steps = 0

    def step(self):
        self.steps += 1
        super().step()


def test_same_instant_order_of_loop_entries():
    sim = CountingSimulator()
    log = []

    def step():
        log.append(("step", sim.now))
        return 0.25

    def start():
        log.append("start")
        loop = sim.every(0.5, step)
        loop.callbacks.append(lambda _loop: log.append(("finish", sim.now)))

    sim.call_later(1.0, start)
    sim.call_later(1.0, lambda: log.append("scheduled earlier"))
    sim.call_later(1.5, lambda: log.append(("normal", 1.5)))
    sim.run()
    # The urgent bootstrap overtakes a normal entry scheduled earlier for
    # its instant; the finish entry follows the wake that ends the loop.
    assert log == ["start", ("step", 1.0), "scheduled earlier",
                   ("step", 1.25), ("normal", 1.5), ("finish", 1.5)]
    # 3 calls, the bootstrap, 2 wakes and the finish entry.
    assert sim.steps == 7

    sleeper = sim.every(float("inf"), lambda: 10.0)
    sim.call_later(1.0, sleeper.interrupt)
    sim.steps = 0
    sim.run()
    # Bootstrap, the interrupting call, the interrupt and the finish: the
    # unscheduled wake at 11.5 neither counts nor moves the clock.
    assert sim.steps == 4
    assert sim.now == 2.5
    assert not sleeper.is_alive


def test_public_surface():
    assert repro.simkit.__all__ == ["RngRegistry", "SimkitError", "Simulator"]
