"""Unit tests for the handle of a periodic loop (``Simulator.every``)."""

import pytest

from repro.simkit import SimkitError, Simulator


def test_exception_in_process_surfaces():
    # A failing step ends the loop: its finish callbacks run (so an owner
    # releases its running flag) before the error leaves ``run()``.
    for step, error in ((lambda: 1 / 0, ZeroDivisionError),
                        (lambda: -1.0, ValueError)):
        sim = Simulator()
        ended = []
        loop = sim.every(10.0, step)
        loop.callbacks.append(lambda _loop: ended.append(sim.now))
        with pytest.raises(error):
            sim.run()
        assert ended == [0.0]
        assert not loop.is_alive


def test_interrupt_wakes_a_sleeper():
    sim = Simulator()
    sleeper = sim.every(float("inf"), lambda: 100.0)
    ended = []
    sleeper.callbacks.append(lambda _loop: ended.append(sim.now))
    sim.call_later(3.0, sleeper.interrupt)
    sim.run()
    assert ended == [3.0]
    assert sim.now == 3.0


def test_interrupt_finished_process_rejected():
    sim = Simulator()
    loop = sim.every(1.0, lambda: 0.5)
    sim.run()
    with pytest.raises(SimkitError):
        loop.interrupt()


def test_self_interrupt_rejected():
    sim = Simulator()
    seen = []

    def step():
        me = sim.active_process
        with pytest.raises(SimkitError):
            me.interrupt()
        seen.append(me)
        return 1.0

    loop = sim.every(2.0, step)
    sim.run()
    assert seen == [loop, loop]
    assert sim.active_process is None


def test_is_alive():
    sim = Simulator()
    loop = sim.every(5.0, lambda: 5.0)
    assert loop.is_alive
    sim.run()
    assert not loop.is_alive


def test_interrupt_before_the_first_step():
    # The pending bootstrap is unscheduled like a wake: no step runs, the
    # finish callbacks do, and the kernel stays usable.
    sim = Simulator()
    calls, ended = [], []
    loop = sim.every(5.0, lambda: calls.append(sim.now) or 1.0)
    loop.callbacks.append(lambda _loop: ended.append(sim.now))
    loop.interrupt()
    sim.run()
    assert (calls, ended, sim.now) == ([], [0.0], 0.0)
