"""Unit tests for events."""

import pytest

from repro.simkit import Simulator
from repro.simkit.errors import SimkitError


def test_event_succeed_delivers_value():
    sim = Simulator()
    event = sim.event()
    seen = []
    event.callbacks.append(lambda evt: seen.append(evt.value))
    event.succeed("payload")
    sim.run()
    assert seen == ["payload"]


def test_event_double_trigger_rejected():
    sim = Simulator()
    event = sim.event()
    event.succeed()
    with pytest.raises(SimkitError):
        event.succeed()
    with pytest.raises(SimkitError):
        event.fail(RuntimeError("nope"))


def test_value_before_trigger_raises():
    sim = Simulator()
    event = sim.event()
    with pytest.raises(SimkitError):
        _ = event.value


def test_fail_requires_exception_instance():
    sim = Simulator()
    with pytest.raises(TypeError):
        sim.event().fail("not an exception")


def test_unhandled_failed_event_surfaces():
    sim = Simulator()
    sim.event().fail(RuntimeError("boom"))
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()


def test_defused_failed_event_is_silent():
    sim = Simulator()
    event = sim.event()
    event.defused = True
    event.fail(RuntimeError("boom"))
    sim.run()  # no raise
