"""Unit tests for snapshot interpolation and dead reckoning."""

import numpy as np
import pytest

from repro.avatar.interpolation import SnapshotBuffer
from repro.avatar.prediction import DeadReckoner
from repro.avatar.state import AvatarState
from repro.sensing.pose import Pose
from repro.simkit import Simulator
from repro.workload.traces import SeatedMotion, WalkingMotion


def snap(t, x=0.0, y=0.0):
    return AvatarState("p", t, Pose(np.array([x, y, 0.0])))


def test_buffer_empty_returns_none():
    buffer = SnapshotBuffer()
    assert buffer.sample(1.0) is None
    assert buffer.staleness(1.0) == float("inf")
    assert buffer.latest is None


def test_buffer_interpolates_between_snapshots():
    buffer = SnapshotBuffer(interpolation_delay=0.1)
    buffer.push(snap(0.0, x=0.0))
    buffer.push(snap(1.0, x=10.0))
    state = buffer.sample(0.6)  # render time 0.5 => halfway
    assert state.pose.position[0] == pytest.approx(5.0)
    assert state.time == pytest.approx(0.5)


def test_buffer_drops_out_of_order():
    buffer = SnapshotBuffer()
    buffer.push(snap(1.0))
    buffer.push(snap(0.5))
    assert len(buffer) == 1
    assert buffer.latest.time == 1.0


def test_buffer_clamps_extrapolation():
    buffer = SnapshotBuffer(interpolation_delay=0.0, max_extrapolation=0.2)
    buffer.push(snap(0.0, x=0.0))
    buffer.push(snap(1.0, x=1.0))  # 1 m/s
    state = buffer.sample(3.0)     # 2 s past newest; clamp to 0.2
    assert state.pose.position[0] == pytest.approx(1.2)
    assert buffer.stale_reads == 1


def test_buffer_before_oldest_returns_oldest():
    buffer = SnapshotBuffer(interpolation_delay=0.0)
    buffer.push(snap(5.0, x=7.0))
    buffer.push(snap(6.0, x=8.0))
    state = buffer.sample(2.0)
    assert state.pose.position[0] == 7.0


def test_buffer_staleness_tracks_latest():
    buffer = SnapshotBuffer()
    buffer.push(snap(2.0))
    assert buffer.staleness(2.5) == pytest.approx(0.5)


def test_buffer_validation():
    with pytest.raises(ValueError):
        SnapshotBuffer(interpolation_delay=-1.0)
    with pytest.raises(ValueError):
        SnapshotBuffer(max_extrapolation=-0.1)


def test_dead_reckoner_linear_motion_exact():
    reckoner = DeadReckoner()
    trace = WalkingMotion([(0, 0, 0), (100, 0, 0)], speed_m_per_s=2.0, loop=False)
    reckoner.observe(0.0, trace(0.0))
    reckoner.observe(1.0, trace(1.0))
    predicted = reckoner.predict(1.5)
    assert predicted.distance_to(trace(1.5)) < 1e-9


def test_dead_reckoner_error_grows_with_horizon():
    sim = Simulator(seed=1)
    trace = SeatedMotion((0, 0, 1.2), sim.rng.stream("t"), sway_amplitude_m=0.1)
    reckoner = DeadReckoner()
    for t in np.arange(0.0, 2.0, 0.05):
        reckoner.observe(float(t), trace(float(t)))
    short = reckoner.error(2.0, trace(2.0))
    long = reckoner.error(2.5, trace(2.5))
    assert long > short


def test_dead_reckoner_not_ready_uses_last_pose():
    reckoner = DeadReckoner()
    reckoner.observe(0.0, Pose(np.array([1.0, 2.0, 3.0])))
    predicted = reckoner.predict(5.0)
    assert np.allclose(predicted.position, [1.0, 2.0, 3.0])


def test_dead_reckoner_validation():
    with pytest.raises(ValueError):
        DeadReckoner(history=1)
    with pytest.raises(RuntimeError):
        DeadReckoner().predict(0.0)


def test_dead_reckoner_acceleration_mode():
    reckoner = DeadReckoner(use_acceleration=True)
    # Uniformly accelerated motion x = t^2 => v grows linearly.
    for t in (0.0, 1.0, 2.0):
        reckoner.observe(t, Pose(np.array([t * t, 0.0, 0.0])))
    linear = DeadReckoner()
    for t in (0.0, 1.0, 2.0):
        linear.observe(t, Pose(np.array([t * t, 0.0, 0.0])))
    truth = Pose(np.array([9.0, 0.0, 0.0]))  # at t=3
    assert reckoner.predict(3.0).distance_to(truth) < linear.predict(3.0).distance_to(truth)
