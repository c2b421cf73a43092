"""Unit tests for motion traces and behavioral models."""

import numpy as np
import pytest

from repro.simkit import Simulator
from repro.workload.behavior import (
    BehaviorModel,
    BehaviorState,
    transition_matrix,
)
from repro.workload.traces import SeatedMotion, WalkingMotion
from tests.oracles.traces import StationaryMotion


def test_seated_motion_stays_near_anchor():
    sim = Simulator(seed=1)
    trace = SeatedMotion((2.0, 3.0, 1.2), sim.rng.stream("m"), sway_amplitude_m=0.05)
    for t in np.linspace(0, 60, 200):
        pose = trace(float(t))
        assert np.linalg.norm(pose.position - [2.0, 3.0, 1.2]) < 0.2


def test_seated_motion_is_smooth():
    sim = Simulator(seed=2)
    trace = SeatedMotion((0, 0, 1.2), sim.rng.stream("m"))
    speed = trace.average_speed(0.0, 10.0)
    assert 0.0 < speed < 0.5  # cm/s scale sway, never running


def test_seated_motion_deterministic_given_seed():
    a = SeatedMotion((0, 0, 1), Simulator(seed=3).rng.stream("m"))
    b = SeatedMotion((0, 0, 1), Simulator(seed=3).rng.stream("m"))
    assert np.allclose(a(5.0).position, b(5.0).position)


def test_walking_motion_follows_waypoints():
    trace = WalkingMotion([(0, 0, 0), (10, 0, 0)], speed_m_per_s=1.0, loop=False)
    assert np.allclose(trace(0.0).position, [0, 0, 0])
    assert np.allclose(trace(5.0).position, [5, 0, 0])
    assert np.allclose(trace(100.0).position, [10, 0, 0])  # clamps at end


def test_walking_motion_loops():
    trace = WalkingMotion([(0, 0, 0), (10, 0, 0), (10, 10, 0), (0, 10, 0)],
                          speed_m_per_s=1.0, loop=True)
    assert trace.path_length == pytest.approx(40.0)
    assert np.allclose(trace(40.0).position, trace(0.0).position, atol=1e-9)


def test_walking_motion_heading_matches_direction():
    trace = WalkingMotion([(0, 0, 0), (10, 0, 0)], speed_m_per_s=1.0, loop=False)
    pose = trace(1.0)
    from repro.avatar.retarget import orientation_yaw
    assert orientation_yaw(pose) == pytest.approx(0.0, abs=1e-9)


def test_walking_motion_validation():
    with pytest.raises(ValueError):
        WalkingMotion([(0, 0, 0)])
    with pytest.raises(ValueError):
        WalkingMotion([(0, 0, 0), (1, 0, 0)], speed_m_per_s=0.0)
    with pytest.raises(ValueError):
        WalkingMotion([(0, 0, 0), (0, 0, 0)])


def test_stationary_motion():
    trace = StationaryMotion()
    assert np.allclose(trace(0.0).position, trace(100.0).position)


def test_average_speed_validation():
    trace = StationaryMotion()
    with pytest.raises(ValueError):
        trace.average_speed(5.0, 5.0)


def test_transition_matrix_rows_sum_to_one():
    for engagement in (0.0, 0.5, 1.0):
        for interactivity in (0.0, 0.5, 1.0):
            matrix = transition_matrix(engagement, interactivity)
            assert np.allclose(matrix.sum(axis=1), 1.0)
            assert (matrix >= 0).all()


def test_transition_matrix_validation():
    with pytest.raises(ValueError):
        transition_matrix(1.5, 0.5)
    with pytest.raises(ValueError):
        transition_matrix(0.5, -0.1)


def test_higher_engagement_more_attention():
    """F1 shape: engagement drives attention fraction."""
    results = {}
    for engagement in (0.2, 0.9):
        rng = np.random.default_rng(42)
        model = BehaviorModel(rng, engagement=engagement, interactivity=0.5)
        model.run(duration=3600 * 10)
        results[engagement] = model.attention_fraction
    assert results[0.9] > results[0.2] + 0.1


def test_behavior_model_counts_interactions():
    rng = np.random.default_rng(7)
    model = BehaviorModel(rng, engagement=0.8, interactivity=1.0)
    model.run(duration=3600 * 5)
    assert model.interactions_started > 0
    assert model.fraction_in(BehaviorState.INTERACTING) > 0


def test_behavior_step_validation():
    model = BehaviorModel(np.random.default_rng(0))
    with pytest.raises(ValueError):
        model.step(dt=0)
