"""Unit tests for motion traces and behavioral models."""

import math

import numpy as np
import pytest

from repro.sensing.pose import quat_normalize
from repro.simkit import Simulator
from repro.workload.behavior import (
    BehaviorModel,
    BehaviorState,
    transition_matrix,
)
from repro.workload.traces import SeatedMotion, WalkingMotion
from tests.oracles.traces import (
    StationaryMotion,
    average_speed,
    quat_normalize_reference,
    seated_pose_reference,
)


def test_seated_motion_stays_near_anchor():
    sim = Simulator(seed=1)
    trace = SeatedMotion((2.0, 3.0, 1.2), sim.rng.stream("m"), sway_amplitude_m=0.05)
    for t in np.linspace(0, 60, 200):
        pose = trace(float(t))
        assert np.linalg.norm(pose.position - [2.0, 3.0, 1.2]) < 0.2


def test_seated_motion_is_smooth():
    sim = Simulator(seed=2)
    trace = SeatedMotion((0, 0, 1.2), sim.rng.stream("m"))
    speed = average_speed(trace, 0.0, 10.0)
    assert 0.0 < speed < 0.5  # cm/s scale sway, never running


def test_seated_motion_deterministic_given_seed():
    a = SeatedMotion((0, 0, 1), Simulator(seed=3).rng.stream("m"))
    b = SeatedMotion((0, 0, 1), Simulator(seed=3).rng.stream("m"))
    assert np.allclose(a(5.0).position, b(5.0).position)


def _sin_cos_arguments(trace, t):
    """The five sine arguments of ``trace(t)`` and its two half-angles
    (yaw, pitch), whose sine and cosine make the orientation."""
    w = np.array(trace._omegas)
    ph = np.array(trace._phases)
    sines = [w[k] * t + ph[k] for k in range(5)]
    half_yaw = (trace.facing_yaw + trace.head_scan * np.sin(sines[3])) / 2.0
    half_pitch = 0.15 * np.sin(sines[4]) / 2.0
    return sines, half_yaw, half_pitch


def _libm_disagreement(trace, t):
    """A sine or cosine argument of ``trace(t)`` on which NumPy and
    ``math`` differ, or None."""
    sines, half_yaw, half_pitch = _sin_cos_arguments(trace, t)
    for x in sines + [half_yaw, half_pitch]:
        if np.sin(x) != math.sin(x) or np.cos(x) != math.cos(x):
            return float(x)
    return None


def _seated_samples(n_traces=250, per_trace=80, seed=2024):
    """Seeded ``(trace, t)`` pairs: random anchors and amplitudes, facing
    yaws across the circle (negative half-angles included), a few traces
    with no head scan facing -0.0 or 0.0 (signed-zero yaw), and times up
    to 1e4 s."""
    rng = np.random.default_rng(seed)
    for k in range(n_traces):
        still_head = k % 10 == 0
        trace = SeatedMotion(
            rng.uniform(-20.0, 20.0, size=3), np.random.default_rng(k),
            sway_amplitude_m=rng.uniform(0.0, 0.1),
            bob_amplitude_m=rng.uniform(0.0, 0.03),
            head_scan_rad=0.0 if still_head else rng.uniform(0.0, 1.5),
            facing_yaw=(-0.0 if k % 20 == 0 else 0.0) if still_head
            else rng.uniform(-np.pi, np.pi),
        )
        times = rng.uniform(0.0, 1e4, size=per_trace)
        times[:4] = (0.0, 1e-3, 1.0, 1e4)
        for t in times.tolist():
            yield trace, t


def test_seated_motion_matches_array_formula_bit_for_bit():
    """The float path returns the bytes NumPy's formula does.  Negative
    half-angles make the ``0.0 * s`` axis terms -0.0; a yaw of exactly
    -0.0 (no head scan, facing -0.0) pushes signed zeros further."""
    samples = 0
    negative = {"yaw": 0, "pitch": 0, "-0.0 yaw": 0}
    for trace, t in _seated_samples():
        pose = trace(t)
        expected = seated_pose_reference(trace, t)
        samples += 1
        _sines, half_yaw, half_pitch = _sin_cos_arguments(trace, t)
        negative["yaw"] += int(half_yaw < 0.0)
        negative["pitch"] += int(half_pitch < 0.0)
        negative["-0.0 yaw"] += int(half_yaw == 0.0 and np.signbit(half_yaw))
        if pose.position.tobytes() == expected.position.tobytes() \
                and pose.orientation.tobytes() == \
                expected.orientation.tobytes():
            continue
        argument = _libm_disagreement(trace, t)
        if argument is not None:
            pytest.skip(f"NumPy and math sin/cos differ at {argument!r}")
        assert pose.position.tobytes() == expected.position.tobytes(), (t,)
        assert pose.orientation.tobytes() == \
            expected.orientation.tobytes(), (t,)
    assert samples >= 20_000
    assert min(negative.values()) > 0, negative


def test_quat_normalize_matches_array_formula_bit_for_bit():
    rng = np.random.default_rng(11)
    quats = rng.normal(size=(100_000, 4)) * rng.uniform(
        1e-3, 1e3, size=(100_000, 1))
    expected = quat_normalize_reference(quats)
    got = np.array([quat_normalize(q) for q in quats])
    assert got.tobytes() == expected.tobytes()


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
        average_speed(trace, 5.0, 5.0)


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
