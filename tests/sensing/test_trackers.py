"""Unit tests for headset tracker, room sensors, and fusion."""

import numpy as np
import pytest

from repro.sensing.fusion import PoseFusionFilter
from repro.sensing.headset import HeadsetTracker
from repro.sensing.sensor import RoomSensorArray
from repro.simkit import Simulator
from repro.workload.traces import SeatedMotion, WalkingMotion
from tests.oracles.traces import StationaryMotion


def seated_truth(sim, anchor=(2.0, 3.0, 1.2)):
    return SeatedMotion(anchor, sim.rng.stream("truth"))


def test_headset_emits_at_rate():
    sim = Simulator(seed=1)
    truth = seated_truth(sim)
    samples = []
    tracker = HeadsetTracker(sim, "hmd-1", truth, rate_hz=50.0, on_sample=samples.append)
    tracker.run(duration=1.0)
    sim.run()
    assert len(samples) == 50
    assert samples[1].time - samples[0].time == pytest.approx(0.02)
    assert samples[0].seq == 0 and samples[-1].seq == 49


def test_headset_noise_is_bounded_and_nonzero():
    sim = Simulator(seed=2)
    truth = seated_truth(sim)
    errors = []
    tracker = HeadsetTracker(
        sim, "hmd-2", truth, rate_hz=100.0, position_noise_m=0.002,
        on_sample=lambda s: errors.append(s.pose.distance_to(truth(s.time))),
    )
    tracker.run(duration=2.0)
    sim.run()
    assert 0.0 < np.mean(errors) < 0.05


def test_headset_dropout():
    sim = Simulator(seed=3)
    truth = seated_truth(sim)
    samples = []
    tracker = HeadsetTracker(
        sim, "hmd-3", truth, rate_hz=100.0, dropout=0.5, on_sample=samples.append
    )
    tracker.run(duration=2.0)
    sim.run()
    assert 50 < len(samples) < 150
    assert tracker.samples_dropped + tracker.samples_emitted == 200


def test_headset_drift_accumulates_without_noise():
    sim = Simulator(seed=4)
    truth = StationaryMotion()
    samples = []
    tracker = HeadsetTracker(
        sim, "hmd-4", truth, rate_hz=20.0,
        position_noise_m=0.0, orientation_noise_rad=0.0,
        drift_rate_m_per_sqrt_s=0.01, on_sample=samples.append,
    )
    tracker.run(duration=60.0)
    sim.run()
    early = samples[10].pose.distance_to(truth(0.0))
    late_errors = [s.pose.distance_to(truth(0.0)) for s in samples[-100:]]
    assert np.mean(late_errors) > early


def test_headset_validation():
    sim = Simulator()
    truth = StationaryMotion()
    with pytest.raises(ValueError):
        HeadsetTracker(sim, "x", truth, rate_hz=0)
    with pytest.raises(ValueError):
        HeadsetTracker(sim, "x", truth, dropout=1.0)


def test_room_array_position_only():
    sim = Simulator(seed=5)
    truth = seated_truth(sim)
    array = RoomSensorArray(sim, "room-a", occlusion=0.0)
    sample = array.measure("hmd-1", truth)
    assert sample is not None
    assert sample.source == "room"
    # Orientation is not observed: identity quaternion.
    assert np.allclose(sample.pose.orientation, [1, 0, 0, 0])


def test_room_array_full_occlusion_returns_none():
    sim = Simulator(seed=6)
    truth = StationaryMotion()
    array = RoomSensorArray(sim, "room-b", occlusion=0.99)
    results = [array.measure("x", truth) for _ in range(300)]
    misses = sum(1 for r in results if r is None)
    assert misses > 200
    assert array.frames_fully_occluded == misses


def test_room_array_noise_grows_with_distance():
    sim = Simulator(seed=7)
    near = StationaryMotion()  # at origin-ish, close to sensor 0
    errors_near, errors_far = [], []
    array = RoomSensorArray(
        sim, "room-c",
        sensor_positions=[np.array([0.0, 0.0, 3.0])],
        occlusion=0.0, base_noise_m=0.001, noise_per_meter=0.02,
    )
    from repro.sensing.pose import Pose
    from tests.oracles.traces import StationaryMotion as SM
    far = SM(Pose(np.array([30.0, 0.0, 0.0])))
    for _ in range(200):
        errors_near.append(array.measure("a", near).pose.distance_to(near(0)))
        errors_far.append(array.measure("a", far).pose.distance_to(far(0)))
    assert np.mean(errors_far) > 2 * np.mean(errors_near)


def test_fusion_beats_room_only_tracking():
    """A2 shape: fused estimate should track better than room sensors alone."""
    sim = Simulator(seed=8)
    truth = WalkingMotion([(0, 0, 1), (8, 0, 1), (8, 6, 1)], speed_m_per_s=1.0)
    fused = PoseFusionFilter()
    room_errors, fused_errors = [], []

    def on_headset(sample):
        fused.update(sample)

    def on_room(sample):
        fused.update(sample)
        room_errors.append(sample.pose.distance_to(truth(sample.time)))
        if fused.updates > 5:
            fused_errors.append(fused.estimate().distance_to(truth(sample.time)))

    array = RoomSensorArray(
        sim, "room-d", occlusion=0.1, base_noise_m=0.05, on_sample=on_room
    )
    tracker = HeadsetTracker(sim, "hmd-5", truth, rate_hz=72.0, on_sample=on_headset)
    tracker.run(duration=10.0)
    array.run("hmd-5", truth, duration=10.0)
    sim.run()
    assert np.mean(fused_errors) < np.mean(room_errors)


def test_fusion_estimate_predicts_forward():
    sim = Simulator(seed=9)
    truth = WalkingMotion([(0, 0, 1), (100, 0, 1)], speed_m_per_s=2.0, loop=False)
    fused = PoseFusionFilter()
    tracker = HeadsetTracker(
        sim, "hmd-6", truth, rate_hz=50.0, position_noise_m=0.001,
        drift_rate_m_per_sqrt_s=0.0, on_sample=fused.update,
    )
    tracker.run(duration=5.0)
    sim.run()
    ahead = fused.estimate(time=sim.now + 0.1)
    behind = fused.estimate()
    # Walking in +x at 2 m/s: 0.1 s lookahead ~ 0.2 m further along x.
    assert ahead.position[0] - behind.position[0] == pytest.approx(0.2, abs=0.05)


def test_fusion_rejects_out_of_order_and_empty():
    fused = PoseFusionFilter()
    with pytest.raises(RuntimeError):
        fused.estimate()
    from repro.sensing.headset import PoseSample
    from repro.sensing.pose import Pose
    fused.update(PoseSample(time=1.0, device_id="x", pose=Pose(), seq=0))
    with pytest.raises(ValueError):
        fused.update(PoseSample(time=0.5, device_id="x", pose=Pose(), seq=1))


def test_fusion_uncertainty_shrinks_with_updates():
    sim = Simulator(seed=10)
    truth = StationaryMotion()
    fused = PoseFusionFilter()
    before = fused.position_uncertainty()
    tracker = HeadsetTracker(sim, "hmd-7", truth, rate_hz=50.0, on_sample=fused.update)
    tracker.run(duration=1.0)
    sim.run()
    assert fused.position_uncertainty() < before
