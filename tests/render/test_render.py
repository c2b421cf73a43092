"""Unit tests for displays, pipelines, budgets, and remote rendering."""

import math

import numpy as np
import pytest

from repro.render.budget import FrameBudget
from repro.render.display import DisplayModel
from repro.render.pipeline import DEVICE_PROFILES, DeviceProfile, RenderPipeline
from repro.render.remote import CollaborativeRenderer, RemoteRenderConfig
from repro.sensing.pose import Pose, yaw_quat
from repro.simkit import Simulator
from repro.workload.traces import SeatedMotion
from tests.oracles.traces import StationaryMotion


def test_display_vsync_wait():
    display = DisplayModel(refresh_hz=100.0)  # 10 ms period
    assert display.vsync_wait(0.013) == pytest.approx(0.007)
    assert display.vsync_wait(0.020) == pytest.approx(0.0, abs=1e-12)


def test_display_gesture_visibility_shrinks_with_fov():
    """Paper: limited FOV yields partial view of body gestures."""
    wide = DisplayModel(fov_horizontal_deg=200.0)
    narrow = DisplayModel(name="narrow", fov_horizontal_deg=52.0)  # HoloLens-ish
    gesture = math.radians(140)  # arms spread
    assert wide.visible_fraction_of_gesture(gesture) == 1.0
    assert narrow.visible_fraction_of_gesture(gesture) < 0.45


def test_display_validation():
    with pytest.raises(ValueError):
        DisplayModel(fov_horizontal_deg=5.0)
    with pytest.raises(ValueError):
        DisplayModel(refresh_hz=0.0)
    with pytest.raises(ValueError):
        DisplayModel().visible_fraction_of_gesture(0.0)


def test_device_frame_time_scales():
    device = DEVICE_PROFILES["standalone_hmd"]
    assert device.frame_time(0) == device.base_frame_cost_s
    assert device.frame_time(12_000_000) > device.frame_time(1_000)
    with pytest.raises(ValueError):
        device.frame_time(-1)


def test_pipeline_renders_within_budget():
    pipeline = RenderPipeline(DEVICE_PROFILES["pc_vr"], DisplayModel(refresh_hz=90.0))
    for _ in range(90):
        mtp = pipeline.render_frame(triangles=1_000_000, sample_age=0.005)
        assert mtp is not None
        assert mtp < 0.05
    assert pipeline.frames_dropped == 0


def test_pipeline_drops_oversized_frames():
    pipeline = RenderPipeline(DEVICE_PROFILES["webgl_phone"], DisplayModel(refresh_hz=72.0))
    heavy = 10_000_000  # way past the phone's per-frame capacity
    assert pipeline.render_frame(heavy) is None
    assert (pipeline.frames_rendered, pipeline.frames_dropped) == (0, 1)


def test_pipeline_max_triangles_ordering():
    """The paper's device hierarchy: phone < standalone HMD < PC."""
    display = DisplayModel(refresh_hz=72.0)
    limits = {
        name: RenderPipeline(DEVICE_PROFILES[name], display).max_triangles_at_refresh()
        for name in ("webgl_phone", "standalone_hmd", "pc_vr")
    }
    assert limits["webgl_phone"] < limits["standalone_hmd"] < limits["pc_vr"]


def test_pipeline_sample_age_validation():
    pipeline = RenderPipeline(DEVICE_PROFILES["pc_vr"])
    with pytest.raises(ValueError):
        pipeline.render_frame(1000, sample_age=-0.1)


def test_budget_phone_cannot_afford_photoreal_classroom():
    """C3c motivation: 30 sophisticated avatars overwhelm thin clients."""
    avatars = [(f"s{i}", 2.0 + i * 0.5, 0.5) for i in range(30)]
    phone = FrameBudget(DEVICE_PROFILES["webgl_phone"])
    pc = FrameBudget(DEVICE_PROFILES["pc_vr"])
    phone_report = phone.plan_report(avatars)
    pc_report = pc.plan_report(avatars)
    assert pc_report.quality > phone_report.quality
    assert "photoreal" not in phone_report.levels()


def test_budget_fits_within_refresh():
    avatars = [(f"s{i}", 2.0, 0.5) for i in range(10)]
    budget = FrameBudget(DEVICE_PROFILES["standalone_hmd"],
                         scene_overhead_triangles=100_000)
    report = budget.plan_report(avatars)
    assert report.fits


def test_budget_validation():
    with pytest.raises(ValueError):
        FrameBudget(DEVICE_PROFILES["pc_vr"], scene_overhead_triangles=-1)


def still_head(t):
    return Pose()


def test_remote_render_still_head_speculation_perfect():
    renderer = CollaborativeRenderer(still_head, RemoteRenderConfig(rtt=0.08))
    outcome = renderer.frame(1.0, mode="cloud")
    assert outcome.used_cloud
    assert outcome.quality == pytest.approx(0.95)


def test_remote_render_fast_turn_breaks_speculation():
    def turning_head(t):
        return Pose(np.zeros(3), yaw_quat(3.0 * t))  # 3 rad/s turn

    renderer = CollaborativeRenderer(
        turning_head, RemoteRenderConfig(rtt=0.1), predictor_gain=0.0
    )
    cloud = renderer.frame(1.0, mode="cloud")
    assert cloud.quality == 0.0  # speculation missed entirely
    collab = renderer.frame(1.0, mode="collaborative")
    assert collab.quality == pytest.approx(0.45)  # local fallback
    assert not collab.used_cloud


def test_collaborative_beats_both_extremes_under_motion():
    """C3c shape: collaborative >= max(local, cloud) in delivered quality."""
    sim = Simulator(seed=11)
    trace = SeatedMotion((0, 0, 1.2), sim.rng.stream("head"), head_scan_rad=0.8)
    config = RemoteRenderConfig(rtt=0.08)
    qualities = {}
    for mode in ("local", "cloud", "collaborative"):
        renderer = CollaborativeRenderer(trace, config, predictor_gain=0.5)
        qualities[mode] = renderer.mean_quality(0.0, 30.0, fps=30.0, mode=mode)
    assert qualities["collaborative"] >= qualities["local"]
    assert qualities["collaborative"] >= qualities["cloud"]


def test_remote_render_validation():
    renderer = CollaborativeRenderer(still_head)
    with pytest.raises(ValueError):
        renderer.frame(0.0, mode="magic")
    with pytest.raises(ValueError):
        CollaborativeRenderer(still_head, local_quality=2.0)
    with pytest.raises(ValueError):
        RemoteRenderConfig(rtt=-1.0)
    with pytest.raises(ValueError):
        renderer.mean_quality(1.0, 0.0, 30.0, "local")
