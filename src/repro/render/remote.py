"""Remote and collaborative rendering with viewpoint speculation.

The cloud renders a high-quality frame for the viewpoint it *predicts* the
user will have one round trip later (Outatime, ref [26]).  On arrival the
device compares the predicted head pose with the actual one: small error
is hidden by image-space reprojection, large error forces a local-only
frame.  Collaborative mode always renders a low-LOD local frame as the
fallback, merging in the cloud layer when it is valid — the paper's
"render a low-quality version of the models on-device and merge the
rendered frame with high-quality frames rendered in the cloud".
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from repro.render.pipeline import DEVICE_PROFILES, DeviceProfile
from repro.sensing.pose import Pose, quat_angle


@dataclass(frozen=True)
class RemoteRenderConfig:
    """Parameters of the cloud rendering path."""

    rtt: float = 0.06
    cloud_render_time: float = 0.004
    #: Head rotation error (radians) reprojection can hide.
    reprojection_limit_rad: float = 0.06
    #: Quality of a cloud frame after reprojection, per radian of error.
    reprojection_penalty_per_rad: float = 3.0
    cloud_device: DeviceProfile = DEVICE_PROFILES["cloud_gpu"]

    def __post_init__(self):
        if self.rtt < 0:
            raise ValueError("rtt must be >= 0")
        if self.cloud_render_time < 0:
            raise ValueError("render time must be >= 0")


@dataclass
class FrameOutcome:
    """What one displayed frame looked like."""

    quality: float       # [0, 1] perceptual quality of the displayed frame
    used_cloud: bool
    latency: float       # pose-to-display latency of the displayed content


class CollaborativeRenderer:
    """Local + speculative-cloud frame composition.

    ``head_pose(t)`` supplies the true head trajectory.  For each frame at
    time ``t`` the cloud frame arriving now was requested at ``t - rtt``
    for the *predicted* pose at ``t``; the prediction error equals the
    angular difference between the pose extrapolated at request time and
    the actual pose — here modeled by comparing the true pose at ``t``
    with the true pose at ``t - rtt`` scaled by a predictor gain.
    """

    def __init__(
        self,
        head_pose: Callable[[float], Pose],
        config: RemoteRenderConfig = RemoteRenderConfig(),
        local_quality: float = 0.45,
        cloud_quality: float = 0.95,
        predictor_gain: float = 0.7,
    ):
        if not 0.0 <= local_quality <= 1.0 or not 0.0 <= cloud_quality <= 1.0:
            raise ValueError("qualities must be in [0,1]")
        if not 0.0 <= predictor_gain <= 1.0:
            raise ValueError("predictor gain must be in [0,1]")
        self.head_pose = head_pose
        self.config = config
        self.local_quality = float(local_quality)
        self.cloud_quality = float(cloud_quality)
        self.predictor_gain = float(predictor_gain)
        self.frames = 0
        self.cloud_hits = 0

    def prediction_error_rad(self, t: float) -> float:
        """Head-rotation speculation error for the frame shown at ``t``."""
        past = self.head_pose(t - self.config.rtt)
        now = self.head_pose(t)
        raw = quat_angle(past.orientation, now.orientation)
        # A predictor with gain g removes a fraction g of the motion.
        return raw * (1.0 - self.predictor_gain)

    def frame(self, t: float, mode: str = "collaborative") -> FrameOutcome:
        """Render one frame at time ``t`` in the given mode.

        Modes: ``local`` (device only), ``cloud`` (remote only — stalls to
        local black... i.e. quality 0 when speculation fails), and
        ``collaborative`` (merge with local fallback).
        """
        if mode not in ("local", "cloud", "collaborative"):
            raise ValueError(f"unknown mode: {mode!r}")
        self.frames += 1
        if mode == "local":
            return FrameOutcome(self.local_quality, False, 0.0)
        error = self.prediction_error_rad(t)
        cloud_ok = error <= self.config.reprojection_limit_rad
        penalty = self.config.reprojection_penalty_per_rad * error
        cloud_frame_quality = max(0.0, self.cloud_quality - penalty)
        if mode == "cloud":
            if cloud_ok:
                self.cloud_hits += 1
                return FrameOutcome(cloud_frame_quality, True, self.config.rtt)
            return FrameOutcome(0.0, False, self.config.rtt)
        # Collaborative: cloud layer when valid, local fallback otherwise.
        if cloud_ok:
            self.cloud_hits += 1
            quality = max(self.local_quality, cloud_frame_quality)
            return FrameOutcome(quality, True, self.config.rtt)
        return FrameOutcome(self.local_quality, False, 0.0)

    def mean_quality(self, t0: float, t1: float, fps: float, mode: str) -> float:
        """Average displayed quality over [t0, t1] at ``fps``."""
        if t1 <= t0 or fps <= 0:
            raise ValueError("need t1 > t0 and positive fps")
        n = max(1, int((t1 - t0) * fps))
        total = 0.0
        for i in range(n):
            total += self.frame(t0 + i / fps, mode).quality
        return total / n
