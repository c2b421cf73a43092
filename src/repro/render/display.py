"""Head-mounted display model: FOV, refresh, vsync."""

from __future__ import annotations

import math
from dataclasses import dataclass


@dataclass(frozen=True)
class DisplayModel:
    """Optical and timing properties of a headset display."""

    name: str = "generic_hmd"
    fov_horizontal_deg: float = 90.0
    fov_vertical_deg: float = 90.0
    refresh_hz: float = 72.0
    resolution_px: int = 1832 * 1920

    def __post_init__(self):
        if not 10.0 <= self.fov_horizontal_deg <= 360.0:
            raise ValueError("horizontal FOV out of range")
        if not 10.0 <= self.fov_vertical_deg <= 360.0:
            raise ValueError("vertical FOV out of range")
        if self.refresh_hz <= 0:
            raise ValueError("refresh rate must be positive")

    @property
    def frame_period(self) -> float:
        return 1.0 / self.refresh_hz

    def vsync_wait(self, ready_time: float) -> float:
        """Seconds a frame finished at ``ready_time`` waits for scan-out."""
        period = self.frame_period
        next_vsync = math.ceil(ready_time / period) * period
        return next_vsync - ready_time

    def visible_fraction_of_gesture(self, gesture_extent_rad: float) -> float:
        """Fraction of a body gesture spanning ``gesture_extent_rad`` seen.

        A gesture centred on the speaker spans symmetric azimuth; the
        visible fraction is what the horizontal FOV clips — the paper's
        "partial view of body gestures ... due to limited FOV".
        """
        if gesture_extent_rad <= 0:
            raise ValueError("gesture extent must be positive")
        half_fov = math.radians(self.fov_horizontal_deg) / 2.0
        visible = min(gesture_extent_rad / 2.0, half_fov)
        return visible / (gesture_extent_rad / 2.0)
