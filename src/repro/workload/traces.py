"""Parametric ground-truth motion traces.

Traces are smooth deterministic functions of time (sums of incommensurate
sinusoids with seeded random phases), so trackers can sample them at any
rate and prediction error behaves like it does against real human motion:
small over short horizons, growing with the horizon.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.sensing.pose import Pose, quat_from_axis_angle, quat_multiply, yaw_quat


class MotionTrace:
    """Base class: a callable ``t -> Pose``."""

    def __call__(self, t: float) -> Pose:
        raise NotImplementedError

    def average_speed(self, t0: float, t1: float, samples: int = 100) -> float:
        """Mean speed over [t0, t1], estimated by finite differences."""
        if t1 <= t0:
            raise ValueError("need t1 > t0")
        times = np.linspace(t0, t1, samples)
        positions = np.array([self(t).position for t in times])
        step = (t1 - t0) / (samples - 1)
        speeds = np.linalg.norm(np.diff(positions, axis=0), axis=1) / step
        return float(speeds.mean())


class SeatedMotion(MotionTrace):
    """A seated participant: torso sway, breathing bob, head scanning.

    All components are sinusoids with seeded random phases and slightly
    detuned frequencies, giving natural-looking smooth quasi-periodic
    motion around the seat anchor.
    """

    def __init__(
        self,
        anchor: Sequence[float],
        rng: np.random.Generator,
        sway_amplitude_m: float = 0.04,
        bob_amplitude_m: float = 0.01,
        head_scan_rad: float = 0.5,
        facing_yaw: float = 0.0,
    ):
        self.anchor = np.asarray(anchor, dtype=float)
        self.sway = float(sway_amplitude_m)
        self.bob = float(bob_amplitude_m)
        self.head_scan = float(head_scan_rad)
        self.facing_yaw = float(facing_yaw)
        self._phases = rng.uniform(0.0, 2.0 * np.pi, size=6)
        self._freqs = np.array([0.23, 0.31, 0.17, 0.27, 0.11, 0.19]) * rng.uniform(
            0.8, 1.2, size=6
        )

    def __call__(self, t: float) -> Pose:
        w = 2.0 * np.pi * self._freqs
        ph = self._phases
        offset = np.array([
            self.sway * np.sin(w[0] * t + ph[0]),
            self.sway * np.sin(w[1] * t + ph[1]),
            self.bob * np.sin(w[2] * t + ph[2]),
        ])
        yaw = self.facing_yaw + self.head_scan * np.sin(w[3] * t + ph[3])
        pitch = 0.15 * np.sin(w[4] * t + ph[4])
        orientation = quat_multiply(
            yaw_quat(yaw), quat_from_axis_angle((0.0, 1.0, 0.0), pitch)
        )
        return Pose(self.anchor + offset, orientation)


class WalkingMotion(MotionTrace):
    """A participant walking a waypoint loop at constant speed."""

    def __init__(
        self,
        waypoints: Sequence[Sequence[float]],
        speed_m_per_s: float = 1.2,
        loop: bool = True,
    ):
        if len(waypoints) < 2:
            raise ValueError("need at least two waypoints")
        if speed_m_per_s <= 0:
            raise ValueError("speed must be positive")
        self.waypoints = [np.asarray(w, dtype=float) for w in waypoints]
        self.speed = float(speed_m_per_s)
        self.loop = loop
        points = self.waypoints + ([self.waypoints[0]] if loop else [])
        self._segments: List[tuple] = []
        cursor = 0.0
        for a, b in zip(points, points[1:]):
            length = float(np.linalg.norm(b - a))
            if length <= 0:
                continue
            self._segments.append((cursor, length, a, b))
            cursor += length
        self.path_length = cursor
        if not self._segments:
            raise ValueError("waypoints are all coincident")

    def __call__(self, t: float) -> Pose:
        distance = self.speed * max(0.0, t)
        if self.loop:
            distance = distance % self.path_length
        else:
            distance = min(distance, self.path_length - 1e-9)
        for start, length, a, b in self._segments:
            if start <= distance <= start + length:
                frac = (distance - start) / length
                position = a + frac * (b - a)
                heading = b - a
                yaw = float(np.arctan2(heading[1], heading[0]))
                return Pose(position, yaw_quat(yaw))
        # Numeric edge (distance == path_length): end of last segment.
        _start, _length, _a, b = self._segments[-1]
        return Pose(b, yaw_quat(0.0))


class StationaryMotion(MotionTrace):  # replint: ignore[ARCH003] -- motionless-avatar test fixture
    """A fixed pose — podiums, projectors, test fixtures."""

    def __init__(self, pose: Optional[Pose] = None):
        self.pose = pose if pose is not None else Pose()

    def __call__(self, t: float) -> Pose:
        return self.pose.copy()
