"""Parametric ground-truth motion traces.

Traces are smooth deterministic functions of time (sums of incommensurate
sinusoids with seeded random phases), so trackers can sample them at any
rate and prediction error behaves like it does against real human motion:
small over short horizons, growing with the horizon.
"""

from __future__ import annotations

from math import cos, sin
from typing import List, Sequence

import numpy as np

from repro.sensing.pose import Pose, yaw_quat


class MotionTrace:
    """Base class: a callable ``t -> Pose``."""

    def __call__(self, t: float) -> Pose:
        raise NotImplementedError


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
        self.anchor = tuple(np.asarray(anchor, dtype=float).reshape(3).tolist())
        self.sway = float(sway_amplitude_m)
        self.bob = float(bob_amplitude_m)
        self.head_scan = float(head_scan_rad)
        self.facing_yaw = float(facing_yaw)
        self._phases = tuple(rng.uniform(0.0, 2.0 * np.pi, size=6).tolist())
        freqs = np.array([0.23, 0.31, 0.17, 0.27, 0.11, 0.19]) * rng.uniform(
            0.8, 1.2, size=6
        )
        self._omegas = tuple((2.0 * np.pi * freqs).tolist())

    def __call__(self, t: float) -> Pose:
        w, ph = self._omegas, self._phases
        ax, ay, az = self.anchor
        position = (
            ax + self.sway * sin(w[0] * t + ph[0]),
            ay + self.sway * sin(w[1] * t + ph[1]),
            az + self.bob * sin(w[2] * t + ph[2]),
        )
        # Half-angles of yaw_quat(yaw) * quat_from_axis_angle(y, pitch),
        # multiplied out on floats term by term in quat_multiply's order;
        # the 0.0 * s terms stay so every operation, signed zeros
        # included, is the one the array formula performs.
        hy = (self.facing_yaw + self.head_scan * sin(w[3] * t + ph[3])) / 2.0
        hp = 0.15 * sin(w[4] * t + ph[4]) / 2.0
        w1, s1, w2, s2 = cos(hy), sin(hy), cos(hp), sin(hp)
        x1, y1, z1, x2, y2, z2 = 0.0 * s1, 0.0 * s1, s1, 0.0 * s2, s2, 0.0 * s2
        return Pose(position, (
            w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
        ))


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
