"""Reference motion for tests: a motionless trace, the array formula of
:class:`~repro.workload.traces.SeatedMotion`, and a finite-difference
speed estimate."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sensing.pose import (
    Pose,
    quat_from_axis_angle,
    quat_multiply,
    yaw_quat,
)
from repro.workload.traces import MotionTrace, SeatedMotion


class StationaryMotion(MotionTrace):
    """A fixed pose: the trace of an avatar that never moves."""

    def __init__(self, pose: Optional[Pose] = None):
        self.pose = pose if pose is not None else Pose()

    def __call__(self, t: float) -> Pose:
        return self.pose.copy()


def average_speed(trace: MotionTrace, t0: float, t1: float,
                  samples: int = 100) -> float:
    """Mean speed of ``trace`` over [t0, t1], by finite differences."""
    if t1 <= t0:
        raise ValueError("need t1 > t0")
    times = np.linspace(t0, t1, samples)
    positions = np.array([trace(t).position for t in times])
    step = (t1 - t0) / (samples - 1)
    speeds = np.linalg.norm(np.diff(positions, axis=0), axis=1) / step
    return float(speeds.mean())


def seated_pose_reference(trace: SeatedMotion, t: float) -> Pose:
    """``trace(t)`` through NumPy arrays and the quaternion helpers: the
    formula the float path in ``SeatedMotion.__call__`` spells out."""
    w = np.array(trace._omegas)
    ph = np.array(trace._phases)
    offset = np.array([
        trace.sway * np.sin(w[0] * t + ph[0]),
        trace.sway * np.sin(w[1] * t + ph[1]),
        trace.bob * np.sin(w[2] * t + ph[2]),
    ])
    yaw = trace.facing_yaw + trace.head_scan * np.sin(w[3] * t + ph[3])
    pitch = 0.15 * np.sin(w[4] * t + ph[4])
    orientation = quat_multiply(
        yaw_quat(yaw), quat_from_axis_angle((0.0, 1.0, 0.0), pitch)
    )
    return Pose(np.array(trace.anchor) + offset, orientation)


def quat_normalize_reference(q: np.ndarray) -> np.ndarray:
    """``quat_normalize`` as one array formula over the last axis,
    ``np.sqrt`` included; rows of a ``(n, 4)`` array normalize at once."""
    q = np.asarray(q, dtype=float)
    norm = np.sqrt(((q[..., 0] * q[..., 0] + q[..., 1] * q[..., 1])
                    + q[..., 2] * q[..., 2]) + q[..., 3] * q[..., 3])
    return q / norm[..., None]
