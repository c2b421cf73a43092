"""Rigid-body poses and quaternion math.

Quaternions are ``numpy`` arrays ``[w, x, y, z]`` with unit norm; positions
are 3-vectors in metres within the classroom's local frame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

IDENTITY_QUAT = np.array([1.0, 0.0, 0.0, 0.0])


def quat_normalize(q: np.ndarray) -> np.ndarray:
    """Return ``q`` scaled to unit norm; rejects the zero quaternion.

    The norm is ``math.sqrt`` of the squares of ``q.tolist()`` summed in
    explicit left-to-right order, not ``np.linalg.norm`` (whose BLAS dot
    product may sum in another order per platform/build): the batched
    quantizer reproduces this exact operation row-wise, and bit-for-bit
    scalar/vector equivalence requires one well-defined summation order.
    """
    q = np.asarray(q, dtype=float)
    w, x, y, z = q.tolist()
    norm = math.sqrt(((w * w + x * x) + y * y) + z * z)
    if norm < 1e-12:
        raise ValueError("cannot normalize a zero quaternion")
    return q / norm


def quat_multiply(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Hamilton product a * b."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return np.array([
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    ])


def quat_conjugate(q: np.ndarray) -> np.ndarray:
    return np.array([q[0], -q[1], -q[2], -q[3]])


def quat_from_axis_angle(axis: Sequence[float], angle: float) -> np.ndarray:
    """Unit quaternion rotating by ``angle`` radians around ``axis``."""
    axis = np.asarray(axis, dtype=float)
    norm = np.linalg.norm(axis)
    if norm < 1e-12:
        raise ValueError("rotation axis must be non-zero")
    axis = axis / norm
    half = angle / 2.0
    return np.concatenate(([np.cos(half)], axis * np.sin(half)))


def quat_rotate(q: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Rotate vector ``v`` by quaternion ``q``."""
    qv = np.concatenate(([0.0], np.asarray(v, dtype=float)))
    rotated = quat_multiply(quat_multiply(q, qv), quat_conjugate(q))
    return rotated[1:]


def quat_angle(a: np.ndarray, b: np.ndarray) -> float:
    """Geodesic angle in radians between two unit quaternions."""
    dot = abs(float(np.clip(np.dot(a, b), -1.0, 1.0)))
    return 2.0 * float(np.arccos(dot))


def slerp(a: np.ndarray, b: np.ndarray, t: float) -> np.ndarray:
    """Spherical linear interpolation from ``a`` (t=0) to ``b`` (t=1)."""
    a = quat_normalize(a)
    b = quat_normalize(b)
    dot = float(np.dot(a, b))
    if dot < 0.0:
        b = -b
        dot = -dot
    if dot > 0.9995:
        # Nearly parallel: fall back to normalized lerp.
        return quat_normalize(a + t * (b - a))
    theta = np.arccos(np.clip(dot, -1.0, 1.0))
    sin_theta = np.sin(theta)
    wa = np.sin((1.0 - t) * theta) / sin_theta
    wb = np.sin(t * theta) / sin_theta
    return quat_normalize(wa * a + wb * b)


def yaw_quat(yaw: float) -> np.ndarray:
    """Rotation around the vertical (z) axis by ``yaw`` radians."""
    return quat_from_axis_angle((0.0, 0.0, 1.0), yaw)


@dataclass
class Pose:
    """Position plus orientation of a rigid body."""

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    orientation: np.ndarray = field(default_factory=lambda: IDENTITY_QUAT.copy())

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float).reshape(3)
        self.orientation = quat_normalize(np.asarray(self.orientation, dtype=float).reshape(4))

    def copy(self) -> "Pose":
        # Fields are already validated/normalized, so skip __post_init__
        # (re-normalizing an already-unit quaternion would also perturb
        # its bits, making copies not byte-identical to the original).
        new = Pose.__new__(Pose)
        new.position = self.position.copy()
        new.orientation = self.orientation.copy()
        return new

    def distance_to(self, other: "Pose") -> float:
        """Euclidean position error in metres."""
        return float(np.linalg.norm(self.position - other.position))

    def angle_to(self, other: "Pose") -> float:
        """Orientation error in radians."""
        return quat_angle(self.orientation, other.orientation)

    def interpolate(self, other: "Pose", t: float) -> "Pose":
        """Linear/spherical blend towards ``other`` (t in [0, 1] typical)."""
        position = (1.0 - t) * self.position + t * other.position
        orientation = slerp(self.orientation, other.orientation, np.clip(t, 0.0, 1.0))
        return Pose(position, orientation)
