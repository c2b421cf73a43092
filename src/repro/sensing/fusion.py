"""Kalman-filter fusion of headset and room-sensor streams.

The edge server "aggregates the data to estimate the pose and facial
expression of the participants" (Figure 3).  Position/velocity are fused
with a constant-velocity Kalman filter fed by both measurement sources
(with per-source noise); orientation comes from the headset only (the room
rig cannot observe gaze) and is smoothed with a complementary slerp filter.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sensing.headset import PoseSample
from repro.sensing.pose import IDENTITY_QUAT, Pose, slerp


class PoseFusionFilter:
    """Per-participant constant-velocity Kalman filter.

    State: ``[px, py, pz, vx, vy, vz]``.  ``update`` ingests measurements in
    any order of source; ``estimate`` predicts the fused pose at any time at
    or after the last update (used by the avatar generator to resample on
    its own tick).
    """

    def __init__(
        self,
        headset_noise_m: float = 0.004,
        room_noise_m: float = 0.03,
        process_accel_std: float = 1.0,
        orientation_smoothing: float = 0.7,
    ):
        self.headset_noise_m = float(headset_noise_m)
        self.room_noise_m = float(room_noise_m)
        self.process_accel_std = float(process_accel_std)
        self.orientation_smoothing = float(orientation_smoothing)
        self._x = np.zeros(6)
        self._P = np.eye(6) * 10.0  # large prior uncertainty
        self._orientation = IDENTITY_QUAT.copy()
        self._last_time: Optional[float] = None
        self.updates = 0

    # -- internals ----------------------------------------------------------

    @staticmethod
    def _transition(dt: float) -> np.ndarray:
        F = np.eye(6)
        F[0, 3] = F[1, 4] = F[2, 5] = dt
        return F

    def _process_noise(self, dt: float) -> np.ndarray:
        # Discretized white-acceleration model.
        q = self.process_accel_std ** 2
        dt2, dt3, dt4 = dt ** 2, dt ** 3, dt ** 4
        Q = np.zeros((6, 6))
        for axis in range(3):
            Q[axis, axis] = dt4 / 4.0 * q
            Q[axis, axis + 3] = Q[axis + 3, axis] = dt3 / 2.0 * q
            Q[axis + 3, axis + 3] = dt2 * q
        return Q

    def _predict_to(self, time: float) -> None:
        if self._last_time is None:
            self._last_time = time
            return
        dt = time - self._last_time
        if dt < 0:
            raise ValueError(f"measurement out of order: {time} < {self._last_time}")
        if dt > 0:
            F = self._transition(dt)
            self._x = F @ self._x
            self._P = F @ self._P @ F.T + self._process_noise(dt)
        self._last_time = time

    # -- public API -----------------------------------------------------------

    def update(self, sample: PoseSample) -> None:
        """Ingest one measurement (headset or room source)."""
        self._predict_to(sample.time)
        noise = self.headset_noise_m if sample.source == "headset" else self.room_noise_m
        H = np.hstack([np.eye(3), np.zeros((3, 3))])
        R = np.eye(3) * noise ** 2
        z = sample.pose.position
        innovation = z - H @ self._x
        S = H @ self._P @ H.T + R
        K = self._P @ H.T @ np.linalg.inv(S)
        self._x = self._x + K @ innovation
        self._P = (np.eye(6) - K @ H) @ self._P
        if sample.source == "headset":
            self._orientation = slerp(
                sample.pose.orientation, self._orientation, self.orientation_smoothing
            )
        self.updates += 1

    def estimate(self, time: Optional[float] = None) -> Pose:
        """Fused pose, optionally predicted forward to ``time``."""
        if self.updates == 0:
            raise RuntimeError("no measurements ingested yet")
        position = self._x[:3].copy()
        if time is not None and self._last_time is not None and time > self._last_time:
            position = position + self._x[3:] * (time - self._last_time)
        return Pose(position, self._orientation.copy())

    def velocity(self) -> np.ndarray:
        return self._x[3:].copy()

    def position_uncertainty(self) -> float:  # replint: ignore[ARCH003] -- test observer of the filter covariance
        """RMS positional standard deviation across the three axes."""
        return float(np.sqrt(np.trace(self._P[:3, :3]) / 3.0))
