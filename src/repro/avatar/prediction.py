"""Dead reckoning of avatar motion across network gaps."""

from __future__ import annotations

from collections import deque
from typing import Deque, Optional, Tuple

import numpy as np

from repro.sensing.pose import Pose


class DeadReckoner:
    """First/second-order extrapolation from recent pose history.

    Receivers extrapolate a remote avatar between updates with it, as in
    the classic DIS dead-reckoning protocol.
    """

    def __init__(self, use_acceleration: bool = False, history: int = 4):
        if history < 2:
            raise ValueError("need at least two samples of history")
        self.use_acceleration = use_acceleration
        self._history: Deque[Tuple[float, np.ndarray]] = deque(maxlen=history)
        self._last_pose: Optional[Pose] = None

    def observe(self, time: float, pose: Pose) -> None:
        """Feed a confirmed sample."""
        if self._history and time <= self._history[-1][0]:
            return
        self._history.append((time, pose.position.copy()))
        self._last_pose = pose.copy()

    @property
    def ready(self) -> bool:
        return len(self._history) >= 2

    def predict(self, time: float) -> Pose:
        """Predicted pose at ``time`` (>= last observation)."""
        if self._last_pose is None:
            raise RuntimeError("no observations yet")
        if not self.ready:
            return self._last_pose.copy()
        t1, p1 = self._history[-1]
        t0, p0 = self._history[-2]
        dt = t1 - t0
        velocity = (p1 - p0) / dt if dt > 0 else np.zeros(3)
        gap = max(0.0, time - t1)
        position = p1 + velocity * gap
        if self.use_acceleration and len(self._history) >= 3:
            t_prev, p_prev = self._history[-3]
            dt_prev = t0 - t_prev
            if dt_prev > 0 and dt > 0:
                v_prev = (p0 - p_prev) / dt_prev
                accel = (velocity - v_prev) / dt
                position = position + 0.5 * accel * gap ** 2
        predicted = self._last_pose.copy()
        predicted.position = position
        return predicted

    def error(self, time: float, truth: Pose) -> float:
        """Distance between prediction and ground truth at ``time``."""
        return self.predict(time).distance_to(truth)
