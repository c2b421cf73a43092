"""A motionless ground-truth trace for tests."""

from __future__ import annotations

from typing import Optional

from repro.sensing.pose import Pose
from repro.workload.traces import MotionTrace


class StationaryMotion(MotionTrace):
    """A fixed pose: the trace of an avatar that never moves."""

    def __init__(self, pose: Optional[Pose] = None):
        self.pose = pose if pose is not None else Pose()

    def __call__(self, t: float) -> Pose:
        return self.pose.copy()
