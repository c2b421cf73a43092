"""Avatar layout inside the fully virtual VR classroom."""

from __future__ import annotations

from typing import Dict, List, Optional

import numpy as np

from repro.sensing.pose import Pose, yaw_quat


class VRClassroomLayout:
    """A virtual auditorium: a stage plus curved rows of seats.

    The instructor (and guest speakers) stand on the stage; attendees are
    seated row-major, each seat oriented towards the stage centre.  The
    room grows by adding rows, so arbitrarily many remote users fit —
    the VR classroom has no physical capacity limit.
    """

    def __init__(
        self,
        seats_per_row: int = 20,
        row_spacing_m: float = 1.5,
        seat_spacing_m: float = 1.0,
        first_row_radius_m: float = 4.0,
    ):
        if seats_per_row < 1:
            raise ValueError("seats per row must be >= 1")
        if min(row_spacing_m, seat_spacing_m, first_row_radius_m) <= 0:
            raise ValueError("spacings must be positive")
        self.seats_per_row = int(seats_per_row)
        self.row_spacing = float(row_spacing_m)
        self.seat_spacing = float(seat_spacing_m)
        self.first_row_radius = float(first_row_radius_m)
        self._assignments: Dict[str, int] = {}
        self._stage: List[str] = []

    @property
    def stage_center(self) -> np.ndarray:
        return np.zeros(3)

    def assign_stage(self, participant_id: str) -> Pose:
        """Place an instructor/speaker on the stage."""
        if participant_id in self._stage:
            return self.stage_pose(self._stage.index(participant_id))
        self._stage.append(participant_id)
        return self.stage_pose(len(self._stage) - 1)

    def stage_pose(self, slot: int) -> Pose:
        x = (slot - (len(self._stage) - 1) / 2.0) * 1.5
        return Pose(np.array([x, 0.0, 0.0]), yaw_quat(-np.pi / 2))

    def assign_seat(self, participant_id: str) -> Pose:
        """Seat an attendee at the next free position."""
        index = self._assignments.get(participant_id)
        if index is None:
            index = len(self._assignments)
            self._assignments[participant_id] = index
        return self.seat_pose(index)

    def seat_pose(self, index: int) -> Pose:
        """Pose of seat ``index``: curved rows facing the stage."""
        if index < 0:
            raise ValueError("seat index must be >= 0")
        row = index // self.seats_per_row
        col = index % self.seats_per_row
        radius = self.first_row_radius + row * self.row_spacing
        # Spread the row over an arc whose chord spacing ~ seat_spacing.
        arc = self.seat_spacing * (self.seats_per_row - 1)
        angle_span = arc / radius
        angle = -angle_span / 2.0 + (
            angle_span * col / max(1, self.seats_per_row - 1)
        )
        position = np.array([
            radius * np.sin(angle),
            radius * np.cos(angle),
            0.0,
        ])
        to_stage = self.stage_center - position
        facing = float(np.arctan2(to_stage[1], to_stage[0]))
        return Pose(position, yaw_quat(facing))

    @property
    def seated_count(self) -> int:  # replint: ignore[ARCH003] -- test observer of seat assignment
        return len(self._assignments)
