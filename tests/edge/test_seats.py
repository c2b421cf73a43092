"""Unit tests for seat maps and assignment policies."""

import numpy as np
import pytest

from repro.edge.seats import (
    Seat,
    SeatMap,
    assign_seats_first_fit,
    assign_seats_hungarian,
    seat_transform_for,
    total_displacement,
)


def test_grid_seat_map_structure():
    seat_map = SeatMap.grid(rows=3, cols=4, spacing=1.0)
    assert len(seat_map.seats) == 12
    assert seat_map.n_vacant == 12
    seat = seat_map.seats["r1c2"]
    assert np.allclose(seat.position, [4.0, 3.0, 0.0])


def test_seat_map_occupancy():
    seat_map = SeatMap.grid(rows=1, cols=2)
    seat_map.occupy("r0c0", "alice")
    assert seat_map.occupant("r0c0") == "alice"
    assert seat_map.n_vacant == 1
    with pytest.raises(ValueError):
        seat_map.occupy("r0c0", "bob")
    with pytest.raises(KeyError):
        seat_map.occupy("r9c9", "bob")


def test_seat_map_validation():
    with pytest.raises(ValueError):
        SeatMap([])
    with pytest.raises(ValueError):
        SeatMap([Seat("a", np.zeros(3)), Seat("a", np.ones(3))])
    with pytest.raises(ValueError):
        SeatMap.grid(rows=0, cols=3)


def test_hungarian_preserves_relative_layout():
    """Avatars sitting left/right of each other stay that way."""
    # Source: two participants 2 m apart on the x axis.
    incoming = {
        "left": np.array([0.0, 0.0, 0.0]),
        "right": np.array([2.0, 0.0, 0.0]),
    }
    vacant = [
        Seat("v_left", np.array([10.0, 5.0, 0.0])),
        Seat("v_right", np.array([12.0, 5.0, 0.0])),
    ]
    assignment = assign_seats_hungarian(incoming, vacant)
    assert assignment["left"].seat_id == "v_left"
    assert assignment["right"].seat_id == "v_right"


def test_hungarian_beats_first_fit_displacement():
    """A1 shape: optimal matching has lower displacement than first-fit."""
    rng = np.random.default_rng(0)
    incoming = {
        f"p{i}": np.array([rng.uniform(0, 8), rng.uniform(0, 6), 0.0])
        for i in range(12)
    }
    vacant = [
        Seat(f"s{i}", np.array([rng.uniform(0, 8), rng.uniform(0, 6), 0.0]))
        for i in range(15)
    ]
    optimal = total_displacement(incoming, assign_seats_hungarian(incoming, vacant))
    naive = total_displacement(incoming, assign_seats_first_fit(incoming, vacant))
    assert optimal <= naive
    assert optimal < naive * 0.9  # strictly better on random instances


def test_assignment_too_many_avatars_rejected():
    incoming = {"a": np.zeros(3), "b": np.ones(3)}
    vacant = [Seat("s", np.zeros(3))]
    with pytest.raises(ValueError):
        assign_seats_hungarian(incoming, vacant)
    with pytest.raises(ValueError):
        assign_seats_first_fit(incoming, vacant)


def test_assignment_empty():
    assert assign_seats_hungarian({}, []) == {}
    assert total_displacement({}, {}) == 0.0


def test_seat_transform_for_yaw_delta():
    seat = Seat("s", np.array([5.0, 5.0, 0.0]), facing_yaw=np.pi)
    transform = seat_transform_for(np.zeros(3), seat, source_yaw=np.pi / 2)
    assert transform.yaw_delta == pytest.approx(np.pi / 2)
    assert np.allclose(transform.target_anchor, [5.0, 5.0, 0.0])
